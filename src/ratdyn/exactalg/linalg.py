"""Exact linear algebra over Q and over polynomial entries.

All elimination over Q is ``echelon_step``: it clears a row once to a
primitive integer row, reduces it against an integer echelon with one integer
reduction step (a multiple of one row minus a multiple of another, divided by
its content), and inserts a nonzero remainder, which is empty exactly for a
row in the span.  The echelon is one dict from each pivot column to its row,
so a reduction costs the entries it touches: the pivot columns a row meets
come from the row's own keys, not from a scan over every pivot.  ``rank``
counts the pivots, and ``nullspace`` reads the unique reduced echelon basis
of the kernel off one integer echelon, making a Fraction only for each entry
it returns.  The rank is at most the column count, so ``nullspace`` stops
eliminating once its echelon holds that many pivots: every later row lies in
the span.  Given a limit on the kernel's dimension, it also stops once the
rows left cannot raise the rank enough to meet it.  An exponent matrix is
singular exactly when its ``rank`` falls short of its size.

One elimination stays separate because it works in another ring:
``_bareiss_join`` reduces a row of polynomials against a fraction-free
(Bareiss) echelon, which stays in the polynomial ring via exact divisions.
``poly_matrix_rank`` counts the rows that join one such echelon.
``JacobianSelector`` keeps a maximal independent subset of the functions
offered to it: Jacobian rows at a seeded integer point are ints, so its
seeded test runs in Z, and ``_bareiss_join`` on den^2 * grad f decides
whenever that test cannot.  ``jacobian_rank`` counts what a selector keeps.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .poly import Polynomial, _cleared_terms, divide_exact
from .ratfunc import RationalFunction
from ..errors import VariableMismatchError

SparseRow = Dict[int, Fraction]
IntRow = Dict[int, int]
Echelon = Dict[Hashable, IntRow]  # pivot column -> its row


# -- the elimination over Q ------------------------------------------------------


def _primitive(row: IntRow) -> IntRow:
    g = math.gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: IntRow, ref: IntRow, pc: Hashable) -> Tuple[IntRow, List[Hashable]]:
    """Primitive multiple of b*row - a*ref, with a/b = row[pc]/ref[pc] in
    lowest terms: the row minus its multiple of ref that is zero at pc; and
    the columns where ref fills an entry that the row did not have."""
    g = math.gcd(row[pc], ref[pc])
    a, b = row[pc] // g, ref[pc] // g
    out = {c: b * v for c, v in row.items()} if b != 1 else dict(row)
    filled = []
    for c, v in ref.items():
        if c in out:
            s = out[c] - a * v
            if s:
                out[c] = s
            else:
                del out[c]
        else:
            out[c] = -a * v
            filled.append(c)
    return _primitive(out), filled


def echelon_step(echelon: Echelon, row: SparseRow, insert: bool = True) -> IntRow:
    """Remainder of a sparse row against an integer echelon, which it joins.

    ``echelon`` maps each pivot column to a primitive integer row whose
    least column it is, and which is the only row nonzero there.  The row
    (int or Fraction entries) is cleared to a primitive integer row without
    its zero entries and reduced, by ``_eliminate``, at each pivot column
    where it is nonzero, in ascending order; the remainder is empty exactly
    when the row lies in the span.  A row of ints needs no clearing, only
    the zero filter and the content.  With ``insert``, a nonzero remainder
    joins at its least column, which is then cleared from the rows that
    hold it; nothing else is changed in place.

    The cost is what the row touches, not the echelon's rank: the pivot
    columns to reduce come from the row's own entries, kept in a heap that
    also takes each pivot column an elimination fills.  A row of the
    echelon holds no pivot column below its own, so an elimination fills
    only columns above the one it clears, and the heap meets the columns in
    the same order as a scan over every pivot would.

    In the reduced (Gauss-Jordan) echelon that insertion keeps, no row
    holds another's pivot column, so nothing is filled there.  Membership
    (``insert=False``) needs only a triangular echelon: each row's least
    column is its pivot, and the pivots are distinct.  The remainder is
    then zero at every pivot column, and a nonzero combination of the rows
    is not, at the least pivot it uses.  So rows multiplied by one
    polynomial, with exponent tuples as columns in lex order (a monomial
    order: a product's least monomial is the sum of its factors'), still
    answer membership of the multiplied span, and an insertion keeps the
    echelon triangular.
    """
    if not all(type(v) is int for v in row.values()):
        row = _cleared_terms(row)[1]
    row = _primitive({c: v for c, v in row.items() if v})
    todo = [c for c in row if c in echelon]
    heapq.heapify(todo)
    while todo:
        pc = heapq.heappop(todo)
        if pc in row:
            row, filled = _eliminate(row, echelon[pc], pc)
            for c in filled:
                if c in echelon:
                    heapq.heappush(todo, c)
    if row and insert:
        pc = min(row)
        for p in [p for p, other in echelon.items() if pc in other]:
            echelon[p] = _eliminate(echelon[p], row, pc)[0]
        echelon[pc] = row
    return row


def _echelon(rows: Iterable[SparseRow]) -> Echelon:
    """Integer echelon of the rows, by ``echelon_step`` on each in turn."""
    echelon: Echelon = {}
    for row in rows:
        echelon_step(echelon, row)
    return echelon


def _sparse(vector: Sequence) -> SparseRow:
    return {c: v for c, v in enumerate(vector) if v}


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a dense matrix of ints or rationals: the pivot count of
    its integer echelon."""
    return len(_echelon(map(_sparse, rows)))


def transpose(columns: Iterable[Mapping[Hashable, Fraction]]) -> List[SparseRow]:
    """Sparse rows of the matrix whose j-th column maps row keys to entries,
    one row per key in the order the keys are first seen."""
    rows: Dict[Hashable, SparseRow] = {}
    for col, entries in enumerate(columns):
        for key, coeff in entries.items():
            rows.setdefault(key, {})[col] = coeff
    return list(rows.values())


# -- public nullspace / rank ---------------------------------------------------


def nullspace(rows: Sequence[SparseRow], ncols: int, limit: Optional[int] = None
              ) -> List[Tuple[Fraction, ...]]:
    """Canonical exact basis of {v : A v = 0} for a sparse rational matrix.

    Rows are dicts column -> coefficient, with int or Fraction values (zero
    entries are skipped).  The returned basis is the reduced row echelon form
    of the kernel, which is unique for the subspace, so scaling every column
    of the matrix by one nonzero constant leaves it unchanged.

    One integer echelon of the rows, with the columns reversed, gives it
    directly: each echelon row is nonzero at its pivot p and otherwise only
    at free columns before p, so the kernel vector of a free column f is 1
    at f, 0 at every other free column, and -row[f] / row[p] at the pivot p
    of each row that meets f.  Its first nonzero entry is the 1 at f, and in
    ascending f these vectors are the kernel's reduced row echelon form.

    The rank is at most ``ncols``, so the echelon stops at that many pivots
    (the kernel is then {0}).  The echelon it stops at spans the rows, so
    the basis is the one the full elimination gives.  With ``limit``, a
    kernel of more than ``limit`` vectors is returned as [], and the
    elimination stops as soon as it is certain: each unread row adds at most
    one pivot, so once the pivots and the unread rows together fall short of
    ``ncols - limit``, the rank does too.
    """
    last = ncols - 1
    least = 0 if limit is None else ncols - limit
    echelon: Echelon = {}
    unread = len(rows)
    for row in rows:
        if len(echelon) == ncols or len(echelon) + unread < least:
            break
        unread -= 1
        echelon_step(echelon, {last - c: v for c, v in row.items()})
    if len(echelon) < least:
        return []
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if last - f not in echelon}
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    for pc, row in echelon.items():
        p = row[pc]
        for c, v in row.items():
            if c != pc:
                basis[last - c][last - pc] = Fraction(-v, p)
    return [tuple(v) for v in basis.values()]


# -- fraction-free elimination over polynomial entries --------------------------


def _bareiss_join(echelon: List[Tuple[int, List[Polynomial]]],
                  row: List[Polynomial]) -> bool:
    """Reduce a row of polynomials by a fraction-free (Bareiss) echelon, and
    append it with its pivot column when the result is nonzero.

    Row t of the echelon is stored after t - 1 steps, with its pivot column
    c_t and pivot p_t = E_t[c_t].  The row is reduced by the k steps
    row <- (p_t * row - row[c_t] * E_t) / p_(t-1), with p_0 = 1.  By
    Sylvester's identity each entry is then the (k+1)-minor of the echelon's
    rows and this one on the columns c_1..c_k and its own, so every division
    is exact, and the result is zero exactly when the row lies in the span
    of the echelon's rows over the fraction field.
    """
    prev = None
    for c, ref in echelon:
        p, a = ref[c], row[c]
        row = [p * v - a * w for v, w in zip(row, ref)]
        if prev is not None:
            row = [divide_exact(v, prev) for v in row]
        prev = p
    column = next((j for j, v in enumerate(row) if v), None)
    if column is None:
        return False
    echelon.append((column, row))
    return True


def poly_matrix_rank(matrix: List[List[Polynomial]]) -> int:
    """Rank of a matrix of polynomials over the rational function field: the
    number of its rows that join one fraction-free echelon in turn."""
    echelon: List[Tuple[int, List[Polynomial]]] = []
    return sum(_bareiss_join(echelon, list(row)) for row in matrix)


# -- Jacobian rank ---------------------------------------------------------------


_POINT_POOL = 1_000_003  # candidate coordinates per variable
_POINT_SEED = 0x5261  # the seed of the one point of every seeded test


def _random_point(rng: random.Random, n: int) -> Tuple[int, ...]:
    half = _POINT_POOL // 2
    return tuple(rng.randint(-half, half) for _ in range(n))


def _value_and_gradient(terms: Mapping[Tuple[int, ...], int], powers: List[List[int]]
                        ) -> Tuple[int, List[int]]:
    """Value and partial derivatives of an int poly at the point whose
    coordinate powers are tabulated, in one pass over its terms."""
    value, grad = 0, [0] * len(powers)
    for e, c in terms.items():
        # prefix[j]: the coefficient times the factors before coordinate j
        prefix = [c]
        for table, k in zip(powers, e):
            prefix.append(prefix[-1] * table[k])
        value += prefix[-1]
        after = 1  # the factors after coordinate j
        for j in range(len(e) - 1, -1, -1):
            k = e[j]
            if k:
                grad[j] += k * prefix[j] * powers[j][k - 1] * after
                after *= powers[j][k]
    return value, grad


def jacobian_row(f: RationalFunction, point: Sequence[int]) -> List[int]:
    """Gradient of f at an integer point, scaled by den(point)^2 (a nonzero
    factor): ints, since normal forms have integer coefficients.

    The power tables of the coordinates are built once, and the value and
    every partial derivative of num and den come from one pass over each
    int term map.  Raises ZeroDivisionError when the point is a pole of f and
    ValueError when a coordinate is not an integer.
    """
    if len(point) != len(f.variables):
        raise VariableMismatchError("point length does not match variables")
    if any(int(v) != v for v in point):
        raise ValueError(f"non-integral coordinate in {point}")
    tops = map(max, f.num.max_exponents(), f.den.max_exponents())
    powers = [[int(v) ** k for k in range(top + 1)] for v, top in zip(point, tops)]
    qv, dq = _value_and_gradient(f.den._num, powers)
    if qv == 0:
        raise ZeroDivisionError("evaluation at a pole")
    pv, dp = _value_and_gradient(f.num._num, powers)
    return [a * qv - pv * b for a, b in zip(dp, dq)]


def _gradient_row(f: RationalFunction) -> List[Polynomial]:
    """den^2 * grad f: the gradient of f over Q(x), each entry a polynomial."""
    p, q = f.num, f.den
    return [p.derivative(j) * q - p * q.derivative(j) for j in range(len(f.variables))]


class JacobianSelector:
    """A maximal algebraically independent subset of the functions offered,
    chosen greedily in offer order: ``offer(f)`` keeps f (and says so)
    exactly when its gradient lies outside the span, over the function
    field, of the gradients of the functions in ``kept``.

    Two tests decide, each exact in what it claims:

      * the seeded test keeps an integer echelon of the kept functions'
        ``jacobian_row`` at one seeded point.  The rank at a point is at
        most the rank, so a nonzero remainder of f's row proves f
        independent, but only while every kept function has a pivot there:
        a kept function whose row has a pole at the point or reduces to zero
        ends the seeded test for good;
      * the exact test runs only when the seeded one cannot decide.  It
        reduces den^2 * grad f by ``_bareiss_join`` against a fraction-free
        echelon of the kept functions' rows, built lazily and extended with
        each kept function: f is dependent exactly when the result is zero.
    """

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.kept: List[RationalFunction] = []
        self._point = _random_point(random.Random(_POINT_SEED), len(self.variables))
        # the seeded echelon, None once a kept function has no pivot in it
        self._seeded: Optional[Echelon] = {}
        # (c_t, E_t) of kept[:len(self._exact)]
        self._exact: List[Tuple[int, List[Polynomial]]] = []

    def _seeded_join(self, f: RationalFunction) -> bool:
        """Whether f's row at the point joins the seeded echelon, which
        proves f independent; False when the seeded test is over, the point
        is a pole of f, or the row reduces to zero."""
        if self._seeded is None:
            return False
        try:
            row = jacobian_row(f, self._point)
        except ZeroDivisionError:
            return False
        return bool(echelon_step(self._seeded, _sparse(row)))

    def offer(self, f: RationalFunction) -> bool:
        if f.variables != self.variables:
            raise VariableMismatchError("functions over different variable tuples")
        if not self._seeded_join(f):
            # the kept functions are independent, so each one joins
            for g in self.kept[len(self._exact):]:
                _bareiss_join(self._exact, _gradient_row(g))
            if not _bareiss_join(self._exact, _gradient_row(f)):
                return False
            self._seeded = None  # f has no pivot at the point
        self.kept.append(f)
        return True


def jacobian_rank(fs: Sequence[RationalFunction]) -> int:
    """Rank over the function field of the matrix of partial derivatives.

    In characteristic zero this equals the number of algebraically
    independent functions among ``fs``: the number that a
    ``JacobianSelector`` keeps of them, offered in turn until it keeps as
    many as there are variables.
    """
    fs = list(fs)
    if not fs:
        return 0
    variables = fs[0].variables
    for f in fs[1:]:
        if f.variables != variables:
            raise VariableMismatchError("functions over different variable tuples")
    selector = JacobianSelector(variables)
    for f in fs:
        if len(selector.kept) == len(variables):
            break
        selector.offer(f)
    return len(selector.kept)
