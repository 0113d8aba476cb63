"""Exact linear algebra over Q and over polynomial entries.

All elimination over Q is ``echelon_step``: it clears a row once to a
primitive integer row, reduces it against an integer echelon with one integer
reduction step (a multiple of one row minus a multiple of another, divided by
its content), and inserts a nonzero remainder, which is empty exactly for a
row in the span.  ``rank`` counts the pivots, and ``nullspace`` reads the
unique reduced echelon basis of the kernel off one integer echelon, making a
Fraction only for each entry it returns.  The rank is at most the column
count, and at most one less when a kernel vector is known, so ``nullspace``
stops eliminating once its echelon holds that many pivots: every later row
lies in the span.  Jacobian rows at integer points are ints as well, so the
seeded rank test runs in Z throughout, and an exponent matrix is singular
exactly when its ``rank`` falls short of its size.  One elimination stays
separate because it works in another ring: ``poly_matrix_rank`` uses
fraction-free (Bareiss) elimination, which stays in the polynomial ring via
exact divisions.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .poly import Polynomial, _cleared_terms, divide_exact
from .ratfunc import RationalFunction
from ..errors import PreconditionError, VariableMismatchError

SparseRow = Dict[int, Fraction]
IntRow = Dict[int, int]


# -- the elimination over Q ------------------------------------------------------


def _primitive(row: IntRow) -> IntRow:
    g = math.gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: IntRow, ref: IntRow, pc: int) -> IntRow:
    """Primitive multiple of b*row - a*ref, with a/b = row[pc]/ref[pc] in
    lowest terms: the row minus its multiple of ref that is zero at pc."""
    g = math.gcd(row[pc], ref[pc])
    a, b = row[pc] // g, ref[pc] // g
    out = {c: b * v for c, v in row.items()} if b != 1 else dict(row)
    for c, v in ref.items():
        s = out.get(c, 0) - a * v
        if s:
            out[c] = s
        else:
            del out[c]
    return _primitive(out)


def echelon_step(echelon: List[IntRow], pivots: List[int], row: SparseRow,
                 insert: bool = True) -> IntRow:
    """Remainder of a sparse row against an integer echelon, which it joins.

    ``echelon`` holds primitive integer rows, each the only one nonzero at
    its pivot column; ``pivots`` lists those columns in ascending order.  The
    row (int or Fraction entries) is cleared to a primitive integer row
    without its zero entries and reduced at each pivot column it meets, by
    ``_eliminate``; the remainder is empty exactly when the row lies in the
    span.  A row of ints needs no clearing, only the zero filter and the
    content.  With ``insert``, a nonzero remainder joins at its first column,
    where the other rows are then cleared; nothing else is changed in place.
    """
    if not all(type(v) is int for v in row.values()):
        row = _cleared_terms(row)[1]
    row = _primitive({c: v for c, v in row.items() if v})
    for pc, ref in zip(pivots, echelon):
        if row.get(pc):
            row = _eliminate(row, ref, pc)
    if row and insert:
        pc = min(row)
        for i, other in enumerate(echelon):
            if other.get(pc):
                echelon[i] = _eliminate(other, row, pc)
        pos = bisect.bisect(pivots, pc)
        pivots.insert(pos, pc)
        echelon.insert(pos, row)
    return row


def _echelon(rows: Iterable[SparseRow], stop: Optional[int] = None
             ) -> Tuple[List[IntRow], List[int]]:
    """Integer echelon of the rows, by ``echelon_step`` on each in turn.

    With ``stop``, the rows are read only until the echelon holds ``stop``
    pivots; the caller vouches that the rank is at most ``stop``, so every
    row left unread lies in the span and would leave the echelon unchanged.
    """
    echelon: List[IntRow] = []
    pivots: List[int] = []
    for row in rows:
        if len(pivots) == stop:
            break
        echelon_step(echelon, pivots, row)
    return echelon, pivots


def _sparse(vector: Sequence) -> SparseRow:
    return {c: v for c, v in enumerate(vector) if v}


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a dense matrix of ints or rationals: the pivot count of
    its integer echelon."""
    return len(_echelon(map(_sparse, rows))[1])


def transpose(columns: Iterable[Mapping[Hashable, Fraction]]) -> List[SparseRow]:
    """Sparse rows of the matrix whose j-th column maps row keys to entries,
    one row per key in the order the keys are first seen."""
    rows: Dict[Hashable, SparseRow] = {}
    for col, entries in enumerate(columns):
        for key, coeff in entries.items():
            rows.setdefault(key, {})[col] = coeff
    return list(rows.values())


# -- public nullspace / rank ---------------------------------------------------


def nullspace(rows: Sequence[SparseRow], ncols: int,
              known: Optional[SparseRow] = None) -> List[Tuple[Fraction, ...]]:
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
    (the kernel is then {0}).  ``known`` is an optional sparse kernel vector
    the caller already has: it is checked exactly, and a zero vector or one
    outside the kernel raises PreconditionError.  The rank is then at most
    ``ncols - 1``, and the echelon stops there (the kernel is then the line
    through ``known``).  Either way the echelon it stops at spans the rows,
    so the basis is the one the full elimination gives.
    """
    bound = ncols
    if known is not None:
        known = {c: v for c, v in known.items() if v}
        if not known:
            raise PreconditionError("the known kernel vector is zero")
        if not all(0 <= c < ncols for c in known):
            raise PreconditionError("the known vector has a column out of range")
        if any(sum(v * row.get(c, 0) for c, v in known.items()) for row in rows):
            raise PreconditionError("the known vector is not in the kernel")
        bound = ncols - 1
    last = ncols - 1
    reversed_rows = ({last - c: v for c, v in row.items() if v} for row in rows)
    # the stop can bind only when the rows outnumber it
    echelon, pivots = (_echelon(reversed_rows, bound) if len(rows) > bound
                       else _echelon(reversed_rows))
    pivot_set = set(pivots)
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if last - f not in pivot_set}
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    for pc, row in zip(pivots, echelon):
        p = row[pc]
        for c, v in row.items():
            if c != pc:
                basis[last - c][last - pc] = Fraction(-v, p)
    return [tuple(v) for v in basis.values()]


# -- fraction-free elimination over polynomial entries --------------------------


def poly_matrix_rank(matrix: List[List[Polynomial]]) -> int:
    """Rank of a matrix of polynomials over the rational function field,
    by Bareiss elimination with full pivoting (exact divisions only)."""
    if not matrix or not matrix[0]:
        return 0
    m = [row[:] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    steps = min(nrows, ncols)
    prev = None
    r = 0
    for k in range(steps):
        pr = pc = None
        for i in range(r, nrows):
            for j in range(r, ncols):
                if not m[i][j].is_zero:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        m[r], m[pr] = m[pr], m[r]
        if pc != r:
            for row in m:
                row[r], row[pc] = row[pc], row[r]
        pivot = m[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                t = pivot * m[i][j] - m[i][r] * m[r][j]
                m[i][j] = t if prev is None else divide_exact(t, prev)
            m[i][r] = Polynomial.zero(pivot.variables)
        prev = pivot
        r += 1
    return r


# -- Jacobian rank ---------------------------------------------------------------


_POINT_POOL = 1_000_003  # candidate coordinates per variable


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


def jacobian_rank(fs: Sequence[RationalFunction], seed: int = 0x5261) -> int:
    """Rank over the function field of the matrix of partial derivatives.

    In characteristic zero this equals the number of algebraically
    independent functions among ``fs``.  A seeded random evaluation serves as
    a lower-bound fast path (a special point can only drop the rank); the
    exact fraction-free elimination decides whenever the fast path is not
    already maximal.
    """
    fs = list(fs)
    if not fs:
        return 0
    variables = fs[0].variables
    for f in fs[1:]:
        if f.variables != variables:
            raise VariableMismatchError("functions over different variable tuples")
    n = len(variables)
    r = len(fs)
    cap = min(r, n)

    rng = random.Random(seed)
    for _ in range(4):
        point = _random_point(rng, n)
        try:
            # each row is scaled by a nonzero den^2, which keeps the rank
            rows = [jacobian_row(f, point) for f in fs]
        except ZeroDivisionError:
            continue
        if rank(rows) == cap:
            return cap
        break

    # exact: scale row i by den_i^2, entries stay polynomial
    matrix = []
    for f in fs:
        p, q = f.num, f.den
        matrix.append([p.derivative(j) * q - p * q.derivative(j) for j in range(n)])
    return poly_matrix_rank(matrix)
