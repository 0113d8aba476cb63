"""Exact linear algebra over Q and over polynomial entries.

All elimination over Q is ``rref_sparse``, built on the one reduction step
``reduce_row``: ranks, span membership, nullspaces and their canonical bases
all read the echelon it returns.  Two eliminations stay separate because
they work in other rings:

  * ``_rref_mod_p`` runs the modular fast path of ``nullspace`` with numpy
    arithmetic mod a fixed word-sized prime; rational entries are then
    reconstructed and certified by exact re-multiplication (a result that
    fails to verify falls back to the Fraction path, so results are always
    exact);
  * ``poly_matrix_rank`` uses fraction-free (Bareiss) elimination, which
    stays in the polynomial ring via exact divisions.

``translation.ExponentMatrix.det`` keeps its own elimination too, since it
needs the product of the pivots, which an echelon does not record.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .poly import Polynomial, divide_exact
from .ratfunc import RationalFunction
from ..errors import VariableMismatchError

SparseRow = Dict[int, Fraction]

# Word-sized primes for the modular path; products keep CRT moduli < 2**124.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)

_FRACTION_CUTOFF = 2_000  # rows*cols below this: go straight to Fractions


# -- the Fraction elimination ----------------------------------------------------


def reduce_row(row: SparseRow, reduced: Sequence[SparseRow],
               pivots: Sequence[int]) -> SparseRow:
    """Remainder (copy) of a sparse row against an echelon from rref_sparse.

    Each reduced row must have coefficient 1 at its pivot column and 0 at
    every other listed pivot column; the remainder is then zero at all of
    them, and it is empty exactly when the row lies in the echelon's span.
    """
    row = dict(row)
    for pc, ref in zip(pivots, reduced):
        coeff = row.get(pc)
        if coeff:
            for c, v in ref.items():
                s = row.get(c, 0) - coeff * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return row


def rref_sparse(rows: Sequence[SparseRow]) -> Tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form for dict-backed rows (column -> coefficient).

    Exact over Q and the only elimination over Q here: each row is reduced
    against the echelon so far, scaled to a leading 1, and then cleared from
    the pivot column of the earlier rows, both steps by ``reduce_row``.
    Returns the nonzero reduced rows (pivot coefficient 1) and their pivot
    columns, in ascending pivot order.
    """
    reduced: List[SparseRow] = []
    pivots: List[int] = []
    for raw in rows:
        row = reduce_row(raw, reduced, pivots)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: v * inv for c, v in row.items()}
        for i, other in enumerate(reduced):
            if other.get(pc):
                reduced[i] = reduce_row(other, [row], [pc])
        pos = bisect.bisect(pivots, pc)
        pivots.insert(pos, pc)
        reduced.insert(pos, row)
    return reduced, pivots


def _sparse(vector: Sequence) -> SparseRow:
    return {c: Fraction(v) for c, v in enumerate(vector) if v}


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a dense matrix of rationals."""
    return len(rref_sparse([_sparse(r) for r in rows])[1])


def transpose(columns: Iterable[Mapping[Hashable, Fraction]]) -> List[SparseRow]:
    """Sparse rows of the matrix whose j-th column maps row keys to entries,
    one row per key in the order the keys are first seen."""
    rows: Dict[Hashable, SparseRow] = {}
    for col, entries in enumerate(columns):
        for key, coeff in entries.items():
            rows.setdefault(key, {})[col] = coeff
    return list(rows.values())


def _canonical_basis(vectors: List[Sequence[Fraction]], ncols: int):
    """RREF of the row space: the unique canonical basis of the span."""
    reduced, _ = rref_sparse([_sparse(v) for v in vectors])
    return [tuple(row.get(c, Fraction(0)) for c in range(ncols)) for row in reduced]


# -- modular fast path ----------------------------------------------------------


def _dense_mod_p(rows: List[SparseRow], ncols: int, p: int) -> Optional[np.ndarray]:
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, val in row.items():
            if val.denominator % p == 0:
                return None
            m[i, c] = val.numerator % p * pow(val.denominator % p, p - 2, p) % p
    return m


def _rref_mod_p(m: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        factors = m[:, c].copy()
        factors[r] = 0
        m -= np.outer(factors, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    inv = pow(m1 % m2, m2 - 2, m2)  # m2 prime
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


def _rat_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """Rational number with numerator and denominator below sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or math.gcd(r1, abs(s1)) != 1 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _verify_kernel(rows: List[SparseRow], vec: Sequence[Fraction]) -> bool:
    for row in rows:
        s = Fraction(0)
        for c, val in row.items():
            if vec[c]:
                s += val * vec[c]
        if s:
            return False
    return True


def _nullspace_modular(rows: List[SparseRow], ncols: int):
    residues = None   # list of (vector of residues, modulus) merged via CRT
    modulus = 1
    pivots_ref = None
    for p in _PRIMES:
        dense = _dense_mod_p(rows, ncols, p)
        if dense is None:
            continue
        m, pivots = _rref_mod_p(dense, p)
        free = [c for c in range(ncols) if c not in pivots]
        kern = []
        for f in free:
            v = [0] * ncols
            v[f] = 1
            for i, pc in enumerate(pivots):
                v[pc] = int(-m[i, f]) % p
            kern.append(v)
        if pivots_ref is None:
            pivots_ref = pivots
            residues = kern
            modulus = p
        elif pivots == pivots_ref:
            residues = [[_crt_pair(a, modulus, b, p) for a, b in zip(va, vb)]
                        for va, vb in zip(residues, kern)]
            modulus *= p
        else:
            return None  # pivot disagreement: primes unreliable here
        # attempt reconstruction at the current modulus
        basis = []
        ok = True
        for v in residues:
            vec = []
            for a in v:
                q = _rat_reconstruct(a, modulus)
                if q is None:
                    ok = False
                    break
                vec.append(q)
            if not ok:
                break
            basis.append(tuple(vec))
        if ok and all(_verify_kernel(rows, v) for v in basis):
            # standard-form vectors are independent; count matches the mod-p
            # nullity which bounds the exact nullity from above, so this is
            # a certified exact kernel basis.
            return basis
    return None


# -- public nullspace / rank ---------------------------------------------------


def nullspace(rows: Sequence[SparseRow], ncols: int) -> List[Tuple[Fraction, ...]]:
    """Canonical exact basis of {v : A v = 0} for a sparse rational matrix.

    Rows are dicts column -> coefficient.  The returned basis is the reduced
    row echelon form of the kernel, which is unique for the subspace, so the
    output does not depend on which internal path produced it.
    """
    live = [r for r in rows if r]
    if ncols == 0:
        return []
    if not live:
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(ncols))
                for i in range(ncols)]
    if len(live) * ncols > _FRACTION_CUTOFF:
        basis = _nullspace_modular(live, ncols)
        if basis is not None:
            return _canonical_basis(basis, ncols)
    reduced, pivots = rref_sparse(live)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            v[pc] = -row.get(f, 0)
        basis.append(tuple(v))
    return _canonical_basis(basis, ncols)


def in_span(vectors: List[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Whether target lies in the Q-span of the given vectors."""
    reduced, pivots = rref_sparse([_sparse(v) for v in vectors])
    return not reduce_row(_sparse(target), reduced, pivots)


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


def _random_point(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    half = _POINT_POOL // 2
    return tuple(Fraction(rng.randint(-half, half)) for _ in range(n))


def jacobian_row(f: RationalFunction, point: Sequence[Fraction]) -> List[Fraction]:
    """Gradient of f at the point, scaled by den(point)^2 (a nonzero factor).

    Raises ZeroDivisionError when the point is a pole of f.
    """
    qv = f.den.evaluate(point)
    if qv == 0:
        raise ZeroDivisionError("evaluation at a pole")
    pv = f.num.evaluate(point)
    return [f.num.derivative(j).evaluate(point) * qv
            - pv * f.den.derivative(j).evaluate(point)
            for j in range(len(point))]


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
