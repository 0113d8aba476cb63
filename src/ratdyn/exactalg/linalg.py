"""Exact linear algebra over Q and over polynomial entries.

Nullspaces over Q are computed by Gaussian elimination with Fraction
arithmetic; for larger systems a modular fast path runs the elimination mod a
fixed word-sized prime with numpy, reconstructs rational entries, and then
certifies the result by exact re-multiplication (reconstruction that fails to
verify falls back to the pure Fraction path, so results are always exact).

Ranks of matrices with polynomial entries use fraction-free (Bareiss)
elimination, which stays in the polynomial ring via exact divisions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .poly import Polynomial, divide_exact
from .ratfunc import RationalFunction
from ..errors import VariableMismatchError

SparseRow = Dict[int, Fraction]

# Word-sized primes for the modular path; products keep CRT moduli < 2**124.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)

_FRACTION_CUTOFF = 2_000  # rows*cols below this: go straight to Fractions


# -- dense Fraction elimination ----------------------------------------------


def rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form (copy) and pivot column list."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rref_sparse(rows: Sequence[SparseRow]) -> Tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form for dict-backed rows (column -> coefficient).

    Exact over Q; suited to nearly-diagonal systems where dense elimination
    would touch mostly zeros.  Returns the nonzero reduced rows (pivot
    coefficient 1) and their pivot columns, in ascending pivot order.
    """
    reduced: List[SparseRow] = []
    pivots: List[int] = []

    def reduce_row(row: SparseRow) -> SparseRow:
        row = dict(row)
        for pc, ref in zip(pivots, reduced):
            coeff = row.get(pc)
            if coeff:
                for c, v in ref.items():
                    s = row.get(c, Fraction(0)) - coeff * v
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        return row

    for raw in rows:
        row = reduce_row(raw)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: v * inv for c, v in row.items()}
        for i, (opc, other) in enumerate(zip(pivots, reduced)):
            coeff = other.get(pc)
            if coeff:
                merged = dict(other)
                for c, v in row.items():
                    s = merged.get(c, Fraction(0)) - coeff * v
                    if s:
                        merged[c] = s
                    else:
                        merged.pop(c, None)
                reduced[i] = merged
        pos = 0
        while pos < len(pivots) and pivots[pos] < pc:
            pos += 1
        pivots.insert(pos, pc)
        reduced.insert(pos, row)
    return reduced, pivots


def _kernel_from_rref(m, pivots, ncols) -> List[Tuple[Fraction, ...]]:
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][f]
        basis.append(tuple(v))
    return basis


def _canonical_basis(vectors: List[Sequence[Fraction]], ncols: int):
    """RREF of the row space: the unique canonical basis of the span."""
    if not vectors:
        return []
    m, pivots = rref([list(v) for v in vectors])
    return [tuple(m[i]) for i in range(len(pivots))]


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
    dense = [[Fraction(0)] * ncols for _ in live]
    for i, row in enumerate(live):
        for c, val in row.items():
            dense[i][c] = val
    m, pivots = rref(dense)
    return _canonical_basis(_kernel_from_rref(m, pivots, ncols), ncols)


def in_span(vectors: List[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Whether target lies in the Q-span of the given vectors."""
    if not any(target):
        return True
    if not vectors:
        return False
    base = [list(v) for v in vectors]
    _, piv_without = rref(base)
    _, piv_with = rref(base + [list(target)])
    return len(piv_with) == len(piv_without)


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
        _, pivots = rref(rows)
        if len(pivots) == cap:
            return cap
        break

    # exact: scale row i by den_i^2, entries stay polynomial
    matrix = []
    for f in fs:
        p, q = f.num, f.den
        matrix.append([p.derivative(j) * q - p * q.derivative(j) for j in range(n)])
    return poly_matrix_rank(matrix)
