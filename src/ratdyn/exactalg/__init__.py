"""Exact arithmetic over Q: polynomials, rational functions, linear algebra."""

from .poly import (Exponent, Polynomial, basis_exponents, coprime_factor_basis,
                   divide_exact, grlex_key, monomials_upto, poly_gcd, poly_lcm,
                   primitive_part, squarefree_chain, squarefree_part,
                   try_divide)
from .ratfunc import (PowerTables, RationalFunction, clear_denominators,
                      cleared_monomial_images, ratfunc_normalize, substitute)
from .linalg import (JacobianSelector, echelon_step, jacobian_rank, jacobian_row,
                     nullspace, poly_matrix_rank, rank, transpose)

__all__ = [
    "Exponent", "JacobianSelector", "Polynomial", "PowerTables", "RationalFunction",
    "basis_exponents", "clear_denominators", "cleared_monomial_images",
    "coprime_factor_basis", "divide_exact", "echelon_step", "grlex_key",
    "jacobian_rank", "jacobian_row", "monomials_upto", "nullspace", "poly_gcd",
    "poly_lcm", "poly_matrix_rank", "primitive_part", "rank",
    "ratfunc_normalize", "squarefree_chain", "squarefree_part", "substitute",
    "transpose", "try_divide",
]
