"""Frobenius characteristic polynomial and Jacobian group order.

For omega = c1 + c2*xi + (c3 + c4*xi)*eta with rational complex norm
p = omega * conj(omega), the degree-4 characteristic polynomial of
multiplication by omega is, in closed form,

    X^4 - 4*c1*X^3 + (2p + 4(c1^2 - c2^2*D))*X^2 - 4*c1*p*X + p^2
        (D = 2, 3 mod 4)
    X^4 - (4*c1 + 2*c2)*X^3 + (2p + (2*c1 + c2)^2 - c2^2*D)*X^2
        - (4*c1 + 2*c2)*p*X + p^2                     (D = 1 mod 4)

The group of rational points of a Jacobian with this Frobenius has order
N = P(1).  The element and its negative yield the same prime p but the
quadratic twist pair of orders {P(1), P(-1)}; which twist a concrete
curve realizes is decided by point counting, outside this package's
scope, so both orders are exposed.

The coefficients are the plain tuple (1, t3, t2, t3*p, p^2), so the Weil
symmetry holds by construction and N = sum(coeffs).  Each closed form is
checked against the multiplication-matrix oracle on demand.
"""

from __future__ import annotations

from .cmfield import FieldCase, ValidatedField
from .quartic import ONE, OracleMismatch, QuarticInt, char_poly_oracle, det4, mult_matrix


def closed_form_char_poly(
    field: ValidatedField, c: tuple[int, int, int, int], p: int
) -> tuple[int, int, int, int, int]:
    """Coefficients of the quartic for coordinates c with rational norm p."""
    c1, c2 = c[0], c[1]
    if field.case is FieldCase.CASE23:
        t3 = -4 * c1
        t2 = 2 * p + 4 * (c1 * c1 - c2 * c2 * field.D)
    else:
        t3 = -(4 * c1 + 2 * c2)
        t2 = 2 * p + (2 * c1 + c2) ** 2 - c2 * c2 * field.D
    return (1, t3, t2, t3 * p, p * p)


def char_poly(cert, check_oracle: bool = False) -> tuple[int, int, int, int, int]:
    """Coefficients (1, t3, t2, t1, t0) for a certificate, optionally matrix-verified.

    With check_oracle the closed form is compared against the exact
    characteristic polynomial of the multiplication matrix and N = P(1)
    against the determinant of multiplication by 1 - omega; OracleMismatch
    on any difference.
    """
    coeffs = closed_form_char_poly(cert.field, cert.c, cert.p)
    if check_oracle:
        oracle = char_poly_oracle(QuarticInt(*cert.c), cert.field)
        if list(coeffs) != oracle:
            raise OracleMismatch(f"closed form {coeffs} != matrix oracle {oracle}")
        if sum(coeffs) != group_order_oracle(cert.field, cert.c):
            raise OracleMismatch("P(1) disagrees with det(mult by 1 - omega)")
    return coeffs


def twist_order(coeffs: tuple[int, int, int, int, int]) -> int:
    """P(-1), the group order of the quadratic twist (Frobenius -omega)."""
    one, t3, t2, t1, t0 = coeffs
    return one - t3 + t2 - t1 + t0


def group_order_oracle(field: ValidatedField, c: tuple[int, int, int, int]) -> int:
    """Independent order computation: det of multiplication by 1 - omega."""
    return det4(mult_matrix(ONE - QuarticInt(*c), field))


def hasse_weil_check(N: int, p: int) -> bool:
    """Exact test of (sqrt(p) - 1)^4 <= N <= (sqrt(p) + 1)^4.

    (sqrt(p) +- 1)^4 = p^2 + 6p + 1 +- 4*sqrt(p)*(p + 1), so each side
    reduces to comparing an integer against 4*sqrt(p)*(p + 1), which is
    decided exactly by squaring.  No rounding, hence no false results on
    either side.
    """
    if p < 3:
        raise ValueError("requires p >= 3")
    if N <= 0:
        return False
    core = p * p + 6 * p + 1
    wing_sq = 16 * p * (p + 1) ** 2
    upper = N - core  # need upper <= 4 sqrt(p) (p+1)
    if upper > 0 and upper * upper > wing_sq:
        return False
    lower = core - N  # need lower <= 4 sqrt(p) (p+1)
    if lower > 0 and lower * lower > wing_sq:
        return False
    return True
