"""Frobenius characteristic polynomial and Jacobian group order.

For omega = c1 + c2*xi + (c3 + c4*xi)*eta with rational complex norm
p = omega * conj(omega), the degree-4 characteristic polynomial of
multiplication by omega = A + B*eta is the norm from K0 to Q of
(X - omega)(X - conj(omega)) = X^2 - 2A*X + p:

    X^4 - 2*Tr(A)*X^3 + (2p + 4*N(A))*X^2 - 2*Tr(A)*p*X + p^2

with Tr and N taken from K0 to Q and A = c1 + c2*xi.

The group of rational points of a Jacobian with this Frobenius has order
N = P(1).  The element and its negative yield the same prime p but the
quadratic twist pair of orders {P(1), P(-1)}; which twist a concrete
curve realizes is decided by point counting, outside this package's
scope, so both orders are exposed.

The coefficients are the plain tuple (1, t3, t2, t3*p, p^2), so the Weil
symmetry holds by construction and N = sum(coeffs).  The closed form is
checked against the multiplication-matrix oracle on every call.
"""

from __future__ import annotations

from .cmfield import ValidatedField, radicand_norm
from .quartic import OracleMismatch, char_poly_oracle, det4, mult_matrix


def closed_form_char_poly(
    field: ValidatedField, c: tuple[int, int, int, int], p: int
) -> tuple[int, int, int, int, int]:
    """Coefficients of the quartic for coordinates c with rational norm p."""
    c1, c2 = c[0], c[1]
    t3 = -2 * (2 * c1 + field.xi_sq[0] * c2)  # -2*Tr(A), as Tr(xi) = t
    return (1, t3, 2 * p + 4 * radicand_norm(field.D, c1, c2), t3 * p, p * p)


def char_poly(cert) -> tuple[int, int, int, int, int]:
    """Coefficients (1, t3, t2, t1, t0) for a certificate, matrix-verified.

    The closed form is compared once, as a list, against the exact
    characteristic polynomial of the multiplication matrix M; the
    oracle reads P(1) = det(I - M) itself, so that comparison covers
    N = P(1).  OracleMismatch on any difference.
    """
    coeffs = closed_form_char_poly(cert.field, cert.c, cert.p)
    oracle = char_poly_oracle(cert.c, cert.field)
    if list(coeffs) != oracle:
        raise OracleMismatch(f"closed form {coeffs} != matrix oracle {oracle}")
    return coeffs


def twist_order(coeffs: tuple[int, int, int, int, int]) -> int:
    """P(-1), the group order of the quadratic twist (Frobenius -omega)."""
    one, t3, t2, t1, t0 = coeffs
    return one - t3 + t2 - t1 + t0


def group_order_oracle(field: ValidatedField, c: tuple[int, int, int, int]) -> int:
    """The tests' independent order: det of multiplication by 1 - omega."""
    c1, c2, c3, c4 = c
    return det4(mult_matrix((1 - c1, -c2, -c3, -c4), field))


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
