"""Exact arithmetic in the order O_K0 + eta*O_K0 of the quartic CM field.

Elements are integer 4-tuples (x0, x1, x2, x3) on the fixed basis
{1, xi, eta, xi*eta}; every module in this package exchanges elements on
this basis only, and ``QuarticInt`` names the coordinates of such a
tuple.  Multiplication reduces by

    xi^2  = t*xi + n             ((t, n) = field.xi_sq, see ``cmfield``)
    eta^2 = -(a + b*xi)

and complex conjugation sends eta to -eta.

For omega = A + B*eta with A, B in O_K0, omega * conj(omega) is
A^2 + B^2*(a + b*xi); ``eta_part_norm`` is the one place that spells out
the second term, and ``norm_residual`` and the prime search read it.
Likewise ``det4`` is the one determinant expansion, read by
``char_poly_oracle`` and by ``frobenius.group_order_oracle``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cmfield import ValidatedField


class OracleMismatch(RuntimeError):
    """A closed-form value contradicts an independent oracle."""


class QuarticInt(NamedTuple):
    """x0 + x1*xi + (x2 + x3*xi)*eta with integer coordinates."""

    x0: int
    x1: int
    x2: int
    x3: int


def _k0_mul(p: tuple[int, int], q: tuple[int, int], field: ValidatedField) -> tuple[int, int]:
    """Product of p0 + p1*xi and q0 + q1*xi in O_K0."""
    p0, p1 = p
    q0, q1 = q
    t, n = field.xi_sq
    pq = p1 * q1
    return (p0 * q0 + n * pq, p0 * q1 + p1 * q0 + t * pq)


def mul(
    u: tuple[int, int, int, int], v: tuple[int, int, int, int], field: ValidatedField
) -> QuarticInt:
    """Exact ring product.

    Writing u = A + B*eta and v = C + E*eta with A, B, C, E in O_K0:
    u*v = (A*C - B*E*(a + b*xi)) + (A*E + B*C)*eta.
    """
    (u0, u1, u2, u3), (v0, v1, v2, v3) = u, v
    A, B, C, E = (u0, u1), (u2, u3), (v0, v1), (v2, v3)
    ac = _k0_mul(A, C, field)
    be = _k0_mul(B, E, field)
    ae = _k0_mul(A, E, field)
    bc = _k0_mul(B, C, field)
    be_eta2 = _k0_mul(be, (-field.a, -field.b), field)
    return QuarticInt(ac[0] + be_eta2[0], ac[1] + be_eta2[1], ae[0] + bc[0], ae[1] + bc[1])


def conj_complex(u: tuple[int, int, int, int]) -> QuarticInt:
    """Complex conjugation: eta -> -eta."""
    x0, x1, x2, x3 = u
    return QuarticInt(x0, x1, -x2, -x3)


def mult_matrix(u: tuple[int, int, int, int], field: ValidatedField) -> list[list[int]]:
    """4x4 integer matrix of multiplication by u on {1, xi, eta, xi*eta}.

    Column j holds the coordinates of u * basis_j, so the map is unital
    and multiplicative: mult_matrix(u*v) = mult_matrix(u) @ mult_matrix(v).
    """
    cols = [mul(u, e, field) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    return [list(row) for row in zip(*cols)]


# every permutation of range(4) with its sign, for the Leibniz expansion
_PERMS_4 = tuple(
    (perm, (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)))
    for perm in itertools.permutations(range(4))
)


def det4(m: list[list[int]]) -> int:
    """Exact determinant of a 4x4 integer matrix (signed Leibniz expansion)."""
    total = 0
    for perm, sign in _PERMS_4:
        term = sign
        for i in range(4):
            term *= m[i][perm[i]]
        total += term
    return total


def char_poly_oracle(u: tuple[int, int, int, int], field: ValidatedField) -> list[int]:
    """Characteristic polynomial of mult_matrix(u), exactly.

    Returns [1, t3, t2, t1, t0] for P(X) = det(X*I - M), the ground truth
    the closed forms are checked against: t3 = -trace(M), t0 = P(0), and
    the halves of P(1) +- P(-1) are 1 + t2 + t0 and t3 + t1 (both exact).
    """
    m = mult_matrix(u, field)

    def p_at(x: int) -> int:
        return det4([[(x if i == j else 0) - m[i][j] for j in range(4)] for i in range(4)])

    t3 = -sum(m[i][i] for i in range(4))
    t0, p1, pm1 = p_at(0), p_at(1), p_at(-1)
    return [1, t3, (p1 + pm1) // 2 - 1 - t0, (p1 - pm1) // 2 - t3, t0]


def eta_part_norm(c3: int, c4: int, field: ValidatedField) -> tuple[int, int]:
    """B^2*(a + b*xi) in O_K0 for B = c3 + c4*xi, as a pair on {1, xi}:
    the eta-part's share of omega * conj(omega)."""
    b = (c3, c4)
    return _k0_mul(_k0_mul(b, b, field), (field.a, field.b), field)


def norm_residual(
    c: tuple[int, int, int, int], field: ValidatedField
) -> tuple[int, int]:
    """The components of omega * conj(omega) = A^2 + B^2*(a + b*xi).

    Returns (p_candidate, residual) where, for omega = A + B*eta, the
    product equals p_candidate + residual*xi (its eta-part is identically
    0); the element has rational complex norm exactly when residual is
    zero.
    """
    c1, c2, c3, c4 = c
    aa = _k0_mul((c1, c2), (c1, c2), field)
    bb = eta_part_norm(c3, c4, field)
    return aa[0] + bb[0], aa[1] + bb[1]
