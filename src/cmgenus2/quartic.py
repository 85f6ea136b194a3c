"""Exact arithmetic in the order O_K0 + eta*O_K0 of the quartic CM field.

Elements are integer vectors (x0, x1, x2, x3) on the fixed basis
{1, xi, eta, xi*eta}; every module in this package exchanges elements on
this basis only.  Multiplication reduces by

    xi^2  = D                    (D = 2, 3 mod 4)
    xi^2  = xi + (D - 1)/4       (D = 1 mod 4)
    eta^2 = -(a + b*xi)

and complex conjugation sends eta to -eta.

The closed-form norm components evaluated by ``norm_residual`` contain
denominators 4 and 8 in the D = 1 (mod 4) case, so they are computed as
8 times the stated quantities in pure integers and the scale is removed
afterwards; exact multiplication in O_K0 remains the arbiter and any
disagreement raises OracleMismatch (a bug, never bad input).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmfield import FieldCase, ValidatedField


class OracleMismatch(RuntimeError):
    """A closed-form value contradicts exact ring arithmetic."""


@dataclass(frozen=True)
class QuarticInt:
    """x0 + x1*xi + (x2 + x3*xi)*eta with integer coordinates."""

    x0: int
    x1: int
    x2: int
    x3: int

    def coords(self) -> tuple[int, int, int, int]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __add__(self, other: "QuarticInt") -> "QuarticInt":
        return QuarticInt(
            self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3
        )

    def __sub__(self, other: "QuarticInt") -> "QuarticInt":
        return QuarticInt(
            self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3
        )


ONE = QuarticInt(1, 0, 0, 0)


def _k0_mul(p: tuple[int, int], q: tuple[int, int], field: ValidatedField) -> tuple[int, int]:
    """Product of p0 + p1*w and q0 + q1*w in O_K0, w the basis generator."""
    p0, p1 = p
    q0, q1 = q
    if field.case is FieldCase.CASE23:
        return (p0 * q0 + p1 * q1 * field.D, p0 * q1 + p1 * q0)
    k = (field.D - 1) // 4
    return (p0 * q0 + p1 * q1 * k, p0 * q1 + p1 * q0 + p1 * q1)


def mul(u: QuarticInt, v: QuarticInt, field: ValidatedField) -> QuarticInt:
    """Exact ring product.

    Writing u = A + B*eta and v = C + E*eta with A, B, C, E in O_K0:
    u*v = (A*C - B*E*(a + b*xi)) + (A*E + B*C)*eta.
    """
    A, B = (u.x0, u.x1), (u.x2, u.x3)
    C, E = (v.x0, v.x1), (v.x2, v.x3)
    ac = _k0_mul(A, C, field)
    be = _k0_mul(B, E, field)
    ae = _k0_mul(A, E, field)
    bc = _k0_mul(B, C, field)
    be_eta2 = _k0_mul(be, (-field.a, -field.b), field)
    return QuarticInt(ac[0] + be_eta2[0], ac[1] + be_eta2[1], ae[0] + bc[0], ae[1] + bc[1])


def conj_complex(u: QuarticInt) -> QuarticInt:
    """Complex conjugation: eta -> -eta."""
    return QuarticInt(u.x0, u.x1, -u.x2, -u.x3)


def mult_matrix(u: QuarticInt, field: ValidatedField) -> list[list[int]]:
    """4x4 integer matrix of multiplication by u on {1, xi, eta, xi*eta}.

    Column j holds the coordinates of u * basis_j, so the map is unital
    and multiplicative: mult_matrix(u*v) = mult_matrix(u) @ mult_matrix(v).
    """
    cols = []
    for e in (QuarticInt(1, 0, 0, 0), QuarticInt(0, 1, 0, 0),
              QuarticInt(0, 0, 1, 0), QuarticInt(0, 0, 0, 1)):
        cols.append(mul(u, e, field).coords())
    return [[cols[j][i] for j in range(4)] for i in range(4)]


_PERMS_4: list[tuple[tuple[int, ...], int]] = []


def _init_perms() -> None:
    import itertools

    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        _PERMS_4.append((perm, -1 if inv % 2 else 1))


_init_perms()


def det4(m: list[list[int]]) -> int:
    """Exact determinant of a 4x4 integer matrix (signed Leibniz expansion)."""
    total = 0
    for perm, sign in _PERMS_4:
        term = sign
        for i in range(4):
            term *= m[i][perm[i]]
        total += term
    return total


def char_poly_oracle(u: QuarticInt, field: ValidatedField) -> list[int]:
    """Characteristic polynomial of mult_matrix(u), exactly.

    Returns the five coefficients [1, t3, t2, t1, t0] of the monic quartic
    det(X*I - M), computed by expanding the determinant over all 24
    permutations with degree-1 integer polynomial entries.  Slow and
    obviously correct: this is the ground truth the closed forms are
    checked against.
    """
    m = mult_matrix(u, field)
    # entry (i, j) of X*I - M as a degree-1 coefficient pair (const, X)
    entry = [[(-m[i][j], 1 if i == j else 0) for j in range(4)] for i in range(4)]
    acc = [0] * 5  # acc[k] = coefficient of X^k
    for perm, sign in _PERMS_4:
        prod = [sign, 0, 0, 0, 0]
        for i in range(4):
            c0, c1 = entry[i][perm[i]]
            nxt = [0] * 5
            for k in range(5):
                if prod[k]:
                    nxt[k] += prod[k] * c0
                    if k + 1 < 5:
                        nxt[k + 1] += prod[k] * c1
            prod = nxt
        for k in range(5):
            acc[k] += prod[k]
    return [acc[4], acc[3], acc[2], acc[1], acc[0]]


def norm_residual(
    c: tuple[int, int, int, int], field: ValidatedField
) -> tuple[int, int]:
    """Evaluate the closed-form components of omega * conj(omega).

    Returns (p_candidate, residual) where the product equals
    p_candidate + residual*xi; the element has rational complex norm
    exactly when residual is zero.  For D = 1 (mod 4) the closed forms
    are evaluated at scale 8 in integers (the sqrt(D)-component is
    residual/2 there, zero iff residual is).  The result is cross-checked
    against the exact product A^2 + B^2*(a + b*xi) in O_K0, with
    omega = A + B*eta (the eta-part of omega * conj(omega) is identically
    0); disagreement means a transcribed formula is wrong and raises
    OracleMismatch.
    """
    c1, c2, c3, c4 = c
    D, a, b = field.D, field.a, field.b
    if field.case is FieldCase.CASE23:
        p_part = c1 * c1 + c2 * c2 * D + c3 * c3 * a + c4 * c4 * a * D + 2 * c3 * c4 * b * D
        z_part = 2 * c1 * c2 + c3 * c3 * b + c4 * c4 * b * D + 2 * c3 * c4 * a
    else:
        p8 = (
            8 * c1 * c1
            + 8 * c1 * c2
            + 2 * c2 * c2 * (1 + D)
            + c3 * c3 * (8 * a + 4 * b)
            + c3 * c4 * (4 * b * (D + 1) + 8 * a)
            + c4 * c4 * (b * (3 * D + 1) + 2 * a * (D + 1))
        )
        z8 = (
            8 * c1 * c2
            + 4 * c2 * c2
            + 4 * c3 * c3 * b
            + 8 * c3 * c4 * (a + b)
            + c4 * c4 * (b * (D + 3) + 4 * a)
        )
        if z8 % 4 or (p8 - z8) % 8:
            raise OracleMismatch(f"scaled norm components not integral at {c}")
        z_part = z8 // 4
        p_part = (p8 - z8) // 8

    aa = _k0_mul((c1, c2), (c1, c2), field)
    bb_eta2 = _k0_mul(_k0_mul((c3, c4), (c3, c4), field), (a, b), field)
    prod = (aa[0] + bb_eta2[0], aa[1] + bb_eta2[1])
    if prod != (p_part, z_part):
        raise OracleMismatch(f"closed form {(p_part, z_part)} != ring product {prod} at {c}")
    return p_part, z_part
