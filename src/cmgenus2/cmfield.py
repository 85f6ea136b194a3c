"""Quartic CM field parameters, validation, primitivity, and the bound Q.

The field is K = Q(i*sqrt(a + b*xi)) over the real quadratic subfield
K0 = Q(sqrt(D)), where xi = (1 + sqrt(D))/2 when D = 1 (mod 4) and
xi = sqrt(D) otherwise.  All parameters (D, a, b) are integers with
(a, b) expressed on the xi-basis, and a + b*xi must be totally positive.

K is primitive (its genus-2 CM Jacobians are irreducible) unless it is
Galois biquadratic, which happens exactly when the relative norm of
a + b*xi down to Q is a perfect square.  That norm is also one of the
ingredients of the bound Q on odd primes that can divide the second
invariant factor of the Jacobian group.

Only class-number-one real subfields are supported: ``validate`` tests D
by membership in the explicit allowlist ``SUPPORTED_D`` and nothing else.
Every allowlisted D is squarefree, at least 2 and not 0 (mod 4), so no
separate residue, range or squarefree check is needed.

The two cases differ in one fact: xi^2 = t*xi + n with (t, n) = (0, D)
or (1, (D - 1)/4), which ``xi_square`` decides from D.  ``ValidatedField``
is the one field record: D, a, b, Q and the primitivity flag, with
``validate`` its only constructor; it carries (t, n) as ``xi_sq`` for the
ring arithmetic.  The helpers on a raw triple (``radicand_norm``,
``is_primitive``, ``compute_Q``) and ``basis_convert`` take plain
integers; ``basis_convert`` on (a, b, 0, 0) moves field parameters
between the bases.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

# real quadratic fields Q(sqrt(D)) of class number one used here
SUPPORTED_D = frozenset({2, 3, 5, 6, 7, 11, 13, 17, 19, 21, 29, 33, 37, 41, 57, 73})


class FieldError(ValueError):
    """Invalid CM field parameters."""


class NotTotallyPositive(FieldError):
    """a + b*xi is not positive under both real embeddings."""


class UnsupportedD(FieldError):
    """D is not on the class-number-one allowlist."""


class NotPrimitive(FieldError):
    """K is Galois biquadratic; its CM Jacobians are reducible."""


class NonIntegralConversion(FieldError):
    """Coordinate change would need half-integers."""


class Basis(enum.Enum):
    XI = "xi"
    SQRT_D = "sqrtD"


@dataclass(frozen=True)
class ValidatedField:
    D: int
    a: int
    b: int
    Q: int
    primitive: bool
    # (t, n) of xi^2 = t*xi + n, derived from D once; the ring arithmetic reads it per product
    xi_sq: tuple[int, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi_sq", xi_square(self.D))


def xi_square(D: int) -> tuple[int, int]:
    """(t, n) with xi^2 = t*xi + n in O_K0."""
    return (1, (D - 1) // 4) if D % 4 == 1 else (0, D)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def validate(D: int, a: int, b: int) -> ValidatedField:
    """Check all field invariants and attach Q and the primitivity flag.

    Raises a FieldError subclass on structurally invalid input.  A valid
    but non-primitive field is returned with primitive=False; rejecting
    those is the caller's policy (generation refuses them, analysis only
    warns).
    """
    if D not in SUPPORTED_D:
        raise UnsupportedD(f"D={D} is not on the class-number-one allowlist {sorted(SUPPORTED_D)}")

    # both real embeddings are positive iff the trace and the norm to Q are
    if 2 * a + xi_square(D)[0] * b <= 0 or radicand_norm(D, a, b) <= 0:
        raise NotTotallyPositive(f"a + b*xi with (D,a,b)=({D},{a},{b}) is not totally positive")

    return ValidatedField(D, a, b, compute_Q(D, a, b), is_primitive(D, a, b))


def require_primitive(field: ValidatedField) -> ValidatedField:
    if not field.primitive:
        raise NotPrimitive(
            f"(D,a,b)=({field.D},{field.a},{field.b}) is biquadratic: "
            f"norm {radicand_norm(field.D, field.a, field.b)} is a perfect square"
        )
    return field


def radicand_norm(D: int, a: int, b: int) -> int:
    """Norm of a + b*xi from K0 down to Q: a^2 + t*a*b - n*b^2."""
    t, n = xi_square(D)
    return a * a + t * a * b - n * b * b


def is_primitive(D: int, a: int, b: int) -> bool:
    """True unless K is Galois with group Z/2 x Z/2.

    K is biquadratic exactly when the norm of -eta^2 = a + b*xi to Q is a
    rational square; the non-square cases (cyclic Galois or non-Galois)
    are the primitive ones.
    """
    return not _is_square(radicand_norm(D, a, b))


def compute_Q(D: int, a: int, b: int) -> int:
    """The largest odd prime bound from the field constants."""
    if D % 4 != 1:
        return max(a, D, radicand_norm(D, a, b))
    return max(a, D, 4 * radicand_norm(D, a, b), a * D + 2 * b * (D - 1))


def basis_convert(
    coeffs: tuple[int, int, int, int],
    frm: Basis,
    to: Basis,
    D: int,
) -> tuple[int, int, int, int]:
    """Convert element coordinates between the xi- and sqrt(D)-bases.

    Coordinates are (c1, c2, c3, c4) for c1 + c2*w + (c3 + c4*w)*eta with
    w the basis generator.  For D = 2, 3 (mod 4) the two bases coincide.
    For D = 1 (mod 4): u1 + u2*sqrt(D) = (u1 - u2) + 2*u2*xi, applied to
    the real and eta parts separately; the reverse direction requires the
    xi-coefficients to be even.
    """
    if len(coeffs) != 4:
        raise ValueError("expected 4 coordinates")
    if frm == to or D % 4 != 1:
        return tuple(coeffs)  # type: ignore[return-value]
    c1, c2, c3, c4 = coeffs
    if frm is Basis.SQRT_D:
        return (c1 - c2, 2 * c2, c3 - c4, 2 * c4)
    if c2 % 2 or c4 % 2:
        raise NonIntegralConversion(
            f"xi-coefficients ({c2}, {c4}) must be even to move to the sqrt(D)-basis"
        )
    return (c1 + c2 // 2, c2 // 2, c3 + c4 // 2, c4 // 2)
