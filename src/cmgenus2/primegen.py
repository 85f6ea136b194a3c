"""Search for omega in the quartic order whose complex norm is prime.

The search picks a pair (c3, c4), solves the vanishing of the
xi-component of omega * conj(omega) by a divisor choice, and tests the
resulting rational norm for primality.  With xi^2 = t*xi + n and r the
xi-coordinate of ``eta_part_norm(c3, c4)`` = (c3 + c4*xi)^2 * (a + b*xi),
the xi-component is c2*(2*c1 + t*c2) + r, so one equation serves both
real subfields:

    c2*(2*c1 + t*c2) = m,   m = -r,   t = 0 (D = 2, 3 mod 4) or 1 (D = 1 mod 4).

It has an integer solution exactly when m = t (mod 2) or 4 | m; a pair
failing that parity test, or with m = 0, is skipped before any trial
division.  For t = 0 the equation is c1*c2 = m/2, so c2 runs over the
divisors of m/2; for t = 1 over those of m, keeping the c2 with
m/c2 - c2 even.  Either way the divisors are those of the part of the
right side that trial division up to ``TRIAL_WALL`` finds and their
complements: every divisor when at most one prime lies above the wall,
and no pair is resampled for want of a factorization.  Solutions are
tried in seeded pseudo-random order (both signs), and those of one pair
are exhausted before the next pair is sampled, so a fixed
(field, bits, seed) always reproduces the same certificate.  At most
``MAX_CANDIDATES`` in-window norms are tested for primality.

The gcd rule: for t = 1 the odd part of gcd(c3, c4) must be 1 (shared
powers of two are allowed); for t = 0 gcd(c3, c4) must be 1.  Shared odd
factors are never emitted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cmfield import ValidatedField
from .integerkit import divisors, is_probable_prime, trial_division, valuation
from .quartic import OracleMismatch, eta_part_norm, norm_residual


TRIAL_WALL = 10**4  # trial-division limit for the divisor-equation right side
MAX_CANDIDATES = 10_000  # primality tests before the search gives up


class SearchExhausted(RuntimeError):
    """No acceptable prime found within the iteration budget."""


class InvalidOmega(ValueError):
    """Coordinates whose complex norm is not rational, or a bad gcd."""


class CompositeP(ValueError):
    """The rational norm is not an (odd) probable prime."""


@dataclass(frozen=True)
class OmegaCertificate:
    """A verified (field, omega, p) triple.

    Guarantees: omega * conj(omega) = (p, 0, 0, 0) exactly, p is an odd
    probable prime, and gcd(c3, c4) has trivial odd part.
    """

    field: ValidatedField
    c: tuple[int, int, int, int]
    p: int
    gcd34: int


def odd_part(n: int) -> int:
    return abs(n) >> valuation(n, 2) if n else 0


def make_certificate(field: ValidatedField, c: tuple[int, int, int, int]) -> OmegaCertificate:
    """Validate coordinates into a certificate.

    Raises InvalidOmega when the norm has a nonzero xi-component, omega
    lies in K0 (c3 = c4 = 0) or the pair (c3, c4) shares an odd factor,
    CompositeP when the norm is even or fails the primality test.
    """
    p, residual = norm_residual(c, field)
    if residual != 0:
        raise InvalidOmega(f"norm of {c} is irrational (xi-component {residual})")
    cert = _certificate(field, c, p)
    if p <= 2 or p % 2 == 0 or not is_probable_prime(p):
        raise CompositeP(f"norm {p} is not an odd prime")
    return cert


def _certificate(field: ValidatedField, c: tuple[int, int, int, int], p: int) -> OmegaCertificate:
    """The certificate for c with rational norm p, once c is found to lie
    outside K0 with gcd(c3, c4) of trivial odd part (InvalidOmega otherwise)."""
    g34 = math.gcd(c[2], c[3])
    if g34 == 0:
        raise InvalidOmega(f"omega {c} lies in the real subfield K0 (c3 = c4 = 0)")
    if odd_part(g34) != 1:
        raise InvalidOmega(f"gcd(c3, c4) = {g34} has a nontrivial odd part")
    return OmegaCertificate(field, c, p, g34)


def negate(cert: OmegaCertificate) -> OmegaCertificate:
    """Certificate of -omega: same prime, quadratic-twist Frobenius."""
    c1, c2, c3, c4 = cert.c
    return OmegaCertificate(cert.field, (-c1, -c2, -c3, -c4), cert.p, cert.gcd34)


def _right_side_divisors(n: int) -> list[int]:
    """The divisors d of the part of |n| that trial division up to
    ``TRIAL_WALL`` finds and their complements |n|/d, once, ascending."""
    n = abs(n)
    small, _ = trial_division(n, TRIAL_WALL)
    found = divisors(small)
    return sorted({*found, *(n // d for d in found)})


def solve_divisor_equation(field: ValidatedField, c3: int, c4: int) -> list[tuple[int, int]]:
    """Pairs (c1, c2) with c2*(2*c1 + t*c2) = m for the pair, in
    deterministic order: all of them when at most one prime of m lies above
    ``TRIAL_WALL``.  Empty when the pair fails the gcd rule, m is zero or
    m has the wrong parity (checked before any trial division).
    """
    t = field.xi_sq[0]
    g34 = math.gcd(c3, c4)
    # t = 0 pairs with an even gcd give mostly even norms: skip them
    if (odd_part(g34) if t else g34) != 1:
        return []
    m = -eta_part_norm(c3, c4, field)[1]
    if m == 0 or (m - t) % 2 and m % 4:  # solvable iff m = t (mod 2) or 4 | m
        return []
    out = []
    for d in _right_side_divisors(m // (2 - t)):
        for c2 in (d, -d):
            s = m // c2 - t * c2
            if s % 2 == 0:
                out.append((s // 2, c2))
    return out


def _pair_bit_range(field: ValidatedField, target_bits: int) -> tuple[int, int]:
    """Magnitude range for |c3|, |c4|.

    Pairs near (target - scale)/2 bits reach the target through balanced
    divisor splits c1 ~ c2 ~ sqrt(n); pairs near a quarter of the target
    reach it through lopsided splits (c2 a small divisor, c1 ~ n), whose
    n is half as long.  Sampling the whole range covers both regimes.
    """
    scale = (field.a * (1 + field.D)).bit_length()
    hi = max(2, (target_bits - scale) // 2)
    lo = max(2, (target_bits - scale) // 4)
    return lo, hi


def _sample_pair(rng: random.Random, lo_bits: int, hi_bits: int) -> tuple[int, int]:
    hi = 1 << rng.randint(lo_bits, hi_bits)
    c3 = rng.randrange(1, hi) * rng.choice((1, -1))
    c4 = rng.randrange(1, hi) * rng.choice((1, -1))
    return c3, c4


def search_prime(field: ValidatedField, target_bits: int, seed: int) -> OmegaCertificate:
    """Elementary-method search; deterministic for a fixed seed."""
    if not 4 <= target_bits <= 1024:
        raise ValueError("target_bits must be between 4 and 1024")
    rng = random.Random(seed)
    lo_bits, hi_bits = _pair_bit_range(field, target_bits)
    tested = 0
    pair_cap = 50 * MAX_CANDIDATES
    for _ in range(pair_cap):
        c3, c4 = _sample_pair(rng, lo_bits, hi_bits)
        solutions = solve_divisor_equation(field, c3, c4)
        rng.shuffle(solutions)
        for c1, c2 in solutions:
            c = (c1, c2, c3, c4)
            p, residual = norm_residual(c, field)
            if residual != 0:  # solver guarantees this; keep the oracle armed
                raise OracleMismatch(f"solver produced irrational norm at {c}")
            if p <= 2 or p % 2 == 0:
                continue
            if abs(p.bit_length() - target_bits) > 2:
                continue
            tested += 1
            if is_probable_prime(p):  # the loop has checked the norm and the primality
                return _certificate(field, c, p)
            if tested >= MAX_CANDIDATES:
                raise SearchExhausted(f"no prime after {tested} candidates")
    raise SearchExhausted(f"no odd norm within 2 bits of {target_bits} bits in {pair_cap} pairs")
