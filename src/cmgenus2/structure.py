"""Admissible group structures (n1, n2, n3, n4) of the Jacobian.

The group of rational points decomposes as a product of four cyclic
groups Z/n1 x Z/n2 x Z/n3 x Z/n4 with n1 | n2 | n3 | n4 and n2 | p - 1.
An odd prime ell can divide n2 only if

    ell^3 | N,  ell | p - 1,  ell != p,

and, unless ell divides gcd(c3, c4), the bound ell <= Q holds, with the
extra congruences c1 = 1 and c2 = 0 (mod ell) forced when ell > D.

``enumerate_structures`` lists every tuple compatible with these
necessary conditions, working prime by prime over exponent chains
e1 <= e2 <= e3 <= e4 summing to the multiplicity of the prime in N.  The
output is a superset guarantee: the true structure is among the
candidates, but candidates are not certified realizable (that would
require the curve itself).  The minimum n4 over all candidates (a closed
form per prime) is a certified lower bound on the largest cyclic subgroup.

The filter and the enumeration read p - 1 only through ell | p - 1 and
v_q(p - 1), and N only through its prime-power list ((q, v), ...), which
cannot carry a cofactor.  ``analyze`` is the whole path from a
certificate and its group order: factor N (and nothing else), decide
once whether that factorization is complete, filter the odd primes,
enumerate the candidates.  Its ``Analysis`` keeps N's prime powers only,
as no result is built for a partial factorization.

The power of two in n2 is constrained only by divisibility and
n2 | p - 1; the odd-prime filter above does not apply to 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .integerkit import factorize, valuation
from .primegen import OmegaCertificate

MAX_STRUCTURES = 10**6  # candidate structures before the enumeration gives up


class IncompleteFactorization(RuntimeError):
    """N did not factor completely within the budget of ``factorize``."""


class CombinatorialBlowup(RuntimeError):
    """More candidates than MAX_STRUCTURES."""


@dataclass(frozen=True)
class StructureReport:
    candidates: tuple[tuple[int, int, int, int], ...]  # (n1, n2, n3, n4), ascending
    guaranteed_cyclic: int


@dataclass(frozen=True)
class Analysis:
    """What ``analyze`` derives from a certificate and a group order."""

    factors: tuple[tuple[int, int], ...]  # N's prime powers ((q, v), ...), ascending
    admissible_odd_primes: frozenset[int]
    exclusions: dict[int, tuple[str, ...]]
    structures: StructureReport


def admissible_odd_primes_from(
    factors: tuple[tuple[int, int], ...],
    p: int,
    Q: int,
    D: int,
    c1: int,
    c2: int,
    gcd34: int,
) -> tuple[set[int], dict[int, tuple[str, ...]]]:
    """The filter on odd primes, from raw congruence data.

    Returns the surviving primes together with, for every odd prime whose
    cube divides N but which was excluded, the list of conditions that
    excluded it.
    """
    admissible: set[int] = set()
    exclusions: dict[int, tuple[str, ...]] = {}
    for ell, v in factors:
        if ell == 2 or v < 3:
            continue
        reasons = []
        if (p - 1) % ell:
            reasons.append(f"{ell} does not divide p - 1")
        if ell == p:
            reasons.append(f"{ell} equals the field characteristic")
        if gcd34 % ell != 0:
            # the bound and congruences apply
            if ell > Q:
                reasons.append(f"{ell} exceeds the bound Q = {Q}")
            elif ell > D and (c1 % ell != 1 or c2 % ell != 0):
                reasons.append(
                    f"(c1, c2) = ({c1 % ell}, {c2 % ell}) (mod {ell}) is not (1, 0)"
                )
        if reasons:
            exclusions[ell] = tuple(reasons)
        else:
            admissible.add(ell)
    return admissible, exclusions


def exponent_chains(v: int, e2_cap: int) -> list[tuple[int, int, int, int]]:
    """Nondecreasing exponent 4-tuples summing to v with e2 <= e2_cap."""
    chains = []
    for e1 in range(v // 4 + 1):
        for e2 in range(e1, min(e2_cap, (v - e1) // 3) + 1):
            rest = v - e1 - e2
            for e3 in range(e2, rest // 2 + 1):
                e4 = rest - e3
                if e4 >= e3:
                    chains.append((e1, e2, e3, e4))
    return chains


def enumerate_structures(
    factors: tuple[tuple[int, int], ...],
    p: int,
    admissible: set[int],
) -> StructureReport:
    """All candidate tuples for a Jacobian of order prod q^v over F_p.

    The exponent of each prime q in n2 is capped at c = v_q(p - 1); odd
    primes outside ``admissible`` are kept out of n2 (c = 0).

    The guaranteed cyclic order, the least n4, is prod q^m over q^v || N,
    m = max(ceil(v/4), ceil(v/2) - c), as the primes' chains combine
    freely.  Every chain has 4*e4 >= v and, with e1 <= e2 <= c,
    2*e4 >= v - 2c.  If 4c <= v, (c, c, floor(v/2) - c, ceil(v/2) - c)
    attains m; else v = 4k + r with k < c, and k's with 1 added to the
    last r entries attain ceil(v/4) with e2 <= k + 1 <= c.
    """
    per_prime: list[list[tuple[int, int, int, int]]] = []
    total = guaranteed = 1
    for q, v in factors:
        e2_cap = valuation(p - 1, q) if q == 2 or q in admissible else 0
        guaranteed *= q ** max(-(-v // 4), -(-v // 2) - e2_cap)
        powers = [tuple(q**e for e in chain) for chain in exponent_chains(v, e2_cap)]
        per_prime.append(powers)
        total *= len(powers)
        if total > MAX_STRUCTURES:
            raise CombinatorialBlowup(f"more than {MAX_STRUCTURES} candidate structures")
    out = [tuple(map(math.prod, zip((1, 1, 1, 1), *combo)))
           for combo in itertools.product(*per_prime)]
    return StructureReport(tuple(sorted(out)), guaranteed)


def analyze(cert: OmegaCertificate, N: int) -> Analysis:
    """The structure pipeline for a certificate whose Jacobian has order N.

    Factors N, not p - 1, filters the odd primes once, and enumerates the
    candidate structures.  The only completeness check: the filter and the
    enumeration take the prime-power list, and IncompleteFactorization is
    raised here when N does not factor within the budget of ``factorize``.
    """
    factors, cofactor = factorize(N)
    if cofactor != 1:
        raise IncompleteFactorization(f"order {N} not fully factored within budget")
    admissible, exclusions = admissible_odd_primes_from(
        factors, cert.p, cert.field.Q, cert.field.D, cert.c[0], cert.c[1], cert.gcd34,
    )
    return Analysis(
        factors=factors,
        admissible_odd_primes=frozenset(admissible),
        exclusions=exclusions,
        structures=enumerate_structures(factors, cert.p, admissible),
    )
