"""Golden reference data: two published parameter sets with known outputs.

Each entry records a CM field, an element omega (in its originally
printed basis), the prime p = omega * conj(omega), the factorizations of
p - 1 and of the published group order N, and the expected structure
candidates.  The ``verify`` command re-derives everything derivable and
pins each fact; the test suite does the same.

``order_link`` records how the published order relates to the recorded
element: "primary" when N equals the order derived from omega itself,
"twist" when it equals the order of the quadratic twist (the negated
element, same prime), and "inconsistent" when it matches neither.  The
second example ships with an inconsistent link: an exhaustive search over
Frobenius traces shows no element of the field with norm p yields the
published order, so the published omega and N cannot belong to the same
curve.  Its order is therefore consumed as published input data, and the
link state itself is pinned so any drift still fails verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cmfield import Basis
from .integerkit import is_probable_prime


@dataclass(frozen=True)
class ReferenceExample:
    name: str
    D: int
    a: int
    b: int
    omega_printed: tuple[int, int, int, int]
    printed_basis: Basis
    omega_xi: tuple[int, int, int, int]
    p: int
    pm1_factors: tuple[tuple[int, int], ...]
    published_order: int
    order_factors: tuple[tuple[int, int], ...]
    expected_Q: int
    expected_candidates: tuple[tuple[int, int, int, int], ...]
    order_link: str  # "primary" | "twist" | "inconsistent"
    expected_exclusions: dict[int, tuple[str, ...]]


_N1 = 234519634968847474692278544362349582158321382804023011720188699330496198748
_R1 = 87556173808919520163329861675989739433243040373597074857097140343
_P1 = 15314033922152826237436247359259334919

EXAMPLE_1 = ReferenceExample(
    name="example-1",
    D=2,
    a=2,
    b=1,
    omega_printed=(3913314953099587393, -31, 4483312578, 6978049007),
    printed_basis=Basis.SQRT_D,
    omega_xi=(3913314953099587393, -31, 4483312578, 6978049007),
    p=_P1,
    pm1_factors=((2, 1), (3, 1), (7, 1), (353, 1), (1032917437080320129329303072929943, 1)),
    published_order=_N1,
    order_factors=((2, 2), (7, 3), (17, 1), (23, 1), (4993, 1), (_R1, 1)),
    expected_Q=2,
    expected_candidates=(
        (1, 1, 1, _N1),
        (1, 1, 2, _N1 // 2),
        (1, 1, 7, _N1 // 7),
        (1, 1, 14, _N1 // 14),
    ),
    order_link="twist",
    expected_exclusions={7: ("exceeds the bound",)},
)

_N2 = 204607479838989309536748148297333557447111046976589088984
_R2 = 1050217015557576630891205130257738047915611254140091
_P2 = 14304107096878940330893123933

EXAMPLE_2 = ReferenceExample(
    name="example-2",
    D=5,
    a=6,
    b=2,
    omega_printed=(-119599766860084, 5279155, 13860963299, 4898901569),
    printed_basis=Basis.SQRT_D,
    omega_xi=(-119599772139239, 10558310, 8962061730, 9797803138),
    p=_P2,
    pm1_factors=((2, 2), (3, 3), (43, 1), (5672833, 1), (23610911, 1), (22996185281, 1)),
    published_order=_N2,
    order_factors=((2, 3), (7, 3), (71, 1), (_R2, 1)),
    expected_Q=176,
    expected_candidates=(
        (1, 1, 1, _N2),
        (1, 1, 2, _N2 // 2),
        (1, 1, 7, _N2 // 7),
        (1, 1, 14, _N2 // 14),
        (1, 2, 2, _N2 // 4),
        (1, 2, 14, _N2 // 28),
    ),
    order_link="inconsistent",
    expected_exclusions={7: ("does not divide p - 1", "not (1, 0)")},
)

EXAMPLES = (EXAMPLE_1, EXAMPLE_2)


def is_factorization_of(factors: tuple[tuple[int, int], ...], n: int) -> bool:
    """Whether ``factors`` lists strictly increasing primes whose powers multiply to n."""
    primes = [q for q, _ in factors]
    return (all(a < b for a, b in zip(primes, primes[1:])) and all(e >= 1 for _, e in factors)
            and math.prod(q**e for q, e in factors) == n and all(map(is_probable_prime, primes)))

