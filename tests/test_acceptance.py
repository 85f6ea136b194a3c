"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from cmgenus2 import golden
from cmgenus2.cantor import (
    enumerate_jacobian,
    padded_invariant_factors,
    random_curve,
)
from cmgenus2.cmfield import Basis, basis_convert, validate
from cmgenus2.frobenius import (
    char_poly,
    closed_form_char_poly,
    group_order_oracle,
    hasse_weil_check,
    twist_order,
)
from cmgenus2.integerkit import factorize, is_probable_prime
from cmgenus2.primegen import (
    make_certificate,
    negate,
    odd_part,
    search_prime,
)
from cmgenus2.quartic import QuarticInt, char_poly_oracle, conj_complex, mul, norm_residual
from cmgenus2.structure import admissible_odd_primes_from, analyze, enumerate_structures

from test_frobenius import random_valid_omegas
from test_structure import brute_force_structures

F2 = validate(2, 2, 1)
F3 = validate(3, 5, 2)
F5 = validate(5, 6, 2)
F13 = validate(13, 7, 2)


def _ok(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_1_example1_golden():
    start = time.monotonic()
    ex = golden.EXAMPLE_1
    field = validate(2, 2, 1)
    assert field.Q == 2
    cert = make_certificate(field, (3913314953099587393, -31, 4483312578, 6978049007))
    assert cert.p == 15314033922152826237436247359259334919
    assert cert.gcd34 == 1

    coeffs = char_poly(cert)
    # the published 75-digit order is the order of the quadratic twist of
    # this element (the negated element, same prime); pinned as such
    assert twist_order(coeffs) == ex.published_order
    assert sum(coeffs) != ex.published_order

    an = analyze(negate(cert), ex.published_order)
    assert an.factors == (
        (2, 2), (7, 3), (17, 1), (23, 1), (4993, 1),
        (87556173808919520163329861675989739433243040373597074857097140343, 1),
    )
    assert is_probable_prime(an.factors[-1][0])
    assert golden.is_factorization_of(ex.pm1_factors, cert.p - 1)
    assert an.admissible_odd_primes == frozenset()
    N = ex.published_order
    assert an.structures.candidates == (
        (1, 1, 1, N), (1, 1, 2, N // 2), (1, 1, 7, N // 7), (1, 1, 14, N // 14),
    )

    elapsed = time.monotonic() - start
    assert elapsed < 30
    _ok(f"criterion 1: PASS  example-1 exact (p, N via twist link, factors, Q, "
        f"candidates) in {elapsed:.2f}s")


def test_criterion_2_example2_golden():
    start = time.monotonic()
    ex = golden.EXAMPLE_2
    field = validate(5, 6, 2)  # printed radicand 7 + sqrt(5)
    assert field.Q == 176
    converted = basis_convert(
        (-119599766860084, 5279155, 13860963299, 4898901569),
        Basis.SQRT_D, Basis.XI, field.D,
    )
    assert converted == (-119599772139239, 10558310, 8962061730, 9797803138)
    cert = make_certificate(field, converted)
    assert cert.p == 14304107096878940330893123933
    assert cert.gcd34 == 2

    # The published order of this example is not the order of either twist
    # of the recorded element (no element of norm p yields it; see the
    # decisions ledger).  The inconsistency is pinned and the published
    # order is consumed as published data for the structure stages.
    coeffs = char_poly(cert)
    assert sum(coeffs) != ex.published_order
    assert twist_order(coeffs) != ex.published_order

    an = analyze(cert, ex.published_order)
    assert an.factors == (
        (2, 3), (7, 3), (71, 1),
        (1050217015557576630891205130257738047915611254140091, 1),
    )
    assert is_probable_prime(an.factors[-1][0])
    assert golden.is_factorization_of(ex.pm1_factors, cert.p - 1)
    assert an.admissible_odd_primes == frozenset()
    N = ex.published_order
    assert an.structures.candidates == (
        (1, 1, 1, N), (1, 1, 2, N // 2), (1, 1, 7, N // 7), (1, 1, 14, N // 14),
        (1, 2, 2, N // 4), (1, 2, 14, N // 28),
    )
    # 7 must be excluded from n2; both firing filters are recorded:
    # 7 does not divide p - 1, and c1 = 0 (mod 7) breaks the congruence
    reasons = " | ".join(an.exclusions[7])
    assert "does not divide p - 1" in reasons
    assert "not (1, 0)" in reasons

    elapsed = time.monotonic() - start
    assert elapsed < 30
    _ok(f"criterion 2: PASS  example-2 exact (conversion, p, published-order "
        f"factors, candidates, 7 excluded) in {elapsed:.2f}s; order-derivation "
        f"link pinned inconsistent (published data defect, see ledger)")


def test_criterion_3_formula_vs_oracle():
    rng = random.Random(1003)
    mismatches = 0
    total = 0
    for field in (F2, F3, F5, F13):  # 500 per field = 1000 per case
        for c in random_valid_omegas(field, rng, 500, pair_bound=50):
            p, res = norm_residual(c, field)
            assert res == 0
            closed = list(closed_form_char_poly(field, c, p))
            if closed != char_poly_oracle(QuarticInt(*c), field):
                mismatches += 1
            if sum(closed) != group_order_oracle(field, c):
                mismatches += 1
            total += 1
    assert total == 2000
    assert mismatches == 0
    _ok(f"criterion 3: PASS  {total} random valid omegas, closed form == matrix "
        f"char poly and P(1) == det(mult by 1 - omega), 0 mismatches")


def test_criterion_4_generation_soundness():
    start = time.monotonic()
    fields = (F2, F3, F5, F13)
    good = 0
    for seed in range(200):
        field = fields[seed % 4]
        bits = 32 + (seed * 13) % 33  # spread over [32, 64]
        cert = search_prime(field, bits, seed)
        u = QuarticInt(*cert.c)
        assert mul(u, conj_complex(u), field) == (cert.p, 0, 0, 0)
        assert is_probable_prime(cert.p)
        assert abs(cert.p.bit_length() - bits) <= 2
        assert odd_part(cert.gcd34) == 1
        assert hasse_weil_check(sum(char_poly(cert)), cert.p)
        good += 1
    elapsed = time.monotonic() - start
    assert good == 200
    assert elapsed < 120
    _ok(f"criterion 4: PASS  200/200 seeded searches at 32-64 bits sound "
        f"in {elapsed:.1f}s")


def test_criterion_5_toy_pipeline():
    cert = make_certificate(F2, (7, -1, 2, 1))
    assert cert.p == 71
    coeffs = char_poly(cert)
    assert list(coeffs) == [1, -28, 330, -1988, 5041]
    assert sum(coeffs) == 3356

    an = analyze(cert, sum(coeffs))
    got = an.structures.candidates
    assert got == ((1, 1, 1, 3356), (1, 1, 2, 1678))
    assert an.structures.guaranteed_cyclic == 1678
    # independent brute force over all divisor 4-tuples of 3356
    assert got == brute_force_structures(3356, 71, an.admissible_odd_primes)
    _ok("criterion 5: PASS  toy pipeline exact (p=71, P, N=3356, candidates, "
        "guaranteed cyclic 1678) against brute force")


def test_criterion_6_enumeration_oracle_equivalence():
    rng = random.Random(1006)
    checked = 0
    for _ in range(100):
        N = rng.randrange(2, 10**6)
        p = rng.randrange(3, 10**6) | 1
        Q = rng.randrange(2, 250)
        D = rng.choice((2, 3, 5, 6, 13))
        c1 = rng.randrange(-10**9, 10**9)
        c2 = rng.randrange(-10**9, 10**9)
        gcd34 = rng.choice((1, 1, 2, 3, 5, 7))
        factors = factorize(N)[0]
        admissible, _ = admissible_odd_primes_from(factors, p, Q, D, c1, c2, gcd34)
        report = enumerate_structures(factors, p, admissible)
        brute = brute_force_structures(N, p, admissible)
        assert report.candidates == brute, (N, p, admissible)
        assert report.guaranteed_cyclic == min(t[3] for t in brute)
        assert all(t[3] % report.guaranteed_cyclic == 0 for t in brute)
        checked += 1
    assert checked == 100
    _ok("criterion 6: PASS  100 random synthetic (N, p, Q, congruence) cases, "
        "per-prime enumeration == naive 4-tuple brute force and closed-form "
        "guaranteed_cyclic == least brute-force n4, 0 discrepancies")


def test_criterion_7_structural_claim_oracle():
    start = time.monotonic()
    rng = random.Random(1007)
    passed = 0
    for _ in range(30):
        curve = random_curve(rng, pmax=31)
        N, factors = enumerate_jacobian(curve)
        assert 1 <= len(factors) <= 4
        n1, n2, n3, n4 = padded_invariant_factors(factors)  # validates the chain
        assert (curve.p - 1) % n2 == 0
        assert hasse_weil_check(N, curve.p)
        passed += 1
    elapsed = time.monotonic() - start
    assert passed == 30
    assert elapsed < 300
    _ok(f"criterion 7: PASS  30/30 random curves over p in [5, 31]: <= 4 "
        f"invariant factors in a chain, n2 | p - 1, order in Hasse-Weil "
        f"bracket, in {elapsed:.1f}s")
