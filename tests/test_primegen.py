import math
import random

import pytest

from cmgenus2 import integerkit, primegen
from cmgenus2.cmfield import validate
from cmgenus2.integerkit import divisors, factorize, is_probable_prime, trial_division
from cmgenus2.primegen import (
    CompositeP,
    InvalidOmega,
    OmegaCertificate,
    TRIAL_WALL,
    SearchExhausted,
    make_certificate,
    negate,
    odd_part,
    search_prime,
    solve_divisor_equation,
)
from cmgenus2.quartic import QuarticInt, conj_complex, mul

F2 = validate(2, 2, 1)
F3 = validate(3, 5, 2)
F5 = validate(5, 6, 2)
F13 = validate(13, 7, 2)
F3_331 = validate(3, 3, 1)


def assert_certificate_invariants(cert: OmegaCertificate):
    u = QuarticInt(*cert.c)
    assert mul(u, conj_complex(u), cert.field) == (cert.p, 0, 0, 0)
    assert cert.p > 2 and cert.p % 2 == 1
    assert is_probable_prime(cert.p)
    assert odd_part(math.gcd(cert.c[2], cert.c[3])) == 1


def test_make_certificate_reference():
    cert = make_certificate(F2, (7, -1, 2, 1))
    assert cert.p == 71
    assert cert.gcd34 == 1
    assert_certificate_invariants(cert)


def test_make_certificate_rejects_irrational_norm():
    with pytest.raises(InvalidOmega):
        make_certificate(F2, (1, 0, 1, 0))


def test_make_certificate_rejects_composite():
    # (3,1,1,1): norm components (3+2+2+... ) give a rational composite?
    # use a known rational-norm composite: c=(-8,2,1,1) on F5 has norm 86
    with pytest.raises(CompositeP):
        make_certificate(F5, (-8, 2, 1, 1))


def test_make_certificate_rejects_shared_odd_factor():
    # 3 * (7, -1, 2, 1) has rational norm 9 * 71 but gcd(c3, c4) = 3
    with pytest.raises(InvalidOmega, match="odd part"):
        make_certificate(F2, (21, -3, 6, 3))


def test_pair_admissibility_case23():
    assert solve_divisor_equation(F2, 2, 1) != []
    assert solve_divisor_equation(F2, 1, 1) == []  # m = -13 is odd
    assert solve_divisor_equation(F2, 2, 4) == []  # gcd 2


def test_solve_divisor_equation_23_reference():
    # m = -8 - 4 - 2 = -14, c1*c2 = -7
    sols = solve_divisor_equation(F2, 2, 1)
    assert (7, -1) in sols
    assert (-7, 1) in sols
    assert (1, -7) in sols
    assert all(c1 * c2 == -7 for c1, c2 in sols)


def test_solve_divisor_equation_23_parity_rejection():
    assert solve_divisor_equation(F2, 1, 1) == []


def test_solve_divisor_equation_1_no_solution():
    # S8 = 32 + 128 + 40 = 200, m = -50: every divisor pair has mixed parity
    assert solve_divisor_equation(F5, 2, 1) == []


def test_wrong_parity_skips_trial_division(monkeypatch):
    # m = t (mod 2) or 4 | m is decided before any trial division: m = -13
    # on F2 (t = 0) and m = -50 on F5 (t = 1) have no solution
    calls = []

    def spy(n, limit):
        calls.append(n)
        return trial_division(n, limit)

    monkeypatch.setattr(primegen, "trial_division", spy)
    assert solve_divisor_equation(F2, 1, 1) == []
    assert solve_divisor_equation(F5, 2, 1) == []
    assert calls == []
    assert solve_divisor_equation(F5, 1, 1) != []  # m = -28
    assert calls == [28]


def test_solve_divisor_equation_1_reference():
    # S8 = 8 + 64 + 40 = 112, m = -28; c2 = 2 gives c1 = (-14 - 2)/2 = -8
    sols = solve_divisor_equation(F5, 1, 1)
    assert (-8, 2) in sols
    for c1, c2 in sols:
        assert c2 * (2 * c1 + c2) == -28
    # that solution has composite norm 86 = 2 * 43
    from cmgenus2.quartic import norm_residual

    assert norm_residual((-8, 2, 1, 1), F5) == (86, 0)


def divisors_by_scan(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {x for d in small for x in (d, n // d)}


def rhs_23(field, c3, c4):
    """n for the pair, or None when gcd(c3, c4) != 1 or 2n is odd."""
    two_n = -2 * c3 * c4 * field.a - c3 * c3 * field.b - c4 * c4 * field.b * field.D
    if math.gcd(c3, c4) != 1 or two_n % 2:
        return None
    return two_n // 2


def rhs_1(field, c3, c4):
    """m for the pair, or None when its odd parts share a factor or 4 does not divide S8."""
    if math.gcd(odd_part(c3), odd_part(c4)) != 1:
        return None
    a, b, D = field.a, field.b, field.D
    s8 = 4 * c3 * c3 * b + 8 * c3 * c4 * (a + b) + c4 * c4 * (b * (D + 3) + 4 * a)
    return None if s8 % 4 else -s8 // 4


def pairs_23(n, ds):
    return {(s * d, n // (s * d)) for d in ds for s in (1, -1)}


def pairs_1(m, ds):
    return {((m // c2 - c2) // 2, c2) for d in ds for c2 in (d, -d) if (m // c2 - c2) % 2 == 0}


def trial_divisors(value):
    """Divisors of the part of |value| trial division to TRIAL_WALL finds,
    plus their complements, and the rest trial division leaves."""
    n = abs(value)
    small, rest = trial_division(n, TRIAL_WALL)
    found = divisors(small)
    return {*found, *(n // d for d in found)}, rest


def test_solvers_match_brute_force_randomized():
    # below TRIAL_WALL**2 trial division factors the right side fully, so
    # the solutions are exactly all divisor solutions (reference: a divisor
    # scan).  Above it they are the pairs from the divisors of the trial
    # part and their complements: all of them (reference: the divisors of
    # a factorization with the default budget) when the rest is 1 or a
    # prime, a subset when the rest is composite
    rng = random.Random(34)
    case23 = (rhs_23, pairs_23)
    case1 = (rhs_1, pairs_1)
    cases = ((F2, *case23), (F3, *case23), (F3_331, *case23), (F5, *case1), (F13, *case1))
    small = complete = partial = two_big_primes = 0
    for _ in range(900):
        field, rhs, pairs = rng.choice(cases)
        bits = rng.choice((10, 25, 40))
        c3, c4 = rng.randrange(-2**bits, 2**bits), rng.randrange(-2**bits, 2**bits)
        value = rhs(field, c3, c4)
        sols = solve_divisor_equation(field, c3, c4)
        assert len(sols) == len(set(sols)), (field.D, c3, c4)
        if not value:  # failed precondition or degenerate pair
            assert sols == []
        elif abs(value) < TRIAL_WALL**2:
            small += 1
            assert set(sols) == pairs(value, divisors_by_scan(value)), (field.D, c3, c4)
        else:
            tried, rest = trial_divisors(value)
            assert set(sols) == pairs(value, tried), (field.D, c3, c4)
            reference, cofactor = factorize(abs(value))
            assert cofactor == 1, value
            everything = pairs(value, divisors(reference))
            if rest == 1 or is_probable_prime(rest):
                complete += 1
                assert set(sols) == everything, (field.D, c3, c4)
            else:
                partial += 1
                assert set(sols) <= everything, (field.D, c3, c4)
                above_wall = sum(e for q, e in reference if q > TRIAL_WALL)
                two_big_primes += above_wall == 2
    assert small > 100 and complete > 100 and partial > 100, (small, complete, partial)
    assert two_big_primes > 0, two_big_primes


def test_gen_omega_23_produces_valid_certificates():
    for seed in range(10):
        cert = search_prime(F2, 24, seed)
        assert_certificate_invariants(cert)
        assert abs(cert.p.bit_length() - 24) <= 2


def test_gen_omega_1_produces_valid_certificates():
    for seed in range(10):
        cert = search_prime(F5, 24, seed)
        assert_certificate_invariants(cert)
        assert abs(cert.p.bit_length() - 24) <= 2


def test_search_prime_deterministic():
    assert search_prime(F3, 40, 77) == search_prime(F3, 40, 77)
    assert search_prime(F13, 40, 77) == search_prime(F13, 40, 77)


def test_search_prime_seed_variation():
    certs = {search_prime(F2, 32, s).p for s in range(8)}
    assert len(certs) > 1


def test_search_prime_frozen_certificates():
    # pins the reproducibility contract across releases; update only with
    # a deliberate generator change
    frozen = (
        (F2, 32, 2024, (94799, -1, 118, 201), 8987134727),
        (F5, 32, 2024, (-14999, 30020, -510, 188), 1127630233),
        (F2, 128, 0, (-113, 9608145324608064017, -6933291276, 40246287023),
         184632913157575605178302919284216946423),
        (F5, 128, 0, (13251524034851152779, -8, 2464763530, 2914441782),
         175602889246237776304909004041773714337),
        (F3, 40, 77, (-1497747, 39, 1594, 3187), 2243472100223),
        (F13, 40, 77, (-1966653, 1922, -43132, 56300), 3937199341429),
    )
    for field, bits, seed, c, p in frozen:
        cert = search_prime(field, bits, seed)
        assert (cert.c, cert.p) == (c, p), (field.D, bits, seed)


def test_search_runs_no_rho(monkeypatch):
    # the search takes its divisors from trial division alone; a rho call
    # at paper size would cost seconds per pair
    def no_rho(*args):
        raise RuntimeError("the prime search ran Brent rho")

    monkeypatch.setattr(integerkit, "_brent_rho", no_rho)
    for field in (F2, F5):
        cert = search_prime(field, 128, 0)
        assert make_certificate(field, cert.c) == cert
        assert abs(cert.p.bit_length() - 128) <= 2


def test_config_preconditions(monkeypatch):
    # the bit range is checked before the search; 4 and 1024 reach it,
    # which the sentinel shows without running a 1024-bit search
    for bits in (3, 1025):
        with pytest.raises(ValueError, match="^target_bits must be between 4 and 1024$"):
            search_prime(F2, bits, 0)

    class Sampled(Exception):
        pass

    def sentinel(*args):
        raise Sampled

    monkeypatch.setattr(primegen, "_sample_pair", sentinel)
    for bits in (4, 1024):
        with pytest.raises(Sampled):
            search_prime(F2, bits, 0)


def test_search_exhausted(monkeypatch):
    # seed 0's first in-window candidate at 24 bits is composite, so a
    # budget of one primality test must exhaust (stable: search is
    # deterministic per seed)
    monkeypatch.setattr(primegen, "MAX_CANDIDATES", 1)
    with pytest.raises(SearchExhausted):
        search_prime(F2, 24, 0)


def test_search_exhausted_without_odd_norm(monkeypatch):
    # on (3, 3, 1) a coprime pair gives m = 2 (mod 4), so c1 and c2 are odd
    # and every norm is even: the pair cap, not the primality budget, ends
    # the search
    monkeypatch.setattr(primegen, "MAX_CANDIDATES", 20)
    with pytest.raises(SearchExhausted, match="^no odd norm within 2 bits of 24 bits in 1000 pairs$"):
        search_prime(F3_331, 24, 0)


def test_negate_preserves_validity():
    cert = search_prime(F2, 20, 5)
    twin = negate(cert)
    assert twin.p == cert.p
    assert twin.c == tuple(-x for x in cert.c)
    assert_certificate_invariants(twin)


def test_odd_part():
    assert odd_part(0) == 0
    assert odd_part(1) == 1
    assert odd_part(48) == 3
    assert odd_part(-20) == 5
