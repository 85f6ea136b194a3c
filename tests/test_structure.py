import itertools
import math
import random

import pytest

from cmgenus2 import structure
from cmgenus2.cmfield import validate
from cmgenus2.integerkit import divisors, factorize
from cmgenus2.primegen import make_certificate
from cmgenus2.structure import (
    CombinatorialBlowup,
    IncompleteFactorization,
    admissible_odd_primes_from,
    analyze,
    enumerate_structures,
    exponent_chains,
)

F2 = validate(2, 2, 1)

TOY = make_certificate(F2, (7, -1, 2, 1))  # p = 71, N = 3356


def brute_force_structures(N, p, admissible):
    """Naive oracle: scan all divisor 4-tuples of N."""
    ds = divisors(factorize(N)[0])
    found = []
    for n1 in ds:
        for n2 in ds:
            if n2 % n1 or (p - 1) % n2:
                continue
            if not odd_primes_ok(n2, admissible):
                continue
            for n3 in ds:
                if n3 % n2:
                    continue
                rest = n1 * n2 * n3
                if N % rest:
                    continue
                n4 = N // rest
                if n4 % n3 == 0:
                    found.append((n1, n2, n3, n4))
    return tuple(sorted(found))


def odd_primes_ok(n2, admissible):
    m = n2
    while m % 2 == 0:
        m //= 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            if d not in admissible:
                return False
            while m % d == 0:
                m //= d
        d += 2
    if m > 1 and m not in admissible:
        return False
    return True


def test_exponent_chains_small():
    assert exponent_chains(1, 5) == [(0, 0, 0, 1)]
    assert exponent_chains(2, 5) == [(0, 0, 0, 2), (0, 0, 1, 1)]
    assert set(exponent_chains(3, 5)) == {(0, 0, 0, 3), (0, 0, 1, 2), (0, 1, 1, 1)}
    assert set(exponent_chains(3, 0)) == {(0, 0, 0, 3), (0, 0, 1, 2)}


def test_exponent_chains_properties():
    for v in range(9):
        for cap in range(4):
            for chain in exponent_chains(v, cap):
                assert sum(chain) == v
                assert chain[0] <= chain[1] <= chain[2] <= chain[3]
                assert chain[1] <= cap


def test_exponent_chains_complete():
    # every nondecreasing (e1, e2, e3, e4) with sum v and e2 <= cap, exactly once
    for v in range(13):
        for cap in range(6):
            brute = {(*head, v - sum(head)) for head in itertools.product(range(v + 1), repeat=3)
                     if head[0] <= head[1] <= head[2] <= v - sum(head) and head[1] <= cap}
            chains = exponent_chains(v, cap)
            assert len(chains) == len(brute)
            assert set(chains) == brute


def test_admissible_ell_toy():
    an = analyze(TOY, 3356)  # 2^2 * 839: no odd prime cubed
    assert an.admissible_odd_primes == frozenset()
    assert an.exclusions == {}


def test_admissible_synthetic_filter():
    # Q=13, D=3, ell=5: 5^3 | N, 5 | p-1, congruences hold, 5 not in gcd
    N = 5**3 * 7
    p = 11  # p - 1 = 10 divisible by 5
    adm, excl = admissible_odd_primes_from(
        factorize(N)[0], p, Q=13, D=3, c1=6, c2=10, gcd34=1
    )
    assert adm == {5}
    assert excl == {}


def test_admissible_exclusion_reasons():
    N = 7**3 * 4
    # 7 does not divide p-1 = 10, and c1 = 0 (mod 7)
    adm, excl = admissible_odd_primes_from(
        factorize(N)[0], 11, Q=176, D=5, c1=7, c2=0, gcd34=2
    )
    assert adm == set()
    assert 7 in excl
    joined = " ".join(excl[7])
    assert "does not divide p - 1" in joined
    assert "not (1, 0)" in joined


def test_admissible_gcd_side_condition():
    # ell | gcd(c3, c4) bypasses the bound entirely
    N = 7**3 * 2
    p = 29  # 7 | 28
    adm, _ = admissible_odd_primes_from(
        factorize(N)[0], p, Q=2, D=2, c1=5, c2=3, gcd34=7
    )
    assert adm == {7}


def test_analyze_is_the_one_completeness_gate(monkeypatch):
    # a partial factorization of N stops in analyze, before the filter
    # and the enumeration, which take only the prime-power list
    calls = []
    for name in ("admissible_odd_primes_from", "enumerate_structures"):
        def counting(*args, _name=name, _fn=getattr(structure, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(structure, name, counting)
    monkeypatch.setattr(structure, "factorize",
                        lambda n: (((2, 2),), n // 4))
    with pytest.raises(IncompleteFactorization, match="not fully factored within budget"):
        analyze(TOY, 3356)
    assert calls == []
    monkeypatch.setattr(structure, "factorize", factorize)
    analyze(TOY, 3356)  # the counters see a complete N
    assert calls == ["admissible_odd_primes_from", "enumerate_structures"]


def test_enumerate_toy_matches_brute_force():
    an = analyze(TOY, 3356)
    report = an.structures
    assert report.candidates == ((1, 1, 1, 3356), (1, 1, 2, 1678))
    assert report.candidates == brute_force_structures(3356, 71, an.admissible_odd_primes)
    assert report.guaranteed_cyclic == 1678


def test_enumerate_always_contains_cyclic_tuple():
    rng = random.Random(31)
    for _ in range(50):
        N = rng.randrange(2, 10**5)
        p = 71
        factors = factorize(N)[0]
        adm, _ = admissible_odd_primes_from(factors, p, Q=50, D=2, c1=1, c2=0, gcd34=1)
        report = enumerate_structures(factors, p, adm)
        assert (1, 1, 1, N) in report.candidates
        assert all(t[3] % report.guaranteed_cyclic == 0 for t in report.candidates)


def test_enumerate_matches_brute_force_randomized():
    rng = random.Random(32)
    for _ in range(100):
        N = rng.randrange(2, 10**6)
        p = rng.randrange(3, 10**6) | 1
        Q = rng.randrange(2, 200)
        D = rng.choice((2, 3, 5, 13))
        c1 = rng.randrange(-10**6, 10**6)
        c2 = rng.randrange(-10**6, 10**6)
        gcd34 = rng.choice((1, 1, 1, 2, 3, 7))
        factors = factorize(N)[0]
        adm, _ = admissible_odd_primes_from(factors, p, Q, D, c1, c2, gcd34)
        report = enumerate_structures(factors, p, adm)
        brute = brute_force_structures(N, p, adm)
        assert report.candidates == brute, (N, p, adm)
        # the closed-form bound is the least n4 and divides every n4
        assert report.guaranteed_cyclic == min(t[3] for t in brute)
        assert all(t[3] % report.guaranteed_cyclic == 0 for t in brute)


def test_every_candidate_satisfies_invariants():
    N = 2**3 * 7**3 * 5
    factors = factorize(N)[0]
    p = 281  # p - 1 = 280 = 2^3 * 5 * 7
    adm, _ = admissible_odd_primes_from(factors, p, Q=10, D=2, c1=1, c2=0, gcd34=1)
    report = enumerate_structures(factors, p, adm)
    assert math.prod(q**v for q, v in factors) == N
    for n1, n2, n3, n4 in report.candidates:
        assert n1 * n2 * n3 * n4 == N
        assert n2 % n1 == 0 and n3 % n2 == 0 and n4 % n3 == 0
        assert (p - 1) % n2 == 0
        assert odd_primes_ok(n2, adm)


def test_combinatorial_cap(monkeypatch):
    monkeypatch.setattr(structure, "MAX_STRUCTURES", 10)
    with pytest.raises(CombinatorialBlowup, match="more than 10 candidate structures"):
        enumerate_structures(factorize(2**40)[0], 2**20 + 1, {2})


def test_prime_of_p_minus_1_beyond_trial_wall_stays_admissible():
    # p = 2 * 10007 * 4000039 * 4000081 + 1 is prime; no trial wall below
    # 10007 finds 10007 in p - 1, yet it divides p - 1 and must stay
    # admissible (it divides gcd(c3, c4), so the bound Q does not apply)
    ell = 10007
    p = 2 * ell * 4000039 * 4000081 + 1
    N = 4 * ell**3
    adm, excl = admissible_odd_primes_from(factorize(N)[0], p, Q=2, D=2, c1=5, c2=3, gcd34=ell)
    assert adm == {ell} and excl == {}
    report = enumerate_structures(factorize(N)[0], p, adm)
    assert (1, ell, ell, 4 * ell) in report.candidates
    assert report.candidates == brute_force_structures(N, p, adm)


def test_analyze_factors_only_n(monkeypatch):
    # the structures read p - 1 only by divisibility and valuation, so
    # the one factorization is that of N
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(structure, "factorize", counting)
    analyze(TOY, 3356)
    assert calls == [3356]


def test_congruence_forces_binomial_reduction():
    # when c1 = 1, c2 = 0, p = 1 (mod ell) the quartic reduces to (X-1)^4
    from cmgenus2.frobenius import closed_form_char_poly

    rng = random.Random(33)
    for field in (F2, validate(5, 6, 2)):
        for _ in range(50):
            ell = rng.choice((5, 7, 11, 13))
            c1 = 1 + ell * rng.randrange(-50, 50)
            c2 = ell * rng.randrange(-50, 50)
            p = 1 + ell * rng.randrange(1, 1000)
            coeffs = closed_form_char_poly(field, (c1, c2, 0, 0), p)
            assert [x % ell for x in coeffs] == [
                1 % ell, -4 % ell, 6 % ell, -4 % ell, 1 % ell
            ]
