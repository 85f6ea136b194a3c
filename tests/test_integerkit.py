import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmgenus2 import integerkit
from cmgenus2.integerkit import (
    divisors,
    factorize,
    is_probable_prime,
    trial_division,
    valuation,
)


def sieve(limit: int) -> list[bool]:
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_prime_839_by_trial_division():
    # oracle: trial division up to floor(sqrt(839)) = 28
    assert all(839 % d for d in range(2, 29))
    assert is_probable_prime(839)


def test_one_is_not_prime():
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)
    assert not is_probable_prime(-7)


def test_large_reference_prime():
    r = 87556173808919520163329861675989739433243040373597074857097140343
    assert is_probable_prime(r)


def test_strong_pseudoprimes_are_caught():
    # smallest strong pseudoprime to bases 2,3,5,7
    assert 3215031751 == 151 * 751 * 28351
    assert not is_probable_prime(3215031751)
    # smallest strong pseudoprime to the first seven prime bases
    assert 341550071728321 == 10670053 * 32010157
    assert not is_probable_prime(341550071728321)
    # smallest strong pseudoprime to bases 2-31: only base 37 rejects it
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert not is_probable_prime(3825123056546413051)


def test_beyond_deterministic_threshold():
    from cmgenus2.integerkit import DETERMINISTIC_LIMIT

    assert DETERMINISTIC_LIMIT == 3317044064679887385961981
    assert is_probable_prime(2**127 - 1)  # Mersenne prime
    composite = (2**128 + 1)  # 59649589127497217 * 5704689200685129054721
    assert composite % 59649589127497217 == 0
    assert not is_probable_prime(composite)


# psi_k of OEIS A014233, the least strong pseudoprime to the first k prime
# bases, as a product of primes: each bound is composite by construction
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def fools_base(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong-pseudoprime test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_witnesses_are_the_first_primes():
    flags = sieve(42)
    assert list(integerkit._WITNESSES) == [n for n in range(42) if flags[n]]
    assert len(integerkit._PSI) == len(integerkit._WITNESSES)


@pytest.mark.parametrize("k", range(1, 14))
def test_each_bound_fools_the_first_k_bases(k):
    psi = integerkit._PSI[k - 1]
    assert math.prod(PSI_FACTORS[psi]) == psi
    assert all(fools_base(psi, a) for a in integerkit._WITNESSES[:k])
    assert not is_probable_prime(psi)


def test_factorize_splits_the_least_pseudoprime_to_bases_2_to_31(monkeypatch):
    monkeypatch.setattr(integerkit, "TRIAL_LIMIT", 100)
    n = 149491 * 747451 * 34233211
    assert factorize(n) == (((149491, 1), (747451, 1), (34233211, 1)), 1)


def test_agrees_with_sieve_up_to_one_million():
    limit = 10**6
    flags = sieve(limit)
    for n in range(limit):
        assert is_probable_prime(n) == flags[n], n


def test_factorize_3356():
    assert factorize(3356) == (((2, 2), (839, 1)), 1)


def test_factorize_unit():
    assert factorize(1) == ((), 1)


def test_factorize_reassembles_random_values(monkeypatch):
    # 10^4 values spread over widths up to 2^128; partial results must
    # still reassemble through their cofactor
    monkeypatch.setattr(integerkit, "TRIAL_LIMIT", 3_000)
    monkeypatch.setattr(integerkit, "RHO_ITERS", 2_000)
    rng = random.Random(1)
    for _ in range(10_000):
        bits = rng.choice((32, 48, 64, 96, 128))
        n = rng.randrange(1, 1 << bits)
        factors, cofactor = factorize(n)
        assert math.prod(p**e for p, e in factors) * cofactor == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        for p, e in factors:
            assert e >= 1
            assert is_probable_prime(p)


def test_factorize_partial_is_marked(monkeypatch):
    # two 16-digit primes; rho with a tiny budget cannot split the product
    monkeypatch.setattr(integerkit, "TRIAL_LIMIT", 100)
    monkeypatch.setattr(integerkit, "RHO_ITERS", 10)
    a = 1000000000000037
    b = 1000000000000091
    assert factorize(a * b) == ((), a * b)


def test_factorize_reads_its_budget_at_call_time(monkeypatch):
    # factorize has one budget, the module constants, read on each call
    a = 10000019
    b = 10000079
    assert factorize(a * b) == (((a, 1), (b, 1)), 1)
    monkeypatch.setattr(integerkit, "TRIAL_LIMIT", 100)
    monkeypatch.setattr(integerkit, "RHO_ITERS", 10)
    assert factorize(a * b) == ((), a * b)


@pytest.mark.parametrize("limit, p, q", [(100, 1009, 1013), (integerkit.TRIAL_LIMIT, 1000003, 1000033)])
def test_factorize_counts_exponents_above_the_wall(monkeypatch, limit, p, q):
    # rho splits p*p*q and p**3 into pieces that each count once
    monkeypatch.setattr(integerkit, "TRIAL_LIMIT", limit)
    assert p > limit and q > limit
    assert factorize(p * p * q) == (((p, 2), (q, 1)), 1)
    assert factorize(p**3) == (((p, 3),), 1)


def test_trial_division_unit():
    assert trial_division(1, 100) == ((), 1)


def test_trial_division_smooth():
    assert trial_division(2**5 * 3**2 * 5 * 7**2, 100) == (((2, 5), (3, 2), (5, 1), (7, 2)), 1)


def test_trial_division_prime_rest():
    # 839 is prime: the scan stops once d * d exceeds the rest, below the limit
    assert trial_division(4 * 839, 100) == (((2, 2),), 839)
    assert trial_division(4 * 839, 10**6) == (((2, 2),), 839)


def test_trial_division_composite_rest():
    # both primes of the rest lie above the limit
    a, b = 1009, 1013
    assert trial_division(2 * 7**3 * a * b, 1000) == (((2, 1), (7, 3)), a * b)


def test_trial_division_rejects_zero():
    with pytest.raises(ValueError):
        trial_division(0, 100)


def odd_loop_trial_division(n: int, limit: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The reference: trial division by 2 and then every odd d, as the
    package did before it tried primes only."""
    found = []
    m = n
    d = 2
    while d <= limit and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            found.append((d, e))
        d += 1 if d == 2 else 2
    return tuple(found), m


LIMITS = (0, 1, 2, 3, 100, 10**4, 10**6)
LARGEST_PRIME_BELOW_MILLION = 999983


@st.composite
def prime_rests(draw) -> int:
    """A smooth part times a prime r above its primes: the scan ends on
    d * d > m with r as the rest whenever the limit reaches 13."""
    r = draw(st.integers(17, 10**6))
    while not is_probable_prime(r):
        r += 1
    smooth = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=40))
    return math.prod(smooth) * r


@st.composite
def wide_integers(draw) -> int:
    """n of a width drawn evenly up to 256 bits, its lower bits random;
    plain st.integers favours small and boundary values."""
    bits = draw(st.integers(1, 256))
    return draw(st.randoms()).getrandbits(bits) | 1 << (bits - 1)


def cold_trial_division(n: int, limit: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """trial_division with the cached prime tables dropped first, so the
    table it scans is sieved afresh."""
    integerkit._prime_blocks.cache_clear()
    return trial_division(n, limit)


@settings(max_examples=100, deadline=None)
@given(n=wide_integers() | prime_rests(), limit=st.sampled_from(LIMITS))
def test_trial_division_matches_odd_loop(n, limit):
    expected = odd_loop_trial_division(n, limit)
    assert cold_trial_division(n, limit) == expected
    assert trial_division(n, limit) == expected


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("n", [
    LARGEST_PRIME_BELOW_MILLION**2,
    3 * LARGEST_PRIME_BELOW_MILLION**2,
    2 * LARGEST_PRIME_BELOW_MILLION,
])
def test_trial_division_at_the_largest_table_prime(n, limit):
    expected = odd_loop_trial_division(n, limit)
    assert cold_trial_division(n, limit) == expected
    assert trial_division(n, limit) == expected


def test_prime_table_to_one_million():
    integerkit._prime_blocks.cache_clear()
    table, _ = integerkit._prime_blocks(10**6)
    assert len(table) == 78498
    assert table[-1] == LARGEST_PRIME_BELOW_MILLION


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 8, 9, 15, 16, 25, 49, 50, 121, 1024, 10**6])
def test_prime_table_matches_sieve(bound):
    table, _ = integerkit._prime_blocks(bound)
    assert list(table) == [i for i, prime in enumerate(sieve(bound + 1)) if prime]


def test_small_orders_build_a_small_table(monkeypatch):
    # Jacobian orders over F_p with p <= 31 stay below (sqrt(31) + 1)^4
    bounds = set()
    prime_blocks = integerkit._prime_blocks
    monkeypatch.setattr(integerkit, "_prime_blocks",
                        lambda bound: bounds.add(bound) or prime_blocks(bound))
    for n in range(1, 1861):
        factorize(n)
    assert max(bounds) <= 2**10


MERSENNE_89 = 2**89 - 1  # prime, far above the trial wall


def million_table() -> list[int]:
    return list(integerkit._prime_blocks(10**6)[0])


@pytest.mark.parametrize("index", [
    0,                          # 2, the first prime of block 0
    integerkit._BLOCK - 1,      # the last prime of block 0
    integerkit._BLOCK,          # the first prime of block 1
    3 * integerkit._BLOCK - 1,  # the last prime of block 2
    -2,                         # in the partial trailing block
    -1,                         # 999983, the last prime of the table
])
@pytest.mark.parametrize("e", [1, 3])
def test_trial_division_single_small_prime_at_block_edges(index, e):
    table = million_table()
    assert len(table) % integerkit._BLOCK != 0  # the last block is partial
    q = table[index]
    expected = (((q, e),), MERSENNE_89)
    assert cold_trial_division(q**e * MERSENNE_89, 10**6) == expected
    assert trial_division(q**e * MERSENNE_89, 10**6) == expected


@pytest.mark.parametrize("limit", LIMITS)
def test_trial_division_across_the_first_block_boundary(limit):
    # the last prime of block 0 times the first prime of block 1: the scan
    # must stop on the square root of the rest, one prime into block 1
    a, b = million_table()[integerkit._BLOCK - 1 : integerkit._BLOCK + 1]
    expected = odd_loop_trial_division(a * b, limit)
    assert cold_trial_division(a * b, limit) == expected
    assert trial_division(a * b, limit) == expected
    if limit >= a:
        assert expected == (((a, 1),), b)


def test_grown_table_matches_cold_table():
    # both limits in one process give what each gives in a process of its own
    rng = random.Random(5)
    values = [rng.getrandbits(rng.randrange(8, 257)) | 1 for _ in range(200)]
    integerkit._prime_blocks.cache_clear()
    cold = [trial_division(n, 10**6) for n in values]
    integerkit._prime_blocks.cache_clear()
    small = [trial_division(n, 10**4) for n in values]
    assert [trial_division(n, 10**6) for n in values] == cold
    assert [trial_division(n, 10**4) for n in values] == small
    # the bounds are min(limit, 2**k): 2**0 to 2**19, 10**4 and 10**6
    assert integerkit._prime_blocks.cache_info().currsize <= 22


# 1619 and 3671 are the 256th and 512th primes: tables of exactly one or two
# full blocks at _BLOCK = 256, and one more prime after each
@pytest.mark.parametrize("bound", [1, 2, 100, 1619, 1621, 3671, 3673, 10**4, 10**6])
def test_block_products(bound):
    table, products = integerkit._prime_blocks(bound)
    blocks = [table[i : i + integerkit._BLOCK] for i in range(0, len(table), integerkit._BLOCK)]
    assert len(products) == len(blocks)
    for product, block in zip(products, blocks):
        assert product == math.prod(block)


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(-24, 2) == 3
    assert valuation(12, 5) == 0
    assert valuation(3**7, -3) == 7


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_valuation_rejects_units_and_zero(q):
    with pytest.raises(ValueError):
        valuation(12, q)


def test_import_builds_no_prime_table():
    src = Path(integerkit.__file__).resolve().parents[1]
    code = ("import cmgenus2; from cmgenus2 import integerkit; "
            "print(integerkit._prime_blocks.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "0"


def test_divisors_small():
    assert divisors(factorize(4)[0]) == [1, 2, 4]
    assert divisors(factorize(6)[0]) == [1, 2, 3, 6]
    assert divisors(factorize(3356)[0]) == [1, 2, 4, 839, 1678, 3356]
    assert divisors(()) == [1]


def test_divisors_properties():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        factors = factorize(n)[0]
        ds = divisors(factors)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(set(ds))
        count = 1
        for _, e in factors:
            count *= e + 1
        assert len(ds) == count
