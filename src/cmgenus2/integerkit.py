"""Arbitrary-precision integer utilities: primality, factoring, valuations, divisors.

Primality is strong-pseudoprime (Miller-Rabin) testing with one rule:
the first k primes, as bases, decide every n below psi_k, the least
strong pseudoprime to all of them (OEIS A014233; k = 12 and 13 are
Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86, 2017).  So answers below psi_13 = 3.3 * 10**24 are exact.
Above it 24 rounds follow, their witnesses a fixed function of n: a
reproducible heuristic, not an error bound for any given n, as composites
that pass fixed prime bases can be built (Arnault, J. Symbolic Comput. 20,
1995).  ROADMAP.md item 16 replaces those rounds with BPSW.

Factoring is trial division over a table of small primes followed by
Pollard rho with Brent cycle detection, up to ``TRIAL_LIMIT`` and for
``RHO_ITERS`` steps, the one budget.  Trial division skips each block of
256 consecutive primes whose product is coprime to the rest with one gcd
(the simplest case of Bernstein's product trees, "How to find smooth
parts of integers", 2004).  A table and its block products are sieved
once per bound and cached; the bounds are powers of two or a limit, so
a process keeps about log2(limit) of them.  The table to 10**6 takes
about 20 ms of products on top of a 24 ms sieve.
It is deliberately cheap: the numbers this package meets are smooth times
at most one large prime cofactor.  When the budget runs out, the rest in
``factorize``'s (prime powers, rest) pair is the unfactored composite.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import cache
from itertools import compress

# The first 13 primes, tried as trial divisors and then as bases in turn,
# and psi_k of OEIS A014233: once the k-th base passes, n < psi_k is prime.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)

DETERMINISTIC_LIMIT = _PSI[-1]

_RANDOM_ROUNDS = 24

# the factoring budget of ``factorize``, read at call time
TRIAL_LIMIT = 10**6
RHO_ITERS = 2_000_000

# trial division tests this many consecutive primes of the table at once,
# by one gcd with their product
_BLOCK = 256


def is_probable_prime(n: int) -> bool:
    """Strong-pseudoprime test.

    The first k primes decide n < psi_k (OEIS A014233), so the answer is
    exact below ``DETERMINISTIC_LIMIT`` = psi_13 = 3.317e24.  Above it, 24
    witnesses seeded from n follow the 13 bases: a reproducible heuristic,
    not an error bound for a given n (see the module docstring).
    """
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p

    s = valuation(n - 1, 2)
    d = (n - 1) >> s

    def witness_passes(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    for a, psi in zip(_WITNESSES, _PSI):
        if not witness_passes(a):
            return False
        if n < psi:
            return True
    rng = random.Random(n)
    return all(witness_passes(rng.randrange(2, n - 1)) for _ in range(_RANDOM_ROUNDS))


def _brent_rho(n: int, rng: random.Random, max_iters: int) -> int:
    """Find a nontrivial factor of odd composite n, or 0 within budget.

    Brent's cycle-detection variant with batched gcds.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    while spent < max_iters:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
        # cycle degenerated, retry with a new polynomial
    return 0


@cache
def _prime_blocks(bound: int) -> tuple[array, tuple[int, ...]]:
    """Every prime up to ``bound``, ascending, and the product of each
    ``_BLOCK`` of them in turn; sieved over the odd numbers once per bound."""
    size = (bound - 1) // 2  # flags[i] stands for 2*i + 3
    flags = bytearray([1]) * size
    for i in range((math.isqrt(max(bound, 0)) - 1) // 2):
        if flags[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    table = array("I", [2] if bound >= 2 else [])
    table.extend(compress(range(3, bound + 1, 2), flags))
    return table, tuple(math.prod(table[i:i + _BLOCK]) for i in range(0, len(table), _BLOCK))


def trial_division(n: int, limit: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The prime powers of n >= 1 found by trial division up to ``limit``,
    ascending, and the rest: 1, a prime, or a composite with no prime
    factor up to ``limit``.

    Only primes are tried, and the scan stops at the first prime above
    ``limit`` or above the square root of the rest.  The prime table is
    sized from isqrt(n), rounded up to a power of two and capped at
    ``limit``, so small n never sieve far and few sizes are cached.  The
    table is walked a block of ``_BLOCK`` primes at a time: a block whose
    product is coprime to the rest is skipped whole, any other is scanned
    prime by prime.
    """
    if n < 1:
        raise ValueError("trial division requires n >= 1")
    root = math.isqrt(n)
    found = []
    m = n
    top = min(limit, root)
    table, products = _prime_blocks(min(limit, 1 << (root - 1).bit_length()))
    for start, product in zip(range(0, len(table), _BLOCK), products):
        if table[start] > top:
            break
        if math.gcd(product, m) == 1:
            continue
        for p in table[start:start + _BLOCK]:
            if p > top:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                found.append((p, e))
                top = min(limit, math.isqrt(m))
    return tuple(found), m


def factorize(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Factor n >= 1 by trial division to ``TRIAL_LIMIT``, then Brent rho.

    Returns (factors, cofactor) as ``trial_division`` does, with every
    listed prime past the primality test; cofactor is 1 unless some
    composite does not split within ``RHO_ITERS`` rho steps.  Both
    limits are read at call time.
    """
    small, m = trial_division(n, TRIAL_LIMIT)
    found = dict(small)
    rng = random.Random(n << 16)
    pending = [m] if m > 1 else []
    cofactor = 1
    while pending:
        c = pending.pop()
        if is_probable_prime(c):
            found[c] = found.get(c, 0) + 1
        elif g := _brent_rho(c, rng, RHO_ITERS):
            pending += (g, c // g)
        else:
            cofactor *= c
    return tuple(sorted(found.items())), cofactor


def valuation(n: int, q: int) -> int:
    """The exponent of the prime q in n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded")
    if abs(q) < 2:
        raise ValueError("valuation needs |q| >= 2")
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def divisors(factors: tuple[tuple[int, int], ...]) -> list[int]:
    """All divisors of prod(p**e) over the prime powers ``factors``,
    ascending; there are prod(e + 1) of them."""
    out = [1]
    for p, e in factors:
        powers = [p**k for k in range(e + 1)]
        out = [d * q for d in out for q in powers]
    out.sort()
    return out
