import math
import random
import re
from collections import Counter

import pytest

from cmgenus2 import cantor
from cmgenus2.cantor import (
    GenusTwoCurve,
    IDENTITY,
    MumfordDivisor,
    _cantor,
    _trim,
    all_divisors,
    compose,
    enumerate_jacobian,
    is_valid_divisor,
    negate,
    p_add,
    p_divmod,
    p_mod,
    p_mul,
    p_neg,
    p_sub,
    p_xgcd,
    padded_invariant_factors,
    point_count_order,
    random_curve,
    scalar_mul,
)
from cmgenus2.frobenius import hasse_weil_check
from cmgenus2.integerkit import factorize

C5 = GenusTwoCurve(5, (0, 1, 0, 0, 0, 1))  # y^2 = x^5 + x over F_5


def test_poly_divmod_random():
    rng = random.Random(41)
    for _ in range(300):
        p = rng.choice((5, 7, 11))
        a = tuple(rng.randrange(p) for _ in range(rng.randrange(7)))
        b = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5)))
        a = tuple(a[: len(a)])
        if not b or all(x == 0 for x in b):
            continue
        from cmgenus2.cantor import _trim

        a, b = _trim(list(a)), _trim(list(b))
        if not b:
            continue
        q, r = p_divmod(a, b, p)
        assert p_add(p_mul(q, b, p), r, p) == a
        assert len(r) < len(b)


def test_poly_xgcd_bezout():
    rng = random.Random(42)
    for _ in range(300):
        p = rng.choice((5, 7, 13))
        from cmgenus2.cantor import _trim

        a = _trim([rng.randrange(p) for _ in range(rng.randrange(6))])
        b = _trim([rng.randrange(p) for _ in range(rng.randrange(6))])
        g, s, t = p_xgcd(a, b, p)
        assert p_add(p_mul(s, a, p), p_mul(t, b, p), p) == g
        if g:
            assert g[-1] == 1
            assert p_divmod(a, g, p)[1] == ()
            assert p_divmod(b, g, p)[1] == ()


def test_curve_validation():
    with pytest.raises(ValueError):
        GenusTwoCurve(4, (0, 1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        GenusTwoCurve(67, (0, 1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        GenusTwoCurve(5, (0, 1, 0, 0, 1))  # degree 4
    with pytest.raises(ValueError):
        GenusTwoCurve(5, (0, 0, 0, 0, 0, 1))  # x^5 has multiple root 0


def test_all_divisors_are_valid():
    for curve in (C5, GenusTwoCurve(7, (3, 1, 0, 0, 0, 1))):
        ds = all_divisors(curve)
        assert len(ds) == len(set(ds))
        for d in ds:
            assert is_valid_divisor(d, curve)


def _brute_force_divisors(curve):
    """Every pair with u monic of degree <= 2, deg v < deg u and
    u | f - v^2, in the order all_divisors lists them: by degree, a
    point's u by its root, a quadratic u by (u1, u0), v by (v1, v0)."""
    p, f = curve.p, curve.f
    pairs = [((1,), ())]
    pairs += [((-r % p, 1), _trim([s])) for r in range(p) for s in range(p)]
    pairs += [((u0, u1, 1), _trim([v0, v1])) for u1 in range(p) for u0 in range(p)
              for v1 in range(p) for v0 in range(p)]
    return [MumfordDivisor(u, v) for u, v in pairs if not p_mod(p_sub(f, p_mul(v, v, p), p), u, p)]


def test_all_divisors_match_brute_force():
    rng = random.Random(48)
    curves = [random_curve(rng, pmax=p, pmin=p) for p in (5, 5, 7, 7, 11, 13)]
    with_v1_zero = 0  # degree-2 classes with v1 = 0 need f mod u = f0
    for curve in curves:
        expected = _brute_force_divisors(curve)
        assert all_divisors(curve) == expected, curve
        with_v1_zero += sum(1 for d in expected if len(d.u) == 3 and len(d.v) < 2)
    assert with_v1_zero


def test_all_divisors_rejects_a_repeated_root():
    # on y^2 = x^5, u = x^2 divides f - v^2 for every v = v1 x; so does
    # u = (x - 2)^2 on y^2 = (x - 2)^2 (x^3 + x + 1) over F_7, for every
    # v = v1 (x - 2)
    for p, f, u in [(5, (0, 0, 0, 0, 0, 1), (0, 0, 1)),
                    (7, p_mul((4, 3, 1), (1, 1, 0, 1), 7), (4, 3, 1))]:
        curve = object.__new__(GenusTwoCurve)
        object.__setattr__(curve, "p", p)
        object.__setattr__(curve, "f", f)
        with pytest.raises(RuntimeError, match=re.escape(f"not squarefree: every v1 solves u = {u}")):
            all_divisors(curve)


def _listing_key(d, p):
    """all_divisors' documented order: the identity, the points by root,
    then the quadratic u by (u1, u0), v by (v1, v0)."""
    u, (v0, v1) = d.u, (d.v + (0, 0))[:2]
    if len(u) == 1:
        return (0,)
    if len(u) == 2:
        return (1, -u[0] % p, 0, 0, v0)
    return (2, u[1], u[0], v1, v0)


def test_all_divisors_complete_at_every_prime():
    # two random curves per supported prime: distinct valid classes, as
    # many as point counting gives, in the documented order
    rng = random.Random(50)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        for _ in range(2):
            curve = random_curve(rng, pmax=p, pmin=p)
            ds = all_divisors(curve)
            keys = [_listing_key(d, p) for d in ds]
            assert keys == sorted(set(keys)), curve
            assert len(ds) == point_count_order(curve), curve
            assert all(is_valid_divisor(d, curve) for d in ds), curve


@pytest.mark.parametrize("p, f, u, rest", [
    (43, (3, 14, 28, 0, 13, 1), (12, 19, 1), "zero"),
    (53, (42, 48, 6, 25, 22, 1), (37, 4, 1), "square"),
    (53, (42, 48, 6, 25, 22, 1), (14, 0, 1), "nonsquare"),
])
def test_all_divisors_on_irreducible_u_with_constant_f_mod_u(p, f, u, rest):
    # f mod u = Y0 is constant (Y1 = 0) on an irreducible u = (x - a)^2 - w.
    # Y0 = 0 gives v = 0 alone; a nonzero square Y0 gives v = +-sqrt(Y0),
    # though the other root of the norm Y0^2 would put V0 = 0; a nonsquare
    # Y0 gives v = +-V1*(x - a) with V1^2 = Y0/w
    squares = {y * y % p for y in range(p)}
    assert (u[1] * u[1] - 4 * u[0]) % p not in squares
    y0 = p_mod(f, u, p)
    assert len(y0) <= 1
    assert rest == ("zero" if not y0 else "square" if y0[0] in squares else "nonsquare")
    vs = [_trim([v0, v1]) for v1 in range(p) for v0 in range(p)]
    expected = [MumfordDivisor(u, v) for v in vs if not p_mod(p_sub(f, p_mul(v, v, p), p), u, p)]
    assert len(expected) == (1 if rest == "zero" else 2)
    assert [d for d in all_divisors(GenusTwoCurve(p, f)) if d.u == u] == expected


def test_identity_and_inverses():
    # negate skips the reduction of -v mod u: deg v < deg u already
    rng = random.Random(49)
    curves = [C5] + [random_curve(rng, pmax=p, pmin=p) for p in (5, 7, 11, 13, 31)]
    for curve in curves:
        p = curve.p
        for d in all_divisors(curve):
            assert compose(IDENTITY, d, curve) == d
            assert negate(d, curve) == (d.u, p_mod(p_neg(d.v, p), d.u, p))
            assert compose(d, negate(d, curve), curve) == IDENTITY
    # a class is the plain tuple (u, v)
    d = MumfordDivisor((4, 1), (2,))
    assert d == ((4, 1), (2,)) and hash(d) == hash(((4, 1), (2,)))


def test_group_law_commutative_associative():
    rng = random.Random(43)
    for curve in (C5, GenusTwoCurve(11, (5, 2, 0, 1, 0, 1))):
        ds = all_divisors(curve)
        for _ in range(200):
            a, b, c = rng.choice(ds), rng.choice(ds), rng.choice(ds)
            ab = compose(a, b, curve)
            assert ab == compose(b, a, curve)
            assert ab in ds or is_valid_divisor(ab, curve)
            assert compose(ab, c, curve) == compose(a, compose(b, c, curve), curve)


def test_closure():
    ds = set(all_divisors(C5))
    for a in ds:
        for b in ds:
            assert compose(a, b, C5) in ds


CLOSED_FORMS = ("negation", "s1 = 0", "point + point", "point doubling", "point + degree 2",
                "split addition", "split doubling")
FALLBACKS = ("point on a root of u2", "u1 = u2, v1 != +-v2")


def _fallback_reason(a, b, curve, reference):
    """Which special case compose takes for (a, b): "identity", one of
    CLOSED_FORMS, one of the FALLBACKS left to ``_cantor``, or None for
    the generic degree-2 formulas; ``reference`` is the generic sum."""
    p = curve.p
    if IDENTITY in (a, b):
        return "identity"
    if a.u == b.u and not p_add(a.v, b.v, p):
        return "negation"
    if len(a.u) > len(b.u):
        a, b = b, a
    if len(a.u) == 2:
        if len(b.u) == 2:
            return "point doubling" if a == b else "point + point"
        return "point + degree 2" if p_divmod(b.u, a.u, p)[1] else "point on a root of u2"
    if a.u == b.u and a.v != b.v:
        return "u1 = u2, v1 != +-v2"
    other = b.u if a.u != b.u else p_add(a.v, a.v, p)  # res(u1, u2) or res(u, 2v)
    if len(p_xgcd(a.u, other, p)[0]) != 1:
        return "split addition" if a.u != b.u else "split doubling"
    if len(reference.u) < 3:  # deg u3 = 2 exactly when s1 != 0
        return "s1 = 0"
    return None


def _check_against_cantor(monkeypatch, curve, pairs, reasons):
    """compose equals _cantor on every pair; it calls _cantor exactly on
    the fallbacks, and a split's sub-sums reach it only as fallbacks."""
    fallbacks = []

    def spy(a, b, c):
        fallbacks.append((a, b))
        return _cantor(a, b, c)

    monkeypatch.setattr(cantor, "_cantor", spy)
    for a, b in pairs:
        fallbacks.clear()
        reference = _cantor(a, b, curve)
        reason = _fallback_reason(a, b, curve, reference)
        assert compose(a, b, curve) == reference, (curve, a, b)
        if reason in FALLBACKS:
            assert fallbacks in ([(a, b)], [(b, a)]), (a, b, reason)
        elif not reason or not reason.startswith("split"):
            assert fallbacks == [], (a, b, reason)
        for x, y in fallbacks:
            assert _fallback_reason(x, y, curve, _cantor(x, y, curve)) in FALLBACKS, (a, b, x, y)
        reasons[reason] += 1


def test_compose_matches_cantor_on_every_pair(monkeypatch):
    reasons = Counter()
    # groups of order 36, 81 and 70
    for curve in (C5, GenusTwoCurve(7, (3, 1, 0, 0, 0, 1)), GenusTwoCurve(11, (8, 7, 10, 3, 1, 1))):
        ds = all_divisors(curve)
        _check_against_cantor(monkeypatch, curve, [(a, b) for a in ds for b in ds], reasons)
    assert all(reasons[r] for r in CLOSED_FORMS + FALLBACKS), reasons
    assert reasons[None] > sum(reasons[r] for r in FALLBACKS)


def test_compose_matches_cantor_on_random_pairs(monkeypatch):
    rng = random.Random(47)
    for p in (31, 61):
        curve = random_curve(rng, pmax=p, pmin=p)
        ds = all_divisors(curve)
        pairs = [(rng.choice(ds), rng.choice(ds)) for _ in range(1500)]
        pairs += [(d, d) for d in rng.sample(ds, 500)]
        reasons = Counter()
        _check_against_cantor(monkeypatch, curve, pairs, reasons)
        assert reasons[None] > 1500, reasons


def _generic(*args):
    raise AssertionError("left to the generic path")


def test_explicit_formulas_check_their_division(monkeypatch):
    # (x^2 + 1, 1) is not on C5: f - v^2 = x^5 + x - 1 = 2x - 1 mod x^2 + 1
    bogus = MumfordDivisor((1, 0, 1), (1,))
    assert not is_valid_divisor(bogus, C5)
    monkeypatch.setattr(cantor, "_cantor", _generic)
    for other in (bogus, MumfordDivisor((1, 1, 1), (2,))):  # doubling, addition
        with pytest.raises(RuntimeError, match="does not divide"):
            compose(bogus, other, C5)


def test_point_plus_degree_2_checks_its_division(monkeypatch):
    # (x - 1, 1) is not on C5: f(1) = 2 is not 1; x^2 + 1 does not vanish
    # at 1, so the sums below take the point-plus-degree-2 formula
    bogus = MumfordDivisor((4, 1), (1,))
    assert not is_valid_divisor(bogus, C5)
    monkeypatch.setattr(cantor, "_cantor", _generic)
    on_curve = [d for d in all_divisors(C5) if d.u == (1, 0, 1)]
    assert on_curve
    for other in on_curve:
        for a, b in ((bogus, other), (other, bogus)):
            with pytest.raises(RuntimeError, match="does not divide"):
                compose(a, b, C5)


def test_element_orders_divide_group_order():
    N, _ = enumerate_jacobian(C5)
    for d in all_divisors(C5):
        assert scalar_mul(N, d, C5) == IDENTITY


def test_enumerate_reference_curve():
    N, factors = enumerate_jacobian(C5)
    assert hasse_weil_check(N, 5)  # (sqrt(5)-1)^4 ~ 2.3, (sqrt(5)+1)^4 ~ 109.7
    assert 3 <= N <= 109
    assert 1 <= len(factors) <= 4
    prod = 1
    for d in factors:
        prod *= d
    assert prod == N


def test_order_against_point_count_identity():
    rng = random.Random(44)
    for pmin, pmax in [(5, 23)] * 12 + [(37, 61)] * 3:
        curve = random_curve(rng, pmax=pmax, pmin=pmin)
        N, _ = enumerate_jacobian(curve)
        assert N == point_count_order(curve), curve


def test_enumeration_at_largest_supported_field():
    rng = random.Random(61)
    curve = random_curve(rng, pmax=61, pmin=53)
    N, factors = enumerate_jacobian(curve)
    assert N == point_count_order(curve)
    assert hasse_weil_check(N, curve.p)
    assert (curve.p - 1) % padded_invariant_factors(factors)[1] == 0


def test_torsion_counts_match_structure():
    # number of d-torsion elements is prod_i gcd(d, d_i)
    # (scalar_mul does not use enumerate_jacobian's doubling table); every
    # prime q | N is counted too, so that one dividing N once, whose
    # chain enumerate_jacobian takes without a map, has exactly q
    rng = random.Random(45)
    simple = []
    for _ in range(6):
        curve = random_curve(rng, pmax=31)
        N, factors = enumerate_jacobian(curve)
        ds = all_divisors(curve)
        prime_powers = factorize(N)[0]
        for d in sorted(set(range(2, 13)) | {q for q, _ in prime_powers}):
            count = sum(1 for x in ds if scalar_mul(d, x, curve) == IDENTITY)
            expect = 1
            for fac in factors:
                expect *= math.gcd(d, fac)
            assert count == expect
            if (d, 1) in prime_powers:
                assert count == d
                simple.append(d)
    assert max(simple) > 12, simple


def test_squarefree_order_composes_nothing(monkeypatch):
    # every Sylow subgroup has prime order, so no multiplication map runs;
    # N = 30 = 2 * 3 * 5 at p = 5 and N = 77 = 7 * 11 at p = 7
    def no_compose(*args):
        raise RuntimeError("enumerate_jacobian composed a divisor")

    curves = (GenusTwoCurve(5, (1, 4, 4, 3, 1, 1)), GenusTwoCurve(7, (1, 3, 5, 0, 0, 1)))
    expected = [[30], [77]]
    monkeypatch.setattr(cantor, "compose", no_compose)
    assert [enumerate_jacobian(c)[1] for c in curves] == expected


def test_padded_invariant_factors():
    assert padded_invariant_factors([2, 6]) == (1, 1, 2, 6)
    assert padded_invariant_factors([5]) == (1, 1, 1, 5)
    with pytest.raises(ValueError):
        padded_invariant_factors([3, 4])
    with pytest.raises(ValueError):
        padded_invariant_factors([2, 2, 2, 2, 2])


def test_structure_theorem_on_random_curves():
    rng = random.Random(46)
    for pmin, pmax in [(5, 19)] * 10 + [(37, 61)] * 3:
        curve = random_curve(rng, pmax=pmax, pmin=pmin)
        N, factors = enumerate_jacobian(curve)
        assert hasse_weil_check(N, curve.p)
        padded = padded_invariant_factors(factors)
        assert (curve.p - 1) % padded[1] == 0


def test_random_curve_determinism():
    a = random_curve(random.Random(7), pmax=31)
    b = random_curve(random.Random(7), pmax=31)
    assert a == b


@pytest.mark.parametrize("pmin, pmax", [(67, 67), (2, 3), (62, 66), (8, 10), (14, 13)])
def test_random_curve_rejects_a_range_without_a_curve_prime(pmin, pmax):
    # GenusTwoCurve rejects every prime of such a range, so redrawing
    # would never end
    with pytest.raises(ValueError, match=rf"no prime in \[{pmin}, {pmax}\] lies in 5\.\.61"):
        random_curve(random.Random(0), pmax=pmax, pmin=pmin)


def test_random_curve_redraws_primes_below_five():
    assert {random_curve(random.Random(seed), pmax=7, pmin=2).p for seed in range(20)} == {5, 7}


def test_three_invariant_factors_frozen():
    # expected values frozen from the independent torsion-count oracle:
    # d-torsion size equals prod gcd(d, d_i) for d in 2..12
    curve = GenusTwoCurve(7, (1, 4, 3, 4, 5, 1))
    N, factors = enumerate_jacobian(curve)
    assert N == 64
    assert factors == [2, 2, 16]
    assert padded_invariant_factors(factors) == (1, 2, 2, 16)
    assert (curve.p - 1) % 2 == 0
    ds = all_divisors(curve)
    for d in (2, 4, 8, 16):
        count = sum(1 for x in ds if scalar_mul(d, x, curve) == IDENTITY)
        expect = 1
        for fac in factors:
            expect *= math.gcd(d, fac)
        assert count == expect


@pytest.mark.parametrize(
    "seed, order, factors, sylow",
    [(10, 112, [2, 2, 28], 16), (8, 16, [4, 4], 16)],
    ids=["proper-non-cyclic", "q-group"])
def test_sylow_maps_match_torsion_counts(seed, order, factors, sylow):
    # at p = 11 (seed 10) S_2 = Z/2 x Z/2 x Z/4 is built by closure inside
    # N = 112; at p = 5 (seed 8) J = Z/4 x Z/4 is its own S_2, every index
    # with nothing composed.  The maps run on S_2 alone, so the factors are
    # checked against torsion counts over all of J, from scalar_mul, and
    # S_2 against the 16-torsion
    curve = random_curve(random.Random(seed), pmax=11)
    assert enumerate_jacobian(curve) == (order, factors)
    ds = all_divisors(curve)
    for d in sorted(set(range(2, 17)) | {28}):
        count = sum(1 for x in ds if scalar_mul(d, x, curve) == IDENTITY)
        assert count == math.prod(math.gcd(d, fac) for fac in factors), d
    index = {d: i for i, d in enumerate(ds)}
    calls = []

    def add(a, b):
        calls.append((a, b))
        return index[compose(ds[a], ds[b], curve)]

    members = cantor._sylow_subgroup(len(ds), 2, sylow, add)
    assert (len(calls) == 0) == (sylow == order)
    assert members[0] == 0 and len(set(members)) == sylow
    assert sorted(members) == [i for i, x in enumerate(ds)
                               if scalar_mul(sylow, x, curve) == IDENTITY]


def test_image_counts_rejects_a_sum_outside_the_sylow_subgroup(monkeypatch):
    # at pmax 11, seed 0 draws N = 40 = 2^3 * 5; a doubling of S_2 that
    # lands on a class of order 5 is on the curve but not in S_2
    curve = random_curve(random.Random(0), pmax=11)
    elements = all_divisors(curve)
    index = cantor._Index((d, i) for i, d in enumerate(elements))
    members = cantor._sylow_subgroup(
        40, 2, 8, lambda a, b: index[compose(elements[a], elements[b], curve)])
    order_five = MumfordDivisor((3, 5, 1), (2, 1))
    assert order_five in index and index[order_five] not in members
    real = cantor.compose
    monkeypatch.setattr(cantor, "compose",
                        lambda d1, d2, c: order_five if d1 == d2 else real(d1, d2, c))
    with pytest.raises(RuntimeError) as err:
        cantor._image_counts(members, elements, index, 2, curve)
    assert str(err.value) == f"{order_five} is not in the Sylow 2-subgroup"


def test_image_counts_rejects_growing_ratios(monkeypatch):
    # a doubling map on 16 stand-in classes whose iterated images have
    # 16, 8, 2, 1 elements: every ratio is a power of 2, but the counts
    # [1, 2, 1] grow, which no 2-group allows.  -P swaps 2k and 2k + 1
    # above 1, so 2P = 0 exactly at the fixed points 0 and 1
    double = [0, 0, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 2, 3]
    monkeypatch.setattr(cantor, "negate", lambda d, curve: d ^ 1 if d > 1 else d)
    monkeypatch.setattr(cantor, "compose", lambda d1, d2, curve: double[d1])
    index = cantor._Index((i, i) for i in range(16))
    with pytest.raises(RuntimeError, match=r"^image size ratios of multiplication by 2 grow$"):
        cantor._image_counts(list(range(16)), list(range(16)), index, 2, None)


def test_mumford_fast_constructor_keeps_the_named_tuple():
    d = cantor._mumford(((4, 1), (2,)))
    assert type(d) is MumfordDivisor and d == MumfordDivisor((4, 1), (2,))
    assert repr(d) == "MumfordDivisor(u=(4, 1), v=(2,))" and d.u == (4, 1) and d.v == (2,)
    curve = GenusTwoCurve(7, (3, 1, 0, 0, 0, 1))
    assert all(type(x) is MumfordDivisor for x in all_divisors(curve))
    assert all(type(negate(x, curve)) is MumfordDivisor for x in all_divisors(curve))
