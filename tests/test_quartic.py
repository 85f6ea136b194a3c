import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmgenus2.cmfield import SUPPORTED_D, radicand_norm, validate
from cmgenus2.quartic import (
    QuarticInt,
    _k0_mul,
    char_poly_oracle,
    conj_complex,
    det4,
    mul,
    mult_matrix,
    norm_residual,
)

F2 = validate(2, 2, 1)
F3 = validate(3, 5, 2)
F5 = validate(5, 6, 2)
F13 = validate(13, 7, 2)

ALL_FIELDS = (F2, F3, F5, F13)


def rand_elt(rng, bound=1000):
    return QuarticInt(*(rng.randrange(-bound, bound) for _ in range(4)))


def test_xi_squared_reduction():
    xi = QuarticInt(0, 1, 0, 0)
    assert mul(xi, xi, F2) == (2, 0, 0, 0)
    # xi^2 = xi + 1 for D = 5
    assert mul(xi, xi, F5) == (1, 1, 0, 0)
    # on every supported D, xi = (e + sqrt(D))/f with (e, f) = (1, 2) for
    # D = 1 (mod 4), else (0, 1); xi^2 = t*xi + n holds exactly when both
    # parts of (e + sqrt(D))^2 - t*f*(e + sqrt(D)) - n*f^2 on {1, sqrt(D)}
    # vanish
    rng = random.Random(14)
    for D in sorted(SUPPORTED_D):
        field = validate(D, 1, 0)
        e, f = (1, 2) if D % 4 == 1 else (0, 1)
        n, t = _k0_mul((0, 1), (0, 1), field)
        assert (e * e + D - t * f * e - n * f * f, 2 * e - t * f) == (0, 0)
        for _ in range(50):
            x0, x1 = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
            # the real conjugate of x0 + x1*xi is x0 + x1*(t - xi)
            assert _k0_mul((x0, x1), (x0 + t * x1, -x1), field) == (radicand_norm(D, x0, x1), 0)


def test_eta_squared_reduction():
    eta = QuarticInt(0, 0, 1, 0)
    assert mul(eta, eta, F2) == (-2, -1, 0, 0)
    assert mul(eta, eta, F5) == (-6, -2, 0, 0)


def test_reference_product():
    u = QuarticInt(7, -1, 2, 1)
    v = QuarticInt(7, -1, -2, -1)
    assert mul(u, v, F2) == (71, 0, 0, 0)


def test_conjugation():
    u = QuarticInt(7, -1, 2, 1)
    assert conj_complex(u) == (7, -1, -2, -1)
    rng = random.Random(5)
    for _ in range(100):
        w = rand_elt(rng)
        assert conj_complex(conj_complex(w)) == w


def test_conjugation_is_ring_automorphism():
    rng = random.Random(6)
    for field in ALL_FIELDS:
        for _ in range(250):
            u, v = rand_elt(rng), rand_elt(rng)
            assert conj_complex(mul(u, v, field)) == mul(
                conj_complex(u), conj_complex(v), field
            )


def test_product_with_conjugate_lands_in_k0():
    rng = random.Random(7)
    for field in ALL_FIELDS:
        for _ in range(250):
            u = rand_elt(rng)
            prod = mul(u, conj_complex(u), field)
            assert prod.x2 == 0 and prod.x3 == 0


def test_ring_axioms():
    # 500 triples per field = 1000 per residue case
    rng = random.Random(8)

    def add(x, y):
        return QuarticInt(*(xi + yi for xi, yi in zip(x, y)))

    for field in ALL_FIELDS:
        for _ in range(500):
            u, v, w = rand_elt(rng), rand_elt(rng), rand_elt(rng)
            assert mul(u, v, field) == mul(v, u, field)
            assert mul(mul(u, v, field), w, field) == mul(u, mul(v, w, field), field)
            assert mul(u, add(v, w), field) == add(mul(u, v, field), mul(u, w, field))


def test_plain_4_tuple_is_an_element():
    rng = random.Random(15)
    for field in ALL_FIELDS:
        for _ in range(20):
            c, d = (tuple(rng.randrange(-1000, 1000) for _ in range(4)) for _ in range(2))
            u, v = QuarticInt(*c), QuarticInt(*d)
            assert mul(c, d, field) == mul(u, v, field)
            assert isinstance(mul(c, d, field), QuarticInt)
            assert conj_complex(c) == conj_complex(u)
            assert mult_matrix(c, field) == mult_matrix(u, field)
            assert char_poly_oracle(c, field) == char_poly_oracle(u, field)
    # + on two named tuples concatenates them: an 8-tuple is no element
    u = QuarticInt(7, -1, 2, 1)
    assert len(u + u) == 8
    with pytest.raises(ValueError):
        mul(u + u, u, F2)
    with pytest.raises(ValueError):
        mul(u, u + u, F2)


def test_mult_matrix_scalar():
    m = mult_matrix(QuarticInt(3, 0, 0, 0), F2)
    assert m == [[3 if i == j else 0 for j in range(4)] for i in range(4)]


def test_mult_matrix_is_multiplicative_and_unital():
    rng = random.Random(9)

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

    for field in ALL_FIELDS:
        identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert mult_matrix(QuarticInt(1, 0, 0, 0), field) == identity
        for _ in range(50):
            u, v = rand_elt(rng, 100), rand_elt(rng, 100)
            assert mult_matrix(mul(u, v, field), field) == matmul(
                mult_matrix(u, field), mult_matrix(v, field)
            )


def test_char_poly_oracle_scalar():
    # (X - 3)^4 = X^4 - 12X^3 + 54X^2 - 108X + 81
    assert char_poly_oracle(QuarticInt(3, 0, 0, 0), F2) == [1, -12, 54, -108, 81]


def test_char_poly_oracle_xi():
    # minimal polynomial of sqrt(2), squared: (X^2 - 2)^2
    assert char_poly_oracle(QuarticInt(0, 1, 0, 0), F2) == [1, 0, -4, 0, 4]


def test_char_poly_oracle_reference():
    assert char_poly_oracle(QuarticInt(7, -1, 2, 1), F2) == [1, -28, 330, -1988, 5041]


def test_det_equals_norm_squared():
    m = mult_matrix(QuarticInt(7, -1, 2, 1), F2)
    assert det4(m) == 71 * 71


def test_det_matches_constant_coefficient():
    rng = random.Random(10)
    for field in ALL_FIELDS:
        for _ in range(50):
            u = rand_elt(rng, 50)
            cp = char_poly_oracle(u, field)
            assert cp[4] == det4(mult_matrix(u, field))


def test_norm_residual_reference_values():
    assert norm_residual((7, -1, 2, 1), F2) == (71, 0)
    assert norm_residual((1, 0, 1, 0), F2) == (3, 1)


def test_norm_residual_published_prime():
    c = (3913314953099587393, -31, 4483312578, 6978049007)
    p, res = norm_residual(c, F2)
    assert p == 15314033922152826237436247359259334919
    assert res == 0


def test_norm_residual_case1_reference():
    c = (-119599772139239, 10558310, 8962061730, 9797803138)
    p, res = norm_residual(c, F5)
    assert p == 14304107096878940330893123933
    assert res == 0


def test_norm_residual_agrees_with_ring_on_random_input():
    # the O_K0 product must match full-ring multiplication on every
    # input, including invalid elements with nonzero residual
    rng = random.Random(12)
    for field in ALL_FIELDS:
        for _ in range(1000):
            c = tuple(rng.randrange(-500, 500) for _ in range(4))
            p_part, z_part = norm_residual(c, field)
            u = QuarticInt(*c)
            assert mul(u, conj_complex(u), field) == (p_part, z_part, 0, 0)


@st.composite
def wide_coordinates(draw) -> tuple[int, int, int, int]:
    """Four signed coordinates, each of a width drawn evenly up to 300
    bits with random lower bits; plain st.integers favours small values."""
    rnd = draw(st.randoms())
    out = []
    for _ in range(4):
        bits = draw(st.integers(0, 300))
        out.append(rnd.choice((1, -1)) * rnd.getrandbits(bits))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(ALL_FIELDS), c=wide_coordinates())
def test_norm_residual_is_the_full_ring_product(field, c):
    # norm_residual computes in O_K0 only; the full ring product stays
    # the independent oracle, its eta-coordinates identically 0
    p_part, z_part = norm_residual(c, field)
    u = QuarticInt(*c)
    assert mul(u, conj_complex(u), field) == (p_part, z_part, 0, 0)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(ALL_FIELDS), c=wide_coordinates())
def test_char_poly_oracle_annihilates_its_element(field, c):
    # Cayley-Hamilton through `mul`, which shares no code with det4:
    # Horner's rule on the oracle's coefficients must give 0 at omega
    u = QuarticInt(*c)
    one, t3, t2, t1, t0 = char_poly_oracle(u, field)
    m = mult_matrix(u, field)
    assert (one, t3) == (1, -sum(m[i][i] for i in range(4)))
    acc = (1, 0, 0, 0)
    for coeff in (t3, t2, t1, t0):
        x0, x1, x2, x3 = mul(acc, u, field)
        acc = (x0 + coeff, x1, x2, x3)
    assert acc == (0, 0, 0, 0)


def test_det_of_norm_form():
    rng = random.Random(13)
    for field in ALL_FIELDS:
        for _ in range(100):
            c = tuple(rng.randrange(-200, 200) for _ in range(4))
            p_part, z_part = norm_residual(c, field)
            if z_part == 0:
                assert det4(mult_matrix(QuarticInt(*c), field)) == p_part * p_part
