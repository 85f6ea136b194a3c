import random

import pytest

from cmgenus2.cmfield import validate
from cmgenus2.frobenius import (
    char_poly,
    closed_form_char_poly,
    group_order_oracle,
    hasse_weil_check,
    twist_order,
)
from cmgenus2.primegen import (
    make_certificate,
    search_prime,
    solve_divisor_equation,
)
from cmgenus2.quartic import QuarticInt, char_poly_oracle, norm_residual

F2 = validate(2, 2, 1)
F3 = validate(3, 5, 2)
F5 = validate(5, 6, 2)
F13 = validate(13, 7, 2)


def random_valid_omegas(field, rng, count, pair_bound=60):
    """Random coordinates with rational complex norm (norm may be composite)."""
    out = []
    while len(out) < count:
        c3 = rng.randrange(1, pair_bound) * rng.choice((1, -1))
        c4 = rng.randrange(1, pair_bound) * rng.choice((1, -1))
        sols = solve_divisor_equation(field, c3, c4)
        if not sols:
            continue
        c1, c2 = rng.choice(sols)
        out.append((c1, c2, c3, c4))
    return out


def test_reference_char_poly():
    cert = make_certificate(F2, (7, -1, 2, 1))
    coeffs = char_poly(cert)
    assert coeffs == (1, -28, 330, -1988, 5041)
    assert sum(coeffs) == 3356
    assert twist_order(coeffs) == 1 + 28 + 330 + 1988 + 5041 == 7388


def test_formula_collapses_without_real_part():
    # c1 = c2 = 0 gives X^4 + 2p X^2 + p^2 = (X^2 + p)^2
    coeffs = closed_form_char_poly(F2, (0, 0, 5, 1), 37)
    assert coeffs == (1, 0, 2 * 37, 0, 37 * 37)


def test_group_order_toy_det_oracle():
    assert group_order_oracle(F2, (7, -1, 2, 1)) == 3356


def test_closed_form_matches_oracle_everywhere():
    rng = random.Random(21)
    for field in (F2, F3, F5, F13):
        for c in random_valid_omegas(field, rng, 250):
            p, res = norm_residual(c, field)
            assert res == 0
            closed = list(closed_form_char_poly(field, c, p))
            assert closed == char_poly_oracle(QuarticInt(*c), field)
            assert sum(closed) == group_order_oracle(field, c)


def test_weil_symmetry():
    rng = random.Random(22)
    for field in (F2, F5):
        for c in random_valid_omegas(field, rng, 100):
            p, _ = norm_residual(c, field)
            _, t3, t2, t1, t0 = closed_form_char_poly(field, c, p)
            assert t1 == t3 * p
            assert t0 == p * p


def test_hasse_weil_reference():
    assert hasse_weil_check(3356, 71)
    assert not hasse_weil_check(1, 71)
    # exact boundaries for p = 71: (sqrt(71) -+ 1)^4 ~ 3041.27 and 7894.73
    assert not hasse_weil_check(3041, 71)
    assert hasse_weil_check(3042, 71)
    assert hasse_weil_check(7894, 71)
    assert not hasse_weil_check(7895, 71)


def test_hasse_weil_requires_odd_characteristic():
    with pytest.raises(ValueError):
        hasse_weil_check(10, 2)


def test_generated_orders_pass_hasse_weil():
    for seed in range(12):
        field = (F2, F3, F5, F13)[seed % 4]
        cert = search_prime(field, 30, seed)
        coeffs = char_poly(cert)
        assert hasse_weil_check(sum(coeffs), cert.p)
        assert hasse_weil_check(twist_order(coeffs), cert.p)


def test_twist_order_is_order_of_negated_omega():
    from cmgenus2.primegen import negate

    cert = make_certificate(F2, (7, -1, 2, 1))
    coeffs = char_poly(cert)
    coeffs_neg = char_poly(negate(cert))
    assert twist_order(coeffs) == sum(coeffs_neg)
    assert sum(coeffs) == twist_order(coeffs_neg)
