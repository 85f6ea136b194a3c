import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmgenus2.cmfield import (
    SUPPORTED_D,
    Basis,
    NonIntegralConversion,
    NotTotallyPositive,
    NotPrimitive,
    UnsupportedD,
    basis_convert,
    compute_Q,
    is_primitive,
    require_primitive,
    validate,
)


def test_validate_reference_field():
    field = validate(2, 2, 1)
    assert field.xi_sq == (0, 2)
    assert field.primitive
    assert field.Q == 2


def test_validate_wrong_residue():
    with pytest.raises(UnsupportedD):
        validate(4, 1, 1)


def test_validate_not_totally_positive():
    # 1 - sqrt(2) < 0, i.e. a^2 = 1 < b^2 D = 2
    with pytest.raises(NotTotallyPositive):
        validate(2, 1, 1)


def test_validate_not_squarefree():
    with pytest.raises(UnsupportedD):
        validate(18, 5, 1)


def test_validate_unsupported_allowlist():
    with pytest.raises(UnsupportedD):
        validate(10, 4, 1)
    with pytest.raises(UnsupportedD):
        validate(1, 2, 1)


@pytest.mark.parametrize("D", [*range(-10, 101), 10**6 + 1, 10**18])
def test_validate_accepts_exactly_the_allowlist(D):
    # a + b*xi = D + 2 + xi is totally positive for every allowlisted D
    if D in SUPPORTED_D:
        assert validate(D, D + 2, 1).D == D
    else:
        with pytest.raises(UnsupportedD, match=re.escape(f"D={D} ")):
            validate(D, D + 2, 1)


def test_allowlist_is_squarefree_and_not_zero_mod_4():
    # validate tests D only by membership, so the allowlist must carry these facts
    for D in SUPPORTED_D:
        assert D >= 2 and D % 4 != 0
        assert all(D % (q * q) for q in range(2, math.isqrt(D) + 1))


def test_case1_total_positivity():
    # 2a + b = 14 > 0 and 14^2 > 4*5
    assert validate(5, 6, 2).xi_sq == (1, 1)
    with pytest.raises(NotTotallyPositive):
        validate(5, 1, -2)


def _is_positive(x, y, D):
    """x + y*sqrt(D) > 0, decided with integers (D is not a square)."""
    if x >= 0 and y >= 0:
        return x > 0 or y > 0
    if x <= 0 and y <= 0:
        return False
    return (x > 0) == (x * x > y * y * D)


def test_total_positivity_grid():
    # a + b*xi has the real embeddings a +- b*sqrt(D) for D = 2, 3 (mod 4)
    # and ((2a + b) +- b*sqrt(D))/2 for D = 1 (mod 4)
    for D in sorted(SUPPORTED_D):
        for a in range(-15, 16):
            for b in range(-15, 16):
                x = 2 * a + b if D % 4 == 1 else a
                if _is_positive(x, b, D) and _is_positive(x, -b, D):
                    validate(D, a, b)
                else:
                    with pytest.raises(NotTotallyPositive):
                        validate(D, a, b)


def test_primitivity():
    assert is_primitive(2, 2, 1)  # norm 2, not a square
    assert not is_primitive(2, 2, 0)  # norm 4 = 2^2, biquadratic
    assert is_primitive(5, 6, 2)  # norm 44


def test_non_primitive_is_flagged_not_fatal():
    field = validate(2, 2, 0)
    assert not field.primitive
    with pytest.raises(NotPrimitive):
        require_primitive(field)


def test_compute_Q_values():
    assert compute_Q(2, 2, 1) == 2
    assert compute_Q(5, 6, 2) == max(6, 5, 192 - 16, 30 + 16) == 176
    assert compute_Q(3, 5, 2) == 13


def test_Q_dominates_a_and_D():
    for D, a, b in [(2, 2, 1), (3, 5, 2), (5, 6, 2), (13, 7, 2), (7, 9, 2)]:
        field = validate(D, a, b)
        assert field.Q >= max(a, D) >= 2


def test_norm_terms_positive_on_validated_fields():
    for D, a, b in [(2, 2, 1), (3, 5, 2), (6, 5, 2), (7, 9, 2)]:
        field = validate(D, a, b)
        assert a * a - b * b * D > 0
    for D, a, b in [(5, 6, 2), (13, 7, 2), (5, 3, 1), (17, 9, 1)]:
        field = validate(D, a, b)
        assert 4 * a * (a + b) - b * b * (D - 1) > 0


def test_basis_convert_case23_identity():
    t = (7, -1, 2, 1)
    assert basis_convert(t, Basis.SQRT_D, Basis.XI, 2) == t
    assert basis_convert(t, Basis.XI, Basis.SQRT_D, 2) == t


def test_basis_convert_case1_reference_value():
    printed = (-119599766860084, 5279155, 13860963299, 4898901569)
    converted = basis_convert(printed, Basis.SQRT_D, Basis.XI, 5)
    assert converted == (-119599772139239, 10558310, 8962061730, 9797803138)
    # round trip
    assert basis_convert(converted, Basis.XI, Basis.SQRT_D, 5) == printed


def test_basis_convert_rejects_non_integral():
    with pytest.raises(NonIntegralConversion):
        basis_convert((1, 1, 0, 0), Basis.XI, Basis.SQRT_D, 5)


def test_basis_convert_round_trip_random():
    import random

    rng = random.Random(11)
    for _ in range(500):
        t = tuple(rng.randrange(-10**6, 10**6) for _ in range(4))
        x = basis_convert(t, Basis.SQRT_D, Basis.XI, 13)
        assert basis_convert(x, Basis.XI, Basis.SQRT_D, 13) == t


COORDINATES = st.integers(-2**300, 2**300)


@settings(max_examples=200, deadline=None)
@given(D=st.sampled_from([2, 3, 5, 13]),
       c=st.tuples(COORDINATES, COORDINATES, COORDINATES, COORDINATES))
def test_basis_round_trip_property(D, c):
    # xi -> sqrt(D) -> xi; for D = 1 (mod 4) odd xi-coefficients have no
    # integral sqrt(D) form, and the other direction always does
    if D % 4 == 1 and (c[1] % 2 or c[3] % 2):
        with pytest.raises(NonIntegralConversion):
            basis_convert(c, Basis.XI, Basis.SQRT_D, D)
    else:
        s = basis_convert(c, Basis.XI, Basis.SQRT_D, D)
        assert basis_convert(s, Basis.SQRT_D, Basis.XI, D) == c
    x = basis_convert(c, Basis.SQRT_D, Basis.XI, D)
    assert basis_convert(x, Basis.XI, Basis.SQRT_D, D) == c


def test_field_params_sqrtd_to_xi():
    # printed radicand 7 + sqrt(5) becomes (a, b) = (6, 2) on the xi-basis
    assert basis_convert((7, 1, 0, 0), Basis.SQRT_D, Basis.XI, 5) == (6, 2, 0, 0)
    assert basis_convert((6, 2, 0, 0), Basis.XI, Basis.XI, 5) == (6, 2, 0, 0)
    assert basis_convert((2, 1, 0, 0), Basis.SQRT_D, Basis.XI, 2) == (2, 1, 0, 0)


def test_field_params_xi_to_sqrtd():
    assert basis_convert((6, 2, 0, 0), Basis.XI, Basis.SQRT_D, 5) == (7, 1, 0, 0)
    with pytest.raises(NonIntegralConversion):
        basis_convert((6, 1, 0, 0), Basis.XI, Basis.SQRT_D, 5)
    assert basis_convert((2, 1, 0, 0), Basis.XI, Basis.SQRT_D, 2) == (2, 1, 0, 0)


def test_field_record_contract():
    field = validate(5, 6, 2)
    assert (field.D, field.a, field.b, field.Q, field.primitive) == (5, 6, 2, 176, True)
    assert field.xi_sq == (1, 1)
    again = validate(5, 6, 2)
    assert again == field and hash(again) == hash(field)
    assert "xi_sq" not in repr(field)
    assert not hasattr(field, "params")
