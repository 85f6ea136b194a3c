from cmgenus2 import golden
from cmgenus2.cmfield import Basis, basis_convert, validate
from cmgenus2.integerkit import is_probable_prime


def test_recorded_factorizations_reassemble():
    for ex in golden.EXAMPLES:
        value = 1
        for q, e in ex.order_factors:
            value *= q**e
        assert value == ex.published_order
        # the big cofactor of each published order is prime
        assert is_probable_prime(ex.order_factors[-1][0])


def test_recorded_conversions():
    for ex in golden.EXAMPLES:
        field = validate(ex.D, ex.a, ex.b)
        assert (
            basis_convert(ex.omega_printed, ex.printed_basis, Basis.XI, field.D)
            == ex.omega_xi
        )


def test_candidate_tables_are_sorted_divisor_chains():
    for ex in golden.EXAMPLES:
        cands = ex.expected_candidates
        assert list(cands) == sorted(cands)
        for n1, n2, n3, n4 in cands:
            assert n1 * n2 * n3 * n4 == ex.published_order
            assert n2 % n1 == 0 and n3 % n2 == 0 and n4 % n3 == 0
            assert (ex.p - 1) % n2 == 0


def test_is_factorization_of_rejects_bad_tables():
    assert golden.is_factorization_of(((2, 1), (3, 1)), 6)
    assert golden.is_factorization_of((), 1)
    assert not golden.is_factorization_of(((3, 1), (2, 1)), 6)  # unsorted
    assert not golden.is_factorization_of(((2, 1), (2, 1)), 4)  # repeated prime
    assert not golden.is_factorization_of(((2, 1), (9, 1)), 18)  # composite "prime"
    assert not golden.is_factorization_of(((2, 0), (3, 1)), 3)  # zero exponent
    assert not golden.is_factorization_of(((2, 1), (3, 1)), 12)  # wrong product
    n = 3825123056546413051  # the least strong pseudoprime to bases 2-31
    assert not golden.is_factorization_of(((n, 1),), n)  # composite "prime"
