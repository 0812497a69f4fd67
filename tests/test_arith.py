"""Integer helpers, each checked against a brute-force twin."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab.arith import fused_divide, int64_residues, max_exponent, primes_up_to

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# 3931 is the largest prime <= cli.MAX_Y
DIVISORS = (2, 3, 3931)


def trial_division_primes(bound):
    out = []
    for n in range(2, bound + 1):
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            out.append(n)
    return tuple(out)


def test_primes_small_values():
    assert primes_up_to(10) == (2, 3, 5, 7)
    assert primes_up_to(2) == (2,)


def test_primes_up_to_30():
    ps = primes_up_to(30)
    assert len(ps) == 10
    assert ps[-1] == 29


def test_primes_agree_with_trial_division_at_scale():
    assert primes_up_to(10**4) == trial_division_primes(10**4)


@given(st.integers(min_value=2, max_value=500))
def test_primes_agree_with_trial_division(bound):
    assert primes_up_to(bound) == trial_division_primes(bound)


def test_primes_rejects_tiny_bound():
    with pytest.raises(ValueError):
        primes_up_to(1)


def test_max_exponent_examples():
    assert max_exponent(2, 15) == 3
    assert max_exponent(5, 4) == 0
    assert max_exponent(3, 729) == 6


def test_max_exponent_matches_repeated_multiplication():
    for l in (2, 3, 5, 7):
        for bound in range(1, 2000):
            e = 0
            while l ** (e + 1) <= bound:
                e += 1
            assert max_exponent(l, bound) == e


def test_max_exponent_rejects_bad_arguments():
    with pytest.raises(ValueError):
        max_exponent(1, 10)
    with pytest.raises(ValueError):
        max_exponent(2, 0)


@given(st.integers(min_value=2, max_value=1000), st.integers(min_value=1, max_value=10**12))
def test_max_exponent_sandwich(l, bound):
    e = max_exponent(l, bound)
    assert l**e <= bound < l ** (e + 1)


def reference_divide(values: list[int], l: int) -> tuple[list[bool], list[int]]:
    divisible = [x % l == 0 for x in values]
    return divisible, [x // l for x, keep in zip(values, divisible) if keep]


def check_fused_divide(values: list[int], l: int, dtype) -> None:
    divisible, quotients = fused_divide(np.array(values, dtype=dtype), l)
    assert quotients.dtype == dtype
    assert (divisible.tolist(), quotients.tolist()) == reference_divide(values, l)


def edge_values(l: int) -> list[int]:
    """About 2l values at each end of the int64 range and around 0: they
    hold the extreme multiples of l and the values whose wrapped product
    with l^(-1) lands just outside the quotient range."""
    return [
        *range(INT64_MIN, INT64_MIN + 2 * l + 2),
        *range(-l - 1, l + 2),
        *range(INT64_MAX - 2 * l - 1, INT64_MAX + 1),
    ]


@pytest.mark.parametrize("l", DIVISORS)
def test_fused_divide_at_the_ends_of_the_int64_range(l):
    values = edge_values(l)
    assert l * (INT64_MAX // l) in values and -l * (2**63 // l) in values
    check_fused_divide(values, l, np.int64)


@pytest.mark.parametrize("l", DIVISORS)
@given(data=st.data())
def test_fused_divide_matches_python_division(l, data):
    int64 = st.integers(INT64_MIN, INT64_MAX)
    multiples = st.integers(INT64_MIN // l + 1, INT64_MAX // l).map(lambda q: q * l)
    values = data.draw(st.lists(st.one_of(int64, multiples, st.sampled_from([0, INT64_MIN, INT64_MAX, -INT64_MAX])),
                                max_size=40))
    check_fused_divide(values, l, np.int64)
    big = data.draw(st.lists(st.one_of(int64, st.integers(-(10**40), 10**40), multiples.map(lambda x: x * 10**30)),
                             max_size=20))
    check_fused_divide(big, l, object)


def test_fused_divide_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        fused_divide(np.arange(4, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        fused_divide(np.arange(4, dtype=np.int64), 4)
    with pytest.raises(TypeError):
        fused_divide(np.arange(4, dtype=np.int32), 3)
    divisible, quotients = fused_divide(np.arange(8, dtype=object), 4)  # exact division takes any l
    assert divisible.tolist() == [x % 4 == 0 for x in range(8)] and quotients.tolist() == [0, 1]


def check_int64_residues(values: list[int], moduli: list[int]) -> list[np.ndarray]:
    """int64_residues of an object array against Python %, modulus by modulus."""
    array = np.array(values, dtype=object)
    residues = list(int64_residues(array, moduli))
    assert len(residues) == len(moduli)
    for n, reduced in zip(moduli, residues):
        assert reduced.dtype == np.int64 and reduced.shape == array.shape
        assert [int(r) % n for r in reduced.ravel()] == [x % n for x in values], n
    return residues


# 2^31 - 1 and 2^31 + 1 multiply to 2^62 - 1, just below the group bound
GROUPED_MODULI = [2**31 - 1, 2**31 + 1, 3, 2**61 - 1, 5, 7, 4, 1, 2**62 - 1, 999983]
WIDE_VALUES = [3**130, -(7**90) - 1, 0, 1, -1, 2**62 - 1, 2**63, -(2**63), 2**200 + 12345, -(2**250)]


def test_int64_residues_match_python_remainder():
    assert 3**130 > 2**200
    check_int64_residues(WIDE_VALUES, GROUPED_MODULI)
    # a product of the moduli of a group, plus or minus one, and a 2-d array
    check_int64_residues([k * (2**62 - 1) + e for k in (1, -(3**50)) for e in (-1, 0, 1)], GROUPED_MODULI)
    array = np.array(WIDE_VALUES, dtype=object).reshape(2, 5)
    for n, reduced in zip(GROUPED_MODULI, int64_residues(array, GROUPED_MODULI)):
        assert reduced.shape == (2, 5) and (reduced % n == array % n).all()


def test_int64_residues_reduce_once_per_group():
    # the 25 primes up to 100 fall into two groups, so two exact passes
    primes = primes_up_to(100)
    residues = check_int64_residues(WIDE_VALUES, list(primes))
    assert len({id(r) for r in residues}) == 2
    # consecutive moduli share a group while the product stays below 2^62
    residues = check_int64_residues(WIDE_VALUES, GROUPED_MODULI)
    groups = [r is residues[i - 1] if i else False for i, r in enumerate(residues)]
    assert groups == [False, True, False, False, False, True, True, True, False, False]


def test_int64_residues_pass_int64_through():
    values = np.array([INT64_MIN, -1, 0, 5, INT64_MAX], dtype=np.int64)
    residues = list(int64_residues(values, GROUPED_MODULI))
    assert len(residues) == len(GROUPED_MODULI) and all(r is values for r in residues)
    assert list(int64_residues(values, [])) == []
    assert list(int64_residues(np.array(WIDE_VALUES, dtype=object), [])) == []


def test_int64_residues_stay_valid_while_values_are_divided():
    # a caller that divides each entry by the primes as they are yielded
    values = np.array([2**70 * 3**40 * 101, 2**3 * 103, 7, -(5**30) * 97], dtype=object)
    primes = primes_up_to(110)
    for l, reduced in zip(primes, int64_residues(values, primes)):
        hits = np.flatnonzero(reduced % l == 0)
        assert hits.tolist() == [i for i, x in enumerate(values) if x % l == 0]
        for i in hits:
            while values[i] % l == 0:
                values[i] //= l
    assert values.tolist() == [1, 1, 1, -1]


def test_int64_residues_reject_moduli_outside_the_range():
    for n in (0, -3, 2**62, 2**64):
        with pytest.raises(ValueError):
            list(int64_residues(np.array([1], dtype=object), [5, n]))


@given(
    st.lists(st.integers(-(2**300), 2**300), max_size=12),
    st.lists(st.one_of(st.integers(1, 2**62 - 1), st.integers(1, 2**20)), max_size=10),
)
def test_int64_residues_match_python_remainder_on_random_input(values, moduli):
    check_int64_residues(values, moduli)
