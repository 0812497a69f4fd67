"""Integer helpers, each checked against a brute-force twin."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab.arith import fused_divide, max_exponent, mod_inverse, primes_up_to, valuation

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


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(7, 3) == 0
    assert valuation(-50, 5) == 2


def test_valuation_rejects_zero_and_bad_base():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 1)


@given(
    st.integers(min_value=2, max_value=97),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=-1000, max_value=1000).filter(lambda k: k != 0),
)
def test_valuation_definition(l, e, k):
    # force the exact exponent by multiplying a unit mod l
    if k % l == 0:
        k += 1 if k != -1 else 2
    n = k * l**e
    v = valuation(n, l)
    assert v == e
    assert n % l**v == 0 and n % l ** (v + 1) != 0


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 25) == 1
    assert mod_inverse(4, 25) == 19


def test_mod_inverse_matches_exhaustive_search():
    modulus = 25
    for x in range(1, modulus):
        if gcd(x, modulus) == 1:
            wanted = next(c for c in range(modulus) if x * c % modulus == 1)
            assert mod_inverse(x, modulus) == wanted


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError):
        mod_inverse(5, 25)
    with pytest.raises(ValueError):
        mod_inverse(0, 7)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
def test_mod_inverse_round_trip(modulus, x):
    if gcd(x, modulus) != 1:
        x = 1
    assert x * mod_inverse(x, modulus) % modulus == 1


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
