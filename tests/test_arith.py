"""Integer helpers, each checked against a brute-force twin."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab.arith import max_exponent, mod_inverse, primes_up_to, valuation


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
