"""Polynomials, norm forms, and the region bounds.

The norm form is cross-checked through an independent route: exact
fraction arithmetic on b^d * f(a/b).
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_values, limbs_of
from sievelab.arith import limb_count
from sievelab.poly import (
    MonicPolynomial,
    SievePolynomial,
    algebraic_bound,
    eval_norm,
    exact_dtype,
    rational_bound,
    table_factors,
)


@st.composite
def sieve_polys(draw, max_degree=5, max_m=30):
    d = draw(st.integers(min_value=2, max_value=max_degree))
    m = draw(st.integers(min_value=1, max_value=max_m))
    lower = tuple(draw(st.integers(min_value=-m, max_value=m)) for _ in range(d))
    return SievePolynomial(coefficients=lower + (1,), m=m)


def fraction_norm(f, a, b):
    """Reference value b^d * f(a/b) via exact rational arithmetic."""
    x = Fraction(a, b)
    value = sum(Fraction(c) * x**i for i, c in enumerate(f.coefficients))
    value *= Fraction(b) ** f.degree
    assert value.denominator == 1
    return value.numerator


def test_monic_is_enforced():
    with pytest.raises(ValueError):
        MonicPolynomial(coefficients=(0, 2))
    with pytest.raises(ValueError):
        MonicPolynomial(coefficients=(1,))
    assert MonicPolynomial(coefficients=(3, 1)).degree == 1


def test_sieve_polynomial_validation():
    f = SievePolynomial(coefficients=(1, 0, 1), m=4)
    assert f.degree == 2 and f.m == 4
    with pytest.raises(ValueError):
        SievePolynomial(coefficients=(5, 1), m=5)  # degree 1
    with pytest.raises(ValueError):
        SievePolynomial(coefficients=(5, 0, 1), m=4)  # |c_0| > m
    with pytest.raises(ValueError):
        SievePolynomial(coefficients=(0, 0, 1), m=0)


def test_norm_form_examples():
    # x^2 + 1 homogenizes to a^2 + b^2: coefficient i multiplies a^i b^(d-i)
    square = SievePolynomial((1, 0, 1), m=4)
    pure = SievePolynomial((0, 0, 1), m=3)
    f = SievePolynomial((-1, 2, 0, 1), m=2)
    for a in range(-6, 7):
        for b in range(1, 7):
            assert eval_norm(square, a, b) == a * a + b * b
            assert eval_norm(pure, a, b) == a * a
            assert eval_norm(f, a, b) == fraction_norm(f, a, b)


def test_eval_norm_examples():
    assert eval_norm(SievePolynomial((1, 0, 1), m=4), 3, 2) == 13
    assert eval_norm(SievePolynomial((-1, 2, 0, 1), m=2), 2, 3) == 8 + 36 - 27


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_eval_norm_on_arrays(dtype):
    f = SievePolynomial((-1, 2, 0, 1), m=2)
    a = np.arange(-6, 7).astype(dtype)
    values = eval_norm(f, a, 5)
    assert values.dtype == a.dtype
    assert values.tolist() == [fraction_norm(f, int(x), 5) for x in range(-6, 7)]


@given(sieve_polys(), st.integers(min_value=-50, max_value=50))
def test_norm_at_b_one_is_plain_evaluation(f, a):
    assert eval_norm(f, a, 1) == sum(c * a**i for i, c in enumerate(f.coefficients))


@given(
    sieve_polys(),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_norm_matches_fraction_route(f, a, b):
    assert eval_norm(f, a, b) == fraction_norm(f, a, b)


def value_mod(f, x, modulus):
    """f(x) mod modulus the way the ladders' Newton steps take it: F(x, 1)
    from eval_norm, reduced."""
    return eval_norm(f, x, 1) % modulus


def test_eval_poly_examples():
    assert value_mod(SievePolynomial((1, 0, 1), m=4), 2, 5) == 0
    assert value_mod(SievePolynomial((1, 0, 1), m=4), 7, 25) == 0
    assert value_mod(SievePolynomial((-1, 2, 0, 1), m=2), 0, 9) == 8


@given(sieve_polys(), st.integers(min_value=-100, max_value=100), st.integers(min_value=1, max_value=10**6))
def test_eval_against_direct_sums(f, x, modulus):
    assert value_mod(f, x, modulus) == sum(c * x**i for i, c in enumerate(f.coefficients)) % modulus


@given(
    sieve_polys(),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=2, max_value=5),
)
def test_eval_poly_reduction_chain(f, x, l, e):
    assert value_mod(f, x, l**e) % l ** (e - 1) == value_mod(f, x, l ** (e - 1))
    assert value_mod(f, x, l**e) == sum(c * x**i for i, c in enumerate(f.coefficients)) % l**e


def test_bound_examples():
    f = SievePolynomial((1, 0, 1), m=4)
    assert rational_bound(f, 3) == 15
    assert algebraic_bound(f, 3) == 108
    with pytest.raises(ValueError):
        rational_bound(f, 0)


@given(sieve_polys(max_degree=4, max_m=12), st.integers(min_value=1, max_value=20))
def test_bounds_hold_over_the_whole_region(f, u):
    rat = rational_bound(f, u)
    alg = algebraic_bound(f, u)
    for b in range(1, u + 1):
        for a in range(-u, u + 1):
            assert abs(a - b * f.m) <= rat
            assert abs(eval_norm(f, a, b)) <= alg


@pytest.mark.parametrize("m,dtypes", [(3, (np.int64, np.int64)), (10**17, (np.int64, object))], ids=["int64", "mixed"])
def test_table_factors_of_a_block_of_rows(m, dtypes):
    f = SievePolynomial((1, -m, 0, 1), m=m)
    u = 6
    whole = table_factors(f, u, np.arange(1, u + 1, dtype=np.int64)[:, None])
    block = table_factors(f, u, np.array([[4], [5]], dtype=np.int64))
    bounds = (rational_bound(f, u), algebraic_bound(f, u))
    assert tuple(exact_dtype(bound) for bound in bounds) == dtypes
    # a side past 2^62 is int64 limbs, as many as its bound needs: here 2
    assert [limbs_of(side) for side in whole[:2]] == [limb_count(bound) for bound in bounds] == [
        1 if dtype is np.int64 else 2 for dtype in dtypes]
    for side_of_block, side in zip(block, whole):
        assert side_of_block.tolist() == side[..., 3:5, :].tolist()
    rational, algebraic = (exact_values(side) for side in whole[:2])
    for row, b in enumerate(range(1, u + 1)):
        for i, a in enumerate(range(-u, u + 1)):
            assert rational[row, i] == a - b * m and algebraic[row, i] == fraction_norm(f, a, b)
            assert whole[2][row, i] == (gcd(a, b) == 1 and a - b * m != 0 and algebraic[row, i] != 0)


# name: (d, m, u, first Horner step whose partial bound m*(k+2)*u^(k+1) reaches 2^62, d for none)
SWITCH_CASES = {
    "first step": (3, 2**61, 3, 0),  # 2m*u = 3 * 2^62
    "coefficients past int64": (3, 2**70, 2, 0),
    "middle step, bound exactly 2^62": (5, 2**57, 2, 2),  # 3m*u^2 = 3 * 2^59, 4m*u^3 = 2^62
    "middle step after exactly 2^62 - 1": (4, (2**62 - 1) // 3, 1, 2),  # 3m = 2^62 - 1, 4m > 2^62
    "last step, bound exactly 2^62": (3, 2**57, 2, 2),
    "never, final bound exactly 2^62 - 1": (2, (2**62 - 1) // 3, 1, 2),
    "never": (5, 20, 40, 5),
    # at u = 3, the least m whose partial bound m*(s+2)*3^(s+1) reaches 2^62 first at step s of 6
    **{f"step {s} of 6": (6, -(-(2**62) // ((s + 2) * 3 ** (s + 1))), 3, s) for s in range(6)},
}


@pytest.mark.parametrize("d,m,u,switch", SWITCH_CASES.values(), ids=SWITCH_CASES.keys())
def test_eval_norm_leaves_int64_at_the_proven_step(d, m, u, switch):
    # c_i = +-m, so the values come close to the partial bounds, and an int64
    # step past 2^62 would wrap
    f = SievePolynomial(tuple((-1) ** i * m for i in range(d)) + (1,), m=m)
    assert next((k for k in range(d) if m * (k + 2) * u ** (k + 1) >= 2**62), d) == switch
    dtype = exact_dtype(algebraic_bound(f, u))
    assert dtype == (np.int64 if switch == d else object)
    direct = [
        [sum(c * a**i * b ** (d - i) for i, c in enumerate(f.coefficients)) for a in range(-u, u + 1)]
        for b in range(1, u + 1)
    ]
    rows = np.arange(1, u + 1, dtype=np.int64)[:, None]
    values = eval_norm(f, np.arange(-u, u + 1, dtype=np.int64), rows)
    algebraic = table_factors(f, u, rows)[1]
    # words up to 2^62, then the limbs the final bound needs
    k = limb_count(algebraic_bound(f, u))
    assert values.dtype == algebraic.dtype == np.int64 and (k == 1) == (switch == d)
    assert values.shape == algebraic.shape == (k,) * (k > 1) + (u, 2 * u + 1)
    assert exact_values(values).tolist() == exact_values(algebraic).tolist() == direct


@given(
    st.integers(2, 16),
    st.one_of(st.integers(1, 2**62), st.integers(1, 10**60)),
    st.integers(1, 30),
    st.data(),
)
def test_eval_norm_in_limbs_matches_python_ints(d, m, u, data):
    # coefficients near +-m bring the values close to the partial bounds;
    # the final bound spans one word to six limbs and more
    lower = data.draw(st.lists(st.sampled_from([m, -m, 0, 1, -1]) | st.integers(-m, m), min_size=d, max_size=d))
    f = SievePolynomial(tuple(lower) + (1,), m=m)
    rows = np.array(data.draw(st.lists(st.integers(1, u), min_size=1, max_size=3)), dtype=np.int64)[:, None]
    values = eval_norm(f, np.arange(-u, u + 1, dtype=np.int64), rows)
    k = limb_count(algebraic_bound(f, u))
    assert values.dtype == np.int64 and limbs_of(values) == k
    if k > 1:  # the normal form: lower limbs in [0, 2^32), the top one in [-2^62, 2^62)
        assert ((values[:-1] >= 0) & (values[:-1] < 2**32)).all() and (abs(values[-1]) <= 2**62).all()
    direct = [[eval_norm(f, a, b) for a in range(-u, u + 1)] for b in rows[:, 0].tolist()]
    assert exact_values(values).tolist() == direct
    rational = table_factors(f, u, rows)[0]
    assert limbs_of(rational) == limb_count(rational_bound(f, u))
    assert exact_values(rational).tolist() == [[a - b * m for a in range(-u, u + 1)] for b in rows[:, 0].tolist()]
