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

from conftest import exact_norm, exact_values, limbs_of
from sievelab.arith import exact_dtype, limb_count, limb_values
from sievelab.poly import (
    MonicPolynomial,
    SievePolynomial,
    algebraic_bound,
    eval_norm,
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
    a, b = np.arange(-6, 7), np.arange(1, 7)[:, None]
    grid = [(int(x), int(y)) for y in b[:, 0] for x in a]
    for g, expected in ((square, [x * x + y * y for x, y in grid]), (pure, [x * x for x, y in grid]),
                        (f, [fraction_norm(f, x, y) for x, y in grid])):
        assert exact_values(eval_norm(g, a, b, algebraic_bound(g, 6))).ravel().tolist() == expected


def test_eval_norm_examples():
    square, cubic = SievePolynomial((1, 0, 1), m=4), SievePolynomial((-1, 2, 0, 1), m=2)
    # pairs (a, b) side by side; at b = 1 the norm is f(a): f(2) = 5 and f(7) = 50, the cubic's f(0) = -1
    values = eval_norm(square, np.array([3, 2, 7]), np.array([2, 1, 1]), algebraic_bound(square, 7))
    assert limb_values(values).tolist() == [13, 5, 50]
    values = eval_norm(cubic, np.array([2, 0]), np.array([3, 1]), algebraic_bound(cubic, 3))
    assert limb_values(values).tolist() == [8 + 36 - 27, -1]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_eval_norm_on_arrays(dtype):
    # an array of Python ints is read as int64: both give the same one limb
    f = SievePolynomial((-1, 2, 0, 1), m=2)
    a = np.arange(-6, 7).astype(dtype)
    values = eval_norm(f, a, 5, algebraic_bound(f, 6))
    assert values.dtype == np.int64 and values.shape == (1,) + a.shape
    assert values.reshape(-1).tolist() == [fraction_norm(f, int(x), 5) for x in range(-6, 7)]


@given(sieve_polys())
def test_norm_at_b_one_is_plain_evaluation(f):
    a = np.arange(-100, 101)
    values = limb_values(eval_norm(f, a, 1, algebraic_bound(f, 100)))
    assert values.tolist() == [sum(c * x**i for i, c in enumerate(f.coefficients)) for x in range(-100, 101)]


@given(
    sieve_polys(),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_norm_matches_fraction_route(f, a, b):
    values = eval_norm(f, np.array([a]), np.array([b]), algebraic_bound(f, 50))
    assert limb_values(values).tolist() == [fraction_norm(f, a, b)] == [exact_norm(f, a, b)]


def test_eval_norm_refuses_wide_a_and_small_bounds():
    f = SievePolynomial((-1, 2, 0, 1), m=2)  # sum |c_i| = 4
    a, b = np.arange(-5, 6), np.array([[1], [5]])
    for wide in (2**30, -(2**30)):
        with pytest.raises(ValueError, match="2\\^30"):
            eval_norm(f, np.array([0, wide]), b, 10**40)
    # every intermediate is at most sum |c_i| * u^d = 4 * 5^3, and that is enough
    with pytest.raises(ValueError, match="below"):
        eval_norm(f, a, b, 4 * 5**3 - 1)
    assert exact_values(eval_norm(f, a, b, 4 * 5**3)).tolist() == [
        [exact_norm(f, x, y) for x in range(-5, 6)] for y in (1, 5)]
    # a too-small bound that would hold the values in one word and wrap mid-Horner
    g = SievePolynomial((2**61, -(2**61), 2**61, 1), m=2**61)
    with pytest.raises(ValueError, match="below"):
        eval_norm(g, a, b, 2**62 - 1)
    # |a| = 2^30 - 1 is taken, here on four limbs: a lower limb times a comes
    # near 2^62, so a step that left its limbs uncarried would wrap at the next
    g = SievePolynomial((2**40, -(2**40), 3, 1), m=2**40)
    a = np.array([-(2**30 - 1), -(2**29 + 12345), -1, 0, 7, 2**30 - 1])
    b = np.array([[1], [2**20 + 3], [2**30 + 5]])
    bound = algebraic_bound(g, 2**30 + 5)
    values = eval_norm(g, a, b, bound)
    assert limbs_of(values) == limb_count(bound) == 4
    assert exact_values(values).tolist() == [[exact_norm(g, int(x), int(y)) for x in a] for y in b[:, 0]]


def test_bound_examples():
    f = SievePolynomial((1, 0, 1), m=4)
    assert rational_bound(f, 3) == 15
    assert algebraic_bound(f, 3) == 108
    with pytest.raises(ValueError):
        rational_bound(f, 0)
    with pytest.raises(ValueError):
        algebraic_bound(f, 0)


@given(sieve_polys(max_degree=4, max_m=12), st.integers(min_value=1, max_value=20))
def test_bounds_hold_over_the_whole_region(f, u):
    rat = rational_bound(f, u)
    alg = algebraic_bound(f, u)
    for b in range(1, u + 1):
        for a in range(-u, u + 1):
            assert abs(a - b * f.m) <= rat
            assert abs(exact_norm(f, a, b)) <= alg


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


# name: (d, m, u, k), instances at the edge of one int64 word.  The name is
# the Horner step (from 0) whose partial bound m*(i+2)*u^(i+1) first reaches
# 2^62, where a word would wrap; k is the limb count of the final bound
# m*(d+1)*u^d, which the limbs of every step hold.
LIMB_EDGE_CASES = {
    "first step": (3, 2**61, 3, 2),  # 2m*u = 3 * 2^62
    "coefficients past int64": (3, 2**70, 2, 2),
    "middle step, bound exactly 2^62": (5, 2**57, 2, 2),  # 3m*u^2 = 3 * 2^59, 4m*u^3 = 2^62
    "middle step after exactly 2^62 - 1": (4, (2**62 - 1) // 3, 1, 2),  # 3m = 2^62 - 1, 4m > 2^62
    "last step, bound exactly 2^62": (3, 2**57, 2, 2),
    "never, final bound exactly 2^62 - 1": (2, (2**62 - 1) // 3, 1, 1),
    "never": (5, 20, 40, 1),
    # at u = 3, the least m whose partial bound m*(s+2)*3^(s+1) reaches 2^62 first at step s of 6
    **{f"step {s} of 6": (6, -(-(2**62) // ((s + 2) * 3 ** (s + 1))), 3, 2) for s in range(6)},
}


@pytest.mark.parametrize("d,m,u,k", LIMB_EDGE_CASES.values(), ids=LIMB_EDGE_CASES.keys())
def test_eval_norm_leaves_int64_at_the_proven_step(d, m, u, k):
    # c_i = +-m, so the values come close to the partial bounds, and a
    # one-word step past 2^62 would wrap
    f = SievePolynomial(tuple((-1) ** i * m for i in range(d)) + (1,), m=m)
    assert limb_count(algebraic_bound(f, u)) == k
    assert exact_dtype(algebraic_bound(f, u)) == (np.int64 if k == 1 else object)
    direct = [[exact_norm(f, a, b) for a in range(-u, u + 1)] for b in range(1, u + 1)]
    rows = np.arange(1, u + 1, dtype=np.int64)[:, None]
    values = eval_norm(f, np.arange(-u, u + 1, dtype=np.int64), rows, algebraic_bound(f, u))
    algebraic = table_factors(f, u, rows)[1]
    assert values.dtype == algebraic.dtype == np.int64
    assert values.shape == algebraic.shape == (k, u, 2 * u + 1)
    assert exact_values(values).tolist() == exact_values(algebraic).tolist() == direct


@given(
    st.integers(2, 16),
    st.one_of(st.integers(1, 2**62), st.integers(1, 10**60)),
    st.integers(1, 30),
    st.data(),
)
def test_eval_norm_in_limbs_matches_python_ints(d, m, u, data):
    # coefficients near +-m bring the values close to the bound; the final
    # bound spans one word to six limbs and more
    lower = data.draw(st.lists(st.sampled_from([m, -m, 0, 1, -1]) | st.integers(-m, m), min_size=d, max_size=d))
    f = SievePolynomial(tuple(lower) + (1,), m=m)
    rows = np.array(data.draw(st.lists(st.integers(1, u), min_size=1, max_size=3)), dtype=np.int64)[:, None]
    values = eval_norm(f, np.arange(-u, u + 1, dtype=np.int64), rows, algebraic_bound(f, u))
    k = limb_count(algebraic_bound(f, u))
    assert values.dtype == np.int64 and limbs_of(values) == k
    # the normal form: lower limbs in [0, 2^32), the top one in [-2^62, 2^62)
    assert ((values[:-1] >= 0) & (values[:-1] < 2**32)).all() and (abs(values[-1]) <= 2**62).all()
    direct = [[exact_norm(f, a, b) for a in range(-u, u + 1)] for b in rows[:, 0].tolist()]
    assert exact_values(values).tolist() == direct
    rational = table_factors(f, u, rows)[0]
    assert limbs_of(rational) == limb_count(rational_bound(f, u))
    assert exact_values(rational).tolist() == [[a - b * m for a in range(-u, u + 1)] for b in rows[:, 0].tolist()]
