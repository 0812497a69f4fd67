"""Integer helpers, each checked against a brute-force twin."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab import arith
from sievelab.arith import (
    blocks,
    carry,
    fused_divide,
    fused_test,
    int64_residues,
    limb_count,
    limb_values,
    max_exponent,
    primes_up_to,
    to_limbs,
)
from sievelab.engine import build_table, sieve_classical, sieve_improved, sieve_trivial
from sievelab.experiments import RandomModel, monte_carlo, random_sieve_polynomial
from sievelab.oracle import verify_ledgers

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


def check_fused_divide(values: list[int], l: int, k: int = 1) -> None:
    """fused_divide of the values as k limbs (at k = 1 any int64 value, one
    word each) against Python's % and //."""
    divisible, limbs = fused_divide(to_limbs(np.array(values, dtype=object), k), l)
    assert limbs.dtype == np.int64 and limbs.shape == (k, np.count_nonzero(divisible))
    # the quotients keep the normal form: lower limbs in [0, 2^32), the top one below 2^62
    assert ((limbs[:-1] >= 0) & (limbs[:-1] < 2**32)).all() and (abs(limbs[-1]) <= 2**62).all()
    assert (divisible.tolist(), limb_values(limbs).tolist()) == reference_divide(values, l)


def check_fused_test(values: list[int], l: int) -> None:
    """fused_test of int64 words, the last step's mask alone, against Python's %."""
    assert fused_test(np.array(values, dtype=np.int64), l).tolist() == reference_divide(values, l)[0]


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
    check_fused_divide(values, l)  # a (1, n) array: one limb holds any int64 value
    check_fused_test(values, l)


@pytest.mark.parametrize("l", DIVISORS)
@given(data=st.data())
def test_fused_divide_matches_python_division(l, data):
    int64 = st.integers(INT64_MIN, INT64_MAX)
    multiples = st.integers(INT64_MIN // l + 1, INT64_MAX // l).map(lambda q: q * l)
    values = data.draw(st.lists(st.one_of(int64, multiples, st.sampled_from([0, INT64_MIN, INT64_MAX, -INT64_MAX])),
                                max_size=40))
    check_fused_divide(values, l)
    check_fused_test(values, l)
    big = data.draw(st.lists(st.one_of(int64, st.integers(-(10**40), 10**40), multiples.map(lambda x: x * 10**30)),
                             max_size=20))
    check_fused_divide(big, l, limb_count(2**63 * 10**30))


def test_fused_divide_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        fused_divide(np.arange(4, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        fused_divide(np.arange(4, dtype=np.int64), 4)
    with pytest.raises(TypeError):
        fused_divide(np.arange(4, dtype=np.int32), 3)
    with pytest.raises(TypeError):  # exact integers are limbs now, never an object array
        fused_divide(np.arange(8, dtype=object), 3)
    with pytest.raises(ValueError):  # a limb remainder times 2^32 must stay in int64
        fused_divide(np.zeros((2, 3), dtype=np.int64), 2**31 + 11)
    with pytest.raises(ValueError):
        fused_divide(np.zeros((2, 3, 4), dtype=np.int64), 3)
    with pytest.raises(ValueError):  # every array of values has a limb axis, one limb for words
        fused_divide(np.arange(4, dtype=np.int64), 3)
    for bad in ((1, np.int64), (4, np.int64), (3, np.int32)):
        with pytest.raises((ValueError, TypeError)):
            fused_test(np.arange(4, dtype=bad[1]), bad[0])


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
    values = np.array([[INT64_MIN, -1, 0, 5, INT64_MAX]], dtype=np.int64)  # one limb
    residues = list(int64_residues(values, GROUPED_MODULI))
    assert len(residues) == len(GROUPED_MODULI)
    assert all(np.shares_memory(r, values) and r.tolist() == values[0].tolist() for r in residues)
    assert list(int64_residues(values, [])) == []
    with pytest.raises(ValueError):  # every int64 array of values has a limb axis
        list(int64_residues(values[0], [3]))
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


def limb_bound(k: int) -> int:
    """2^(32(k-1)+62): every value below it in absolute value has k limbs."""
    return 2 ** (32 * (k - 1) + 62)


def test_limb_count_at_its_boundaries():
    assert [limb_count(n) for n in (0, 1, 2**62 - 1)] == [1, 1, 1]
    for k in range(2, 8):
        assert limb_count(limb_bound(k - 1)) == k and limb_count(limb_bound(k) - 1) == k
    # the sweep's norm bounds (m = 10^12, d = 8, u = 80) and the joint cap (m = 10^15, d = 16, u = 1023)
    assert limb_count(10**12 * 9 * 80**8) == 2 and limb_count(10**15 * 17 * 1023**16) == 6


def limb_edge_values(k: int, l: int) -> list[int]:
    """0, +-1, +-(2^32 - 1), +-2^32, the values whose top limb is at either
    end, -2^62 and 2^62 - 1, and the multiples of l next to each."""
    top = limb_bound(k)
    edges = [0, 1, -1, 2**32 - 1, -(2**32 - 1), 2**32, -(2**32), top - 1, -top, -top + 1, top - 2**32, 2**62, -(2**62)]
    edges += [l * (x // l) for x in edges] + [l * -(-x // l) for x in edges]
    return [x for x in edges if -top <= x < top]


@pytest.mark.parametrize("k", range(1, 7))
def test_limbs_round_trip_at_the_edges(k):
    values = limb_edge_values(k, 3)
    for array in (np.array(values, dtype=object), np.array([x for x in values if abs(x) < 2**63], dtype=np.int64)):
        limbs = to_limbs(array, k)
        assert limbs.dtype == np.int64 and limbs.shape == (k, array.size)
        assert ((limbs[:-1] >= 0) & (limbs[:-1] < 2**32)).all() and (limbs[-1] >= -(2**62)).all()
        assert (limbs[-1] < 2**62).all()
        assert limb_values(limbs).tolist() == array.tolist()
    # carry restores the normal form of limbs pushed out of it, keeping the value
    limbs = to_limbs(np.array(values, dtype=object), k)
    spread = limbs.copy()
    for i in range(k - 1):
        shift = (-1) ** i * 2**20  # borrow from the next limb, or lend to it
        spread[i] += shift << 32
        spread[i + 1] -= shift
    assert limb_values(spread).tolist() == values
    carry(spread)
    assert np.array_equal(spread, limbs)


@pytest.mark.parametrize("l", DIVISORS)
@pytest.mark.parametrize("k", range(2, 7))
def test_fused_divide_on_limbs_at_the_edges(l, k):
    check_fused_divide(limb_edge_values(k, l), l, k)


@pytest.mark.parametrize("l", DIVISORS)
@given(data=st.data())
def test_fused_divide_on_limbs_matches_python_division(l, data):
    k = data.draw(st.integers(1, 6))
    top = limb_bound(k)
    values = data.draw(st.lists(st.one_of(
        st.integers(-top, top - 1),
        st.integers(-top // l, (top - 1) // l).map(lambda q: q * l),
        st.integers(-(2**40), 2**40),
    ), max_size=30))
    check_fused_divide(values, l, k)


def check_limb_residues(values: list[int], moduli: list[int], k: int) -> list[np.ndarray]:
    """int64_residues of values as k limbs against Python %, modulus by modulus."""
    limbs = to_limbs(np.array(values, dtype=object), k)
    residues = list(int64_residues(limbs, moduli))
    assert len(residues) == len(moduli)
    for n, reduced in zip(moduli, residues):
        assert reduced.dtype == np.int64 and reduced.shape == (len(values),)
        assert [int(r) % n for r in reduced] == [x % n for x in values], n
    return residues


@pytest.mark.parametrize("k", range(2, 7))
def test_int64_residues_of_limbs_at_the_edges(k):
    values = limb_edge_values(k, 3931)
    # two moduli next to 2^31 fill a group alone; 46337 * 46339 lies just below 2^31
    check_limb_residues(values, [2**31 - 1, 46337, 46339, 2, 3, 3931, 1], k)
    check_limb_residues(values, list(primes_up_to(3942)), k)


def test_int64_residues_group_limbs_below_2_to_the_31():
    values = to_limbs(np.array(WIDE_VALUES[:5], dtype=object), limb_count(max(map(abs, WIDE_VALUES[:5]))))
    residues = list(int64_residues(values, [2**16, 2**15 - 1, 2**16, 2**15, 2**31 - 1]))
    groups = [r is residues[i - 1] if i else False for i, r in enumerate(residues)]
    # 2^16 * (2^15 - 1) < 2^31 shares a group, 2^16 * 2^15 = 2^31 does not
    assert groups == [False, True, False, False, False]
    with pytest.raises(ValueError):
        list(int64_residues(values, [5, 2**31]))


@given(
    st.integers(2, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-limb_bound(k), limb_bound(k) - 1), max_size=12))),
    st.lists(st.one_of(st.integers(1, 2**31 - 1), st.integers(1, 2**12)), max_size=10),
)
def test_int64_residues_of_limbs_match_python_remainder(drawn, moduli):
    k, values = drawn
    check_limb_residues(values, moduli, k)


@pytest.mark.parametrize("count,cells_per_item,sizes", [(0, 7, []), (7, 25, [4, 3]), (8, 25, [4, 4]), (3, 200, [1, 1, 1])])
def test_blocks_cover_the_count_within_the_budget(count, cells_per_item, sizes, monkeypatch):
    monkeypatch.setattr(arith, "BLOCK_CELLS", 100)
    ranges = list(blocks(count, cells_per_item))
    assert [len(r) for r in ranges] == sizes
    assert [i for r in ranges for i in r] == list(range(count))


def test_every_blocked_pass_matches_the_default_budget(monkeypatch):
    # at 70 cells a pass every pass below spans several blocks and ends on a
    # short one: the oracle's rows of 15 cells (u = 7) come 4 + 3 and of 21
    # cells (u = 10) 3 + 3 + 3 + 1, the trivial sieve's live cells (counted
    # below) 70 at a time, and Monte Carlo's 33 trials 5 at a time at y = 13
    instances = [
        (random_sieve_polynomial(3, 20, random.Random("columns:int64")), 7, 29),  # one-limb sides
        (random_sieve_polynomial(4, 10**18, random.Random("columns:object")), 10, 59),  # two-limb sides
    ]
    model = RandomModel(degree=3, smooth_bound=13, seed=1)
    for f, u, _ in instances:
        live = np.count_nonzero(build_table(f, u).rational.any(axis=0))
        assert live > 70 and live % 70

    def run():
        arrays = []
        for f, u, y in instances:
            report = verify_ledgers(sieve_classical(f, u, y), sieve_improved(f, u, y), f, u, y)
            trivial = sieve_trivial(f, u, y)
            arrays.append([getattr(report, field.name) for field in dataclasses.fields(report)])
            arrays.append([trivial.ledger.attempts, trivial.table.rational, trivial.table.algebraic])
        return arrays, monte_carlo(model, 33)

    default, default_monte_carlo = run()
    monkeypatch.setattr(arith, "BLOCK_CELLS", 70)
    blocked, blocked_monte_carlo = run()
    assert blocked_monte_carlo == default_monte_carlo
    for expected, got in zip(default, blocked, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(expected, got, strict=True))
