"""Sampling model, lift-event statistics, exact enumeration, ratio sweeps."""

import random
from fractions import Fraction
from itertools import product
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.arith import primes_up_to
from sievelab import arith, experiments
from sievelab.experiments import (
    MONTE_CARLO_CAP,
    ComparisonResult,
    RandomModel,
    SweepInstance,
    enumerate_exact,
    monte_carlo,
    random_sieve_polynomial,
    ratio_sweep,
    run_comparison,
    success_probability,
)
from sievelab.poly import MonicPolynomial, SievePolynomial
from sievelab.roots import lift_events, residue_scan

F_SQUARE_PLUS_ONE = SievePolynomial((1, 0, 1), m=4)


def sample_poly(model: RandomModel, index: int) -> MonicPolynomial:
    """The index-th polynomial of the model's stream, as monte_carlo draws it."""
    return MonicPolynomial(experiments._draw(model, model.modulus, index))


def kernel_row(f: MonicPolynomial, l: int) -> list[bool]:
    """The kernel's lift events of one polynomial, residue by residue."""
    coeffs = np.array([[c % (l * l) for c in f.coefficients]], dtype=np.int64)
    return lift_events(coeffs, l)[0].tolist()


def reference_row(f: MonicPolynomial, l: int) -> list[bool]:
    """The same events from plain sums over Python ints: f(x) mod l^2 and f'(x) mod l."""
    c = f.coefficients
    return [sum(c[i] * x**i for i in range(len(c))) % (l * l) == 0
            and sum(i * c[i] * x ** (i - 1) for i in range(1, len(c))) % l == 0 for x in range(l)]


def reference_lift_event(f: MonicPolynomial, l: int) -> bool:
    """Some multiple root of f mod l lifts to a root mod l^2."""
    return any(reference_row(f, l))


def test_random_model_validation():
    with pytest.raises(ValueError):
        RandomModel(degree=0, smooth_bound=10)
    with pytest.raises(ValueError):
        RandomModel(degree=3, smooth_bound=1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo(RandomModel(degree=3, smooth_bound=10), 0)


def test_model_modulus():
    assert RandomModel(degree=3, smooth_bound=5).modulus == 4 * 9 * 25
    assert RandomModel(degree=2, smooth_bound=2).modulus == 4


def test_sample_poly_is_reproducible_and_in_range():
    model = RandomModel(degree=3, smooth_bound=5, seed=42)
    f = sample_poly(model, 7)
    assert f == sample_poly(model, 7)
    assert f.degree == 3 and f.coefficients[-1] == 1
    assert all(0 <= c < 900 for c in f.coefficients[:-1])
    assert f.coefficients == (502, 797, 550, 1)
    assert sample_poly(model, 8).coefficients == (546, 558, 421, 1)


def test_sample_streams_partition_by_index():
    model = RandomModel(degree=2, smooth_bound=3, seed=0)
    first = [sample_poly(model, i) for i in range(20)]
    second = [sample_poly(model, i) for i in range(20)]
    assert first == second


def test_lift_event_examples():
    assert kernel_row(MonicPolynomial((0, 0, 1)), 2) == [True, False]  # x^2: 0 lifts
    assert kernel_row(MonicPolynomial((2, 0, 1)), 2) == [False, False]  # x^2 + 2: f(0) = 2 mod 4
    assert kernel_row(MonicPolynomial((1, 2, 1)), 3) == [False, False, True]  # (x + 1)^2
    assert kernel_row(MonicPolynomial((1, 0, 1)), 5) == [False] * 5  # only simple roots


def test_lift_events_near_the_int64_bound():
    # x^3 (x - r)^2 (x - s) lifts at 0 and r only; adding l blocks both
    # lifts, as f(0) = f(r) = l.  Every Horner step nears l^3 ~ 2^60, and
    # six steps would pass 2^63 without the reductions mod l^2.
    l, r, s = 1048573, 1000003, 77
    l2 = l * l
    lifting = [0, 0, 0, (-r * r * s) % l2, (r * r + 2 * r * s) % l2, (-2 * r - s) % l2, 1]
    blocked = [l, *lifting[1:]]
    hits = lift_events(np.array([lifting, blocked], dtype=np.int64), l)
    assert np.flatnonzero(hits[0]).tolist() == [0, r]
    assert not hits[1].any()


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_lift_events_at_high_degree(l, data):
    # degree 80 with coefficients below l^2: the kernel's bound on its
    # accumulators, l^2 - 1 times l per step, first reaches 2^62 after about
    # 60 (l = 2), 36 (l = 3) and 24 (l = 5) unreduced steps
    d, l2 = 80, l * l
    if data.draw(st.booleans()):  # (x - r)^2 g(x): its multiple root r lifts mod l^2
        r = data.draw(st.integers(0, l - 1))
        coeffs = data.draw(st.lists(st.integers(0, l2 - 1), min_size=d - 2, max_size=d - 2)) + [1]
        for _ in range(2):
            coeffs = [(low - r * high) % l2 for low, high in zip([0, *coeffs], [*coeffs, 0])]
    else:
        coeffs = data.draw(st.lists(st.integers(0, l2 - 1), min_size=d, max_size=d)) + [1]
    f = MonicPolynomial(tuple(coeffs))
    assert kernel_row(f, l) == reference_row(f, l)


@pytest.mark.parametrize("l", [1664511, 2**21])
def test_lift_events_refuse_primes_past_the_int64_bound(l):
    # l^3 >= 2^62 is refused before any array of l residues is built
    with pytest.raises(ValueError, match="int64"):
        lift_events(np.zeros((1, 3), dtype=np.int64), l)


@pytest.mark.parametrize("d,y,seed,trials", [(1, 30, 4, 300), (2, 2, 6, 8200), (3, 100, 0, 400), (4, 13, 2, 1300)])
def test_monte_carlo_matches_per_trial_reference(d, y, seed, trials, monkeypatch):
    # at 2^14 cells a pass, trial blocks hold 8192 rows at y = 2, 168 at
    # y = 100 and 1260 at y = 13, so each count spans blocks and ends short
    monkeypatch.setattr(arith, "BLOCK_CELLS", 2**14)
    model = RandomModel(degree=d, smooth_bound=y, seed=seed)
    primes = primes_up_to(y)
    failures = dict.fromkeys(primes, 0)
    successes = 0
    for i in range(trials):
        f = sample_poly(model, i)
        events = [l for l in primes if reference_lift_event(f, l)]
        for l in events:
            failures[l] += 1
        successes += not events
    report = monte_carlo(model, trials)
    assert report.successes == successes
    assert report.per_prime_failures == failures
    if d == 1:
        assert successes == trials  # f' = 1 has no roots


def test_kernel_passes_stay_within_the_cell_budget(monkeypatch):
    shapes = []

    def recorded(kernel):
        def call(coeffs, l):
            shapes.append((kernel.__name__, coeffs.shape[0], l))
            return kernel(coeffs, l)
        return call

    # Monte Carlo calls lift_events, enumerate_exact calls residue_scan
    monkeypatch.setattr(experiments, "lift_events", recorded(lift_events))
    monkeypatch.setattr(experiments, "residue_scan", recorded(residue_scan))
    monkeypatch.setattr(arith, "BLOCK_CELLS", 2**14)
    monte_carlo(RandomModel(degree=3, smooth_bound=100, seed=0), 400)
    enumerate_exact(3, 7)  # 2401 classes: a full block of 2340 rows, then a short one
    enumerate_exact(1, 97)
    assert {name for name, _, _ in shapes} == {"lift_events", "residue_scan"}
    assert all(rows * l <= arith.BLOCK_CELLS for _, rows, l in shapes)


def test_monte_carlo_work_cap(monkeypatch):
    with pytest.raises(ValueError, match="cap"):
        monte_carlo(RandomModel(degree=3, smooth_bound=10**6), 1)
    with pytest.raises(ValueError, match="cap"):
        monte_carlo(RandomModel(degree=3, smooth_bound=10**12), 1)  # no sieve up to 10^12
    assert sum(primes_up_to(experiments._CAP_PRIME_SCAN)) > MONTE_CARLO_CAP
    # the cap is trials * (d + 1) * (sum of the primes <= y), exactly: 2 + 3 + 5 + 7 = 17
    monkeypatch.setattr(experiments, "MONTE_CARLO_CAP", 5 * 3 * 17)
    assert monte_carlo(RandomModel(degree=2, smooth_bound=10), 5).trials == 5
    with pytest.raises(ValueError, match="cap"):
        monte_carlo(RandomModel(degree=2, smooth_bound=10), 6)


def test_monte_carlo_draw_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a polynomial")

    monkeypatch.setattr(experiments, "_draw", refuse)
    # 2 * (10^8 + 1) Horner steps pass MONTE_CARLO_CAP; 10^8 coefficients do not pass DRAW_CAP
    with pytest.raises(ValueError, match="coefficient draws"):
        monte_carlo(RandomModel(degree=10**8, smooth_bound=2), 1)
    with pytest.raises(ValueError, match="coefficient draws"):
        monte_carlo(RandomModel(degree=3, smooth_bound=2), 10**6)
    monkeypatch.undo()
    # the cap is trials * d, exactly
    monkeypatch.setattr(experiments, "DRAW_CAP", 5 * 2)
    assert monte_carlo(RandomModel(degree=2, smooth_bound=10), 5).trials == 5
    with pytest.raises(ValueError, match="coefficient draws"):
        monte_carlo(RandomModel(degree=2, smooth_bound=10), 6)


def test_reference_product_values():
    assert success_probability(2, 2) == Fraction(3, 4)
    assert success_probability(3, 3) == Fraction(3, 4) * Fraction(8, 9)
    direct = Fraction(1)
    for l in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        direct *= 1 - Fraction(1, l * l)
    assert success_probability(2, 30) == success_probability(3, 30) == direct
    assert abs(float(direct) - 0.612) < 1e-3
    # degree 1 has no multiple root; from degree 4 on, pairs of double roots raise the probability
    assert success_probability(1, 100) == 1
    assert success_probability(4, 100) == success_probability(5, 100) > success_probability(3, 100)
    assert abs(float(success_probability(4, 100)) - 0.62517) < 1e-5


def test_success_probability_matches_exact_enumeration():
    # each prime's factor is 1 - count_bad / count_total, on every (d, l) with l^(2d+1) <= 10^6
    checked = 0
    for l in primes_up_to(100):
        for d in range(1, 10):
            if l ** (2 * d + 1) > 10**6:
                break
            count_bad, count_total, _ = enumerate_exact(d, l)
            below = success_probability(d, l - 1) if l > 2 else 1
            assert success_probability(d, l) == below * (1 - Fraction(count_bad, count_total)), (d, l)
            checked += 1
    assert checked == 43


def test_monte_carlo_tiny():
    report = monte_carlo(RandomModel(degree=2, smooth_bound=2, seed=0), 1)
    assert report.successes in (0, 1)
    assert report.trials == 1
    assert 0.0 <= report.estimate <= 1.0


def test_monte_carlo_reproducible():
    model = RandomModel(degree=3, smooth_bound=10, seed=17)
    assert monte_carlo(model, 300).to_dict() == monte_carlo(model, 300).to_dict()


def test_monte_carlo_matches_exact_enumeration():
    # at y = 2 and d = 2 the success probability is exactly 3/4
    count_bad, count_total, _ = enumerate_exact(2, 2)
    exact = 1 - Fraction(count_bad, count_total)
    assert exact == Fraction(3, 4)
    report = monte_carlo(RandomModel(degree=2, smooth_bound=2, seed=1), 5000)
    sigma = sqrt(float(exact) * float(1 - exact) / 5000)
    assert abs(report.estimate - float(exact)) <= 3 * sigma


def test_monte_carlo_gate_run():
    report = monte_carlo(RandomModel(degree=3, smooth_bound=30, seed=1), 2000)
    assert report.passes_gate
    assert report.estimate >= 0.6 - 3 * report.stderr
    assert abs(report.reference_product - 0.6123) < 1e-3
    assert abs(report.zeta2_reciprocal - 0.6079) < 1e-4
    payload = report.to_dict()
    assert payload["trials"] == 2000
    assert set(payload["per_prime_failures"]) == {str(l) for l in primes_up_to(30)}


def test_per_prime_failure_rates_stay_under_the_square_bound():
    trials = 2000
    report = monte_carlo(RandomModel(degree=3, smooth_bound=10, seed=5), trials)
    for l in primes_up_to(10):
        p = 1 / l**2
        sigma = sqrt(p * (1 - p) / trials)
        assert report.per_prime_failures[l] / trials <= p + 4 * sigma


def test_lift_events_uncorrelated_across_primes():
    model = RandomModel(degree=2, smooth_bound=3, seed=9)
    n = 2000
    coeffs = np.array([sample_poly(model, i).coefficients for i in range(n)], dtype=np.int64)
    event2 = lift_events(coeffs % 4, 2).any(axis=1)
    event3 = lift_events(coeffs % 9, 3).any(axis=1)
    hits2, hits3, both = int(event2.sum()), int(event3.sum()), int((event2 & event3).sum())
    p2, p3 = hits2 / n, hits3 / n
    corr = (both / n - p2 * p3) / sqrt(p2 * (1 - p2) * p3 * (1 - p3))
    assert abs(corr) <= 4 / sqrt(n)


def test_coefficient_uniformity_mod_four():
    model = RandomModel(degree=3, smooth_bound=5, seed=3)
    n = 10**4
    counts = [0, 0, 0, 0]
    for i in range(n):
        counts[sample_poly(model, i).coefficients[0] % 4] += 1
    sigma = sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) <= 4 * sigma


def test_enumerate_exact_smallest_case():
    count_bad, count_total, per_point = enumerate_exact(2, 2)
    assert (count_bad, count_total) == (4, 16)
    assert per_point == (2, 2)
    for n in per_point:
        assert Fraction(n, count_total) == Fraction(1, 8)  # 1/l^3


def test_enumerate_exact_l_three():
    count_bad, count_total, per_point = enumerate_exact(2, 3)
    assert count_total == 81
    assert per_point == (3, 3, 3)
    for n in per_point:
        assert Fraction(n, count_total) == Fraction(1, 27)
    assert count_bad == 9


@pytest.mark.parametrize("d,l", [(2, 2), (3, 2), (2, 3), (2, 5), (3, 3), (4, 2)])
def test_enumerate_per_point_density_is_inverse_cube(d, l):
    count_bad, count_total, per_point = enumerate_exact(d, l)
    assert count_total == l ** (2 * d)
    for n in per_point:
        assert Fraction(n, count_total) == Fraction(1, l**3)
    assert Fraction(count_bad, count_total) <= Fraction(1, l**2)  # union bound


def test_enumerate_exact_against_direct_count():
    """Recount (d=2, l=3) with an independent nested loop."""
    l2 = 9
    bad = 0
    per_point = [0, 0, 0]
    for c1 in range(l2):
        for c0 in range(l2):
            hit = False
            for i in range(3):
                if (i * i + c1 * i + c0) % l2 == 0 and (2 * i + c1) % 3 == 0:
                    per_point[i] += 1
                    hit = True
            bad += hit
    assert enumerate_exact(2, 3) == (bad, 81, tuple(per_point))


def nested_loop_count(d: int, l: int) -> tuple[int, int, tuple[int, ...]]:
    """enumerate_exact's counts from a plain walk of every polynomial, c_0 included."""
    l2 = l * l
    powers = [[pow(x, i, l2) for i in range(d + 1)] for x in range(l)]
    bad = 0
    per_point = [0] * l
    for tail in product(range(l2), repeat=d):
        c = (*tail, 1)
        hit = False
        for x in range(l):
            px = powers[x]
            value = sum(c[i] * px[i] for i in range(d + 1)) % l2
            slope = sum(i * c[i] * px[i - 1] for i in range(1, d + 1)) % l
            if value == 0 and slope == 0:
                per_point[x] += 1
                hit = True
        bad += hit
    return bad, l ** (2 * d), tuple(per_point)


@pytest.mark.parametrize("d,l", [(1, 2), (3, 7), (1, 97)])
def test_enumerate_exact_matches_nested_loop_recount(d, l, monkeypatch):
    # at 2^14 cells a pass, (3, 7) runs 2 blocks of its 2401 classes, (1, 97) its single class
    monkeypatch.setattr(arith, "BLOCK_CELLS", 2**14)
    assert enumerate_exact(d, l) == nested_loop_count(d, l)


@pytest.mark.parametrize("block_cells", [None, 20])
@pytest.mark.parametrize("d,l", [(1, 2), (2, 3), (3, 5), (4, 2), (4, 3)])
def test_enumerate_exact_counts_distinct_targets(d, l, block_cells, monkeypatch):
    # from degree 4 on, two flat points of one class can share their c_0:
    # (4, 2) has 60 bad polynomials where its flat points number 64, (4, 3)
    # has 702 where they number 729.  With 20 cells a pass, the classes
    # span many passes and the last one is short.
    if block_cells is not None:
        monkeypatch.setattr(arith, "BLOCK_CELLS", block_cells)
    assert enumerate_exact(d, l) == nested_loop_count(d, l)


def test_enumerate_rejects_oversized_spaces(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(experiments, "lift_events", refuse)
    monkeypatch.setattr(experiments, "residue_scan", refuse)
    monkeypatch.setattr(experiments, "primes_up_to", refuse)
    with pytest.raises(ValueError):
        enumerate_exact(4, 11)
    with pytest.raises(ValueError):
        enumerate_exact(2, 97)
    # 3137^2 polynomials are few, but 3137^3 polynomial-residue pairs are not
    with pytest.raises(ValueError, match="polynomial-residue pairs"):
        enumerate_exact(1, 3137)
    with pytest.raises(ValueError, match="polynomial-residue pairs"):
        enumerate_exact(10**9, 2)  # refused without computing 2^(2*10^9 + 1)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        enumerate_exact(0, 3)
    with pytest.raises(ValueError, match="prime must be >= 2"):
        enumerate_exact(2, 1)
    # the cap is l^(2d+1), exactly
    monkeypatch.undo()
    assert 5**9 <= experiments.ENUMERATION_CAP < 3137**3  # the benchmark's (4, 5) passes
    monkeypatch.setattr(experiments, "ENUMERATION_CAP", 7**5)
    assert enumerate_exact(2, 7)[1] == 7**4
    monkeypatch.setattr(experiments, "ENUMERATION_CAP", 7**5 - 1)
    with pytest.raises(ValueError, match="polynomial-residue pairs"):
        enumerate_exact(2, 7)


@pytest.mark.parametrize("l", [4, 9, 25])
def test_enumerate_rejects_composite_l(l):
    with pytest.raises(ValueError, match="prime"):
        enumerate_exact(1, l)


def test_random_sieve_polynomial_stays_in_bounds():
    rng = random.Random(4)
    for _ in range(50):
        f = random_sieve_polynomial(3, 9, rng)
        assert isinstance(f, SievePolynomial)
        assert f.degree == 3 and f.m == 9
        assert all(abs(c) <= 9 for c in f.coefficients[:-1])
    replay = random_sieve_polynomial(3, 9, random.Random(4))
    assert replay == random_sieve_polynomial(3, 9, random.Random(4))


def test_run_comparison_worked_instance():
    comp = run_comparison(F_SQUARE_PLUS_ONE, 3, 5)
    assert isinstance(comp, ComparisonResult)
    assert comp.table_mismatch is None
    assert comp.report.ok
    assert comp.trivial is not None
    for outcome, total in ((comp.classical, 10), (comp.improved, 5)):
        assert outcome.ledger.attempts[outcome.ledger.primes.index(5), :, 0].sum() == total
    lean = run_comparison(F_SQUARE_PLUS_ONE, 3, 5, include_trivial=False)
    assert lean.trivial is None and lean.report.ok


def test_run_comparison_builds_the_table_once(monkeypatch):
    import sievelab.engine

    calls = []
    real = sievelab.engine.build_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sievelab.engine, "build_table", counted)
    comp = run_comparison(F_SQUARE_PLUS_ONE, 3, 5)
    assert len(calls) == 1
    assert comp.table_mismatch is None and comp.report.ok
    # each sieve divided its own copy
    outcomes = (comp.trivial, comp.classical, comp.improved)
    assert len({id(o.table.algebraic) for o in outcomes}) == 3


def test_run_comparison_flags_correction():
    comp = run_comparison(SievePolynomial((1, 2, 1), m=4), 9, 3, include_trivial=False)
    assert comp.report.ok
    assert comp.report.correction_total > 0


def test_ratio_sweep_results():
    instances = [
        SweepInstance(degree=2, m=6, u=20, y=7, seed=1),
        SweepInstance(degree=3, m=10, u=15, y=11, seed=2),
    ]
    rows = ratio_sweep(instances)
    assert len(rows) == 2
    for row in rows:
        assert row.classical_total > 0
        assert row.improved_total < row.classical_total  # strict improvement
        assert row.correction_free == (row.correction_total == 0)
        assert row.failures == []
    again = ratio_sweep(instances)
    assert [r.coefficients for r in again] == [r.coefficients for r in rows]
    assert [(r.classical_total, r.improved_total) for r in again] == [(r.classical_total, r.improved_total) for r in rows]
