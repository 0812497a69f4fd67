"""Acceptance suite: eight go/no-go checks over seeded instances.

Each test appends one verdict line to the terminal summary, so a plain
pytest run ends with a readable scoreboard.  The shared instance pool
(20 seeded draws across the documented parameter ranges) feeds the
first four checks; the rest build their own fixtures.
"""

import random
from fractions import Fraction
from math import gcd, pi, sqrt

import numpy as np
import pytest

from sievelab.arith import max_exponent, primes_up_to
from sievelab.experiments import (
    RandomModel,
    enumerate_exact,
    monte_carlo,
    random_sieve_polynomial,
    reference_success_product,
    run_comparison,
)
from sievelab.roots import classify_roots

from conftest import divisible_cells, record_acceptance

ENUM_LIMIT = 10**4
INSTANCE_COUNT = 20


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def value_at(f, x, modulus):
    """f(x) mod modulus as the plain sum of c_i x^i."""
    return sum(c * x**i for i, c in enumerate(f.coefficients)) % modulus


@pytest.fixture(scope="session")
def instance_runs():
    """Twenty seeded instances: d in 2..5, m in 5..50, u in 50..300, y in 10..100."""
    runs = []
    for i in range(INSTANCE_COUNT):
        rng = random.Random(f"acceptance:{i}")
        d = rng.randint(2, 5)
        m = rng.randint(5, 50)
        u = rng.randint(50, 300)
        y = rng.randint(10, 100)
        f = random_sieve_polynomial(d, m, rng)
        runs.append(run_comparison(f, u, y, include_trivial=True))
    return runs


def test_criterion_1_cross_algorithm_equivalence(instance_runs):
    bad = []
    for comp in instance_runs:
        # both sides of every cell, so more than equal residual products
        tables_equal = (
            comp.trivial.table.first_difference(comp.classical.table) is None
            and comp.classical.table.first_difference(comp.improved.table) is None
        )
        residuals_clean = not divisible_cells(comp.improved.table, primes_up_to(comp.y))
        if not (tables_equal and residuals_clean):
            bad.append((comp.f.coefficients, comp.u, comp.y))
    ok = not bad
    record_acceptance(
        f"criterion 1 cross-algorithm equivalence: {_verdict(ok)} "
        f"({len(instance_runs)} instances, final tables identical, residuals coprime to the factor base)"
    )
    assert ok, bad


def test_criterion_2_ledger_identities(instance_runs):
    bad = []
    pairs = 0
    for comp in instance_runs:
        pairs += comp.report.pair_count
        if not comp.report.ok:
            bad.append((comp.f.coefficients, comp.report.mismatches[:3], comp.report.stray_pairs[:3]))
    ok = not bad
    record_acceptance(
        f"criterion 2 attempt-count identities: {_verdict(ok)} "
        f"(classical = C_exact and improved = D_exact + correction on {pairs} (b, l) pairs)"
    )
    assert ok, bad


def test_criterion_3_strict_improvement(instance_runs):
    totals = [(comp.classical.ledger.grand_total(), comp.improved.ledger.grand_total()) for comp in instance_runs]
    bad = [(comp.f.coefficients, c, i) for comp, (c, i) in zip(instance_runs, totals) if c > 0 and not i < c]
    ok = not bad
    ratios = [i / c for c, i in totals if c]
    record_acceptance(
        f"criterion 3 strict improvement: {_verdict(ok)} "
        f"(improved total < classical total on every instance; ratios "
        f"{min(ratios):.3f}..{max(ratios):.3f})"
    )
    assert ok, bad


def test_criterion_4a_two_thirds_bound_on_closed_forms(instance_runs):
    bad = []
    checked = 0
    for comp in instance_runs:
        pairs = comp.report.pair_columns()
        free = pairs.correction == 0
        checked += int(np.count_nonzero(free))
        # d_asym <= 2/3 c_asym, both times l - 1 > 0
        c_scaled, d_scaled = pairs.scaled_asymptotic
        broken = free & (3 * d_scaled > 2 * c_scaled)
        bad += [(comp.f.coefficients, b, l) for b, l in zip(pairs.b[broken].tolist(), pairs.l[broken].tolist())]
    ok = not bad
    record_acceptance(
        f"criterion 4a two-thirds bound on closed forms: {_verdict(ok)} "
        f"({checked} correction-free (b, l) pairs)"
    )
    assert ok, bad


def test_criterion_4b_measured_ratio_report():
    # seed picked so that the instance carries no liftable multiple roots
    rng = random.Random("speedup:1")
    f = random_sieve_polynomial(3, 20, rng)
    comp = run_comparison(f, 500, 100, include_trivial=False)
    report = comp.report
    assert report.ok
    assert report.correction_total == 0
    ratio = comp.improved.ledger.grand_total() / comp.classical.ledger.grand_total()
    in_band = 0.45 <= ratio <= 0.67
    flag = "in the expected band" if in_band else "OUTSIDE the expected band [0.45, 0.67]"
    record_acceptance(
        f"criterion 4b measured ratio at u=500, y=100: PASS "
        f"(correction-free instance, ratio {ratio:.4f} {flag}; statistical report, not a gate)"
    )
    # the band itself is reported, not asserted: the bound only binds closed forms


def test_criterion_5_per_point_density():
    bad_2, total_2, per_point_2 = enumerate_exact(2, 2)
    bad_3, total_3, per_point_3 = enumerate_exact(2, 3)
    ok = (
        (bad_2, total_2, per_point_2) == (4, 16, (2, 2))
        and all(Fraction(n, total_2) == Fraction(1, 8) for n in per_point_2)
        and total_3 == 81
        and all(Fraction(n, total_3) == Fraction(1, 27) for n in per_point_3)
    )
    record_acceptance(
        f"criterion 5 exact lift densities: {_verdict(ok)} "
        f"(d=2, l=2: {bad_2}/{total_2} bad, per point 1/8; d=2, l=3: per point 1/27)"
    )
    assert ok


def test_criterion_6_sampled_success_probability():
    report = monte_carlo(RandomModel(degree=3, smooth_bound=30, seed=1), 2000)
    reference = float(reference_success_product(30))
    limit = 6.0 / (pi * pi)
    ok = report.estimate >= 0.6 - 3 * report.stderr
    record_acceptance(
        f"criterion 6 sampled success probability: {_verdict(ok)} "
        f"(estimate {report.estimate:.4f} +/- {report.stderr:.4f}, "
        f"reference product {reference:.4f}, limiting constant {limit:.4f})"
    )
    assert ok
    assert abs(reference - 0.612) < 1e-3
    assert abs(limit - 0.6079) < 1e-4


def test_criterion_7_ladders_match_exhaustive_enumeration(instance_runs):
    bad = []
    levels = 0
    for comp in instance_runs:
        f = comp.f
        for l, ladder in comp.tables.ladders.items():
            classes = classify_roots(f, l)
            _, simple, _ = ladder.levels
            if not classes.simple_roots and simple:
                bad.append((f.coefficients, l, "simple levels stored without a simple root"))
            depth = min(len(simple), max_exponent(l, ENUM_LIMIT))
            for e in range(1, depth + 1):
                modulus = l**e
                roots = [x for x in range(modulus) if value_at(f, x, modulus) == 0]
                simple_found = [x for x in roots if x % l in classes.simple_roots]
                levels += 1
                # existence and uniqueness: one enumerated root per simple class
                per_class = {x: 0 for x in classes.simple_roots}
                for x in simple_found:
                    per_class[x % l] += 1
                if set(simple[e - 1]) != set(simple_found) or any(
                    n != 1 for n in per_class.values()
                ):
                    bad.append((f.coefficients, l, e))
    ok = not bad
    record_acceptance(
        f"criterion 7 ladder soundness: {_verdict(ok)} "
        f"({levels} ladder levels recomputed by exhaustive enumeration)"
    )
    assert ok, bad


def test_criterion_8_norm_root_bijection():
    rng = random.Random("bijection:0")
    bad = []
    combos = 0
    for _ in range(25):
        d = rng.randint(2, 5)
        m = rng.randint(2, 30)
        f = random_sieve_polynomial(d, m, rng)
        l = rng.choice(primes_up_to(30))
        b = rng.randint(1, 200)
        if b % l == 0:
            b += 1
        coeffs = f.coefficients  # F(a, b) = sum c_i a^i b^(d-i)

        def norm_mod(a, modulus, _c=coeffs, _b=b, _d=d):
            acc = _c[_d] % modulus
            bp = 1
            for i in range(_d - 1, -1, -1):
                bp = bp * _b % modulus
                acc = (acc * a + _c[i] * bp) % modulus
            return acc

        classes = classify_roots(f, l)
        combos += 1
        for e in range(1, max_exponent(l, ENUM_LIMIT) + 1):
            modulus = l**e
            norm_side = {a for a in range(modulus) if norm_mod(a, modulus) == 0}
            poly_side = {b * x % modulus for x in range(modulus) if value_at(f, x, modulus) == 0}
            if norm_side != poly_side:
                bad.append((f.coefficients, b, l, e))
        # class preservation at level one: d/da F(a, b) = b^(d-1) f'(a / b)
        deriv = tuple(i * c for i, c in enumerate(coeffs) if i)
        for x in range(l):
            a = b * x % l
            norm_root = norm_mod(a, l) == 0
            norm_simple = norm_root and (
                sum(deriv[i - 1] * pow(a, i - 1, l) * pow(b, d - i, l) for i in range(1, d + 1)) % l != 0
            )
            if norm_simple != (x in classes.simple_roots) or (
                norm_root and not norm_simple
            ) != (x in classes.multiple_roots):
                bad.append((f.coefficients, b, l, "class", x))
    ok = not bad
    record_acceptance(
        f"criterion 8 norm-side root bijection: {_verdict(ok)} "
        f"({combos} random (f, b, l) draws, all levels up to {ENUM_LIMIT})"
    )
    assert ok, bad
