"""Hit-set counting and the two cost identities.

verify_ledgers, the oracle's one path, is checked against a plain
per-entry recount written below: for every (b, l, phase), the paper's
formulas applied to the recounted set sizes must give the report's
expected attempts, correction and asymptotic forms.  The report in turn
is checked against the attempt counters the sieves actually produce.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievelab.arith import InvariantViolation, max_exponent, primes_up_to
from sievelab.engine import PHASES, CostLedger, sieve_classical, sieve_improved
from sievelab.experiments import random_sieve_polynomial
from sievelab.oracle import LevelSums, PairRecord, phase_attempts, scaled_asymptotic, verify_ledgers
from sievelab.poly import SievePolynomial, algebraic_bound, exact_dtype, rational_bound
from sievelab.roots import classify_roots

F_SQUARE_PLUS_ONE = SievePolynomial((1, 0, 1), m=4)


@st.composite
def small_instances(draw, max_u=12):
    d = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=15))
    lower = tuple(draw(st.integers(min_value=-m, max_value=m)) for _ in range(d))
    f = SievePolynomial(coefficients=lower + (1,), m=m)
    u = draw(st.integers(min_value=1, max_value=max_u))
    y = draw(st.integers(min_value=2, max_value=13))
    return f, u, y


def direct_norm(f, a, b):
    """F(a, b) as the direct sum of c_i a^i b^(d-i), not by Horner's rule."""
    return sum(c * a**i * b ** (f.degree - i) for i, c in enumerate(f.coefficients))


def valuation(n, l):
    """v_l(n) of a nonzero integer n, by repeated exact division."""
    e = 0
    while n % l == 0:
        n //= l
        e += 1
    return e


class Pair(NamedTuple):
    """One checked pair of a report: the measured attempts of each phase of
    both sieves, the predicted totals, the correction, and c_asym and d_asym
    times (l - 1)."""

    b: int
    l: int
    measured_classical: list[int]
    measured_improved: list[int]
    c_exact: int
    d_exact: int
    correction: int
    c_scaled: int
    d_scaled: int


def pairs_of(columns) -> list[Pair]:
    """A report's pair_columns(), one Pair per checked pair."""
    return [
        Pair(*values)
        for values in zip(
            columns.b.tolist(), columns.l.tolist(), *columns.measured.tolist(), columns.c_exact.tolist(),
            columns.d_exact.tolist(), columns.correction.tolist(), *columns.scaled_asymptotic.tolist(),
        )
    ]


class Sets(NamedTuple):
    """Hit-set sizes of one (b, l); index e-1 holds the level-e size."""

    rational: tuple[int, ...]
    simple: tuple[int, ...]
    multiple: tuple[int, ...]


def recount_sets(f, u, b, l):
    """Per-entry recount of the level sizes, no vectorization, no caching."""
    rc = classify_roots(f, l)
    rat_depth = max_exponent(l, rational_bound(f, u))
    alg_depth = max_exponent(l, algebraic_bound(f, u))
    rational = [0] * rat_depth
    simple = [0] * alg_depth
    multiple = [0] * alg_depth
    for a in range(-u, u + 1):
        if gcd(a, b) != 1:
            continue
        rat = a - b * f.m
        nrm = direct_norm(f, a, b)
        if rat == 0 or nrm == 0:
            continue
        if rat % l == 0:
            for e in range(1, min(valuation(rat, l), rat_depth) + 1):
                rational[e - 1] += 1
        if nrm % l == 0:
            x = a * pow(b, -1, l) % l
            bucket = simple if x in rc.simple_roots else multiple
            assert x in rc.simple_roots or x in rc.multiple_roots
            for e in range(1, min(valuation(nrm, l), alg_depth) + 1):
                bucket[e - 1] += 1
    return Sets(tuple(rational), tuple(simple), tuple(multiple))


def paper_formulas(sets, l):
    """The paper's per-phase attempts of the classical and of the improved
    sieve, the improved sieve's correction, and (l - 1) times c_asym and
    d_asym, written out from the level sizes of one pair."""
    r, s, m = sets
    r1, s1, m1 = (sizes[0] if sizes else 0 for sizes in sets)
    m2 = m[1] if len(m) > 1 else 0
    classical = (r1 + sum(r), s1 + sum(s), m1 + sum(m))
    improved = (sum(r), sum(s), sum(m) + m2)
    deep = sum(m) - m1
    scaled = ((2 * l - 1) * (r1 + s1) + (l - 1) * (2 * m1 + deep), l * (r1 + s1) + (l - 1) * (m1 + deep))
    return classical, improved, m2, scaled


def assert_report_matches_recount(report, f, u, y):
    """Every (b, l, phase) of the report against the formulas applied to
    the plain recount; l dividing b must be unchecked."""
    assert report.primes == primes_up_to(y)
    for k, l in enumerate(report.primes):
        for b in range(1, u + 1):
            if b % l == 0:
                assert not report.checked[k, b - 1]
                continue
            assert report.checked[k, b - 1]
            classical, improved, correction, scaled = paper_formulas(recount_sets(f, u, b, l), l)
            assert report.expected[:, k, :, b - 1].tolist() == [list(classical), list(improved)], (b, l)
            assert report.correction[k, b - 1] == correction, (b, l)
            assert report.scaled_asymptotic[:, k, b - 1].tolist() == list(scaled), (b, l)


def report_for(f, u, y):
    return verify_ledgers(sieve_classical(f, u, y), sieve_improved(f, u, y), f, u, y)


def test_worked_instance_sets():
    assert recount_sets(F_SQUARE_PLUS_ONE, 3, 1, 5) == ((1,), (4, 0), (0, 0))
    assert_report_matches_recount(report_for(F_SQUARE_PLUS_ONE, 3, 5), F_SQUARE_PLUS_ONE, 3, 5)


def test_sets_skip_zero_entries():
    # f = x^2 has F(0, 1) = 0, so a = 0 never enters any count
    f = SievePolynomial((0, 0, 1), m=3)
    sets = recount_sets(f, 2, 1, 2)
    assert sets.multiple[0] == 2  # a = -2 and a = 2 only
    assert sets.multiple[1] == 2
    assert sets.simple == (0,) * len(sets.simple)
    report = report_for(f, 2, 2)
    assert report.ok
    assert_report_matches_recount(report, f, 2, 2)


def test_phase_formula_examples():
    # the worked pair (b, l) = (1, 5) of x^2 + 1 at u = 3: rational (1,), simple (4, 0)
    assert phase_attempts(LevelSums(1, 1, 4, 4, 0, 0, 0)) == ((2, 8, 0), (1, 4, 0))
    assert phase_attempts(LevelSums(0, 0, 0, 0, 0, 0, 0)) == ((0, 0, 0), (0, 0, 0))
    # multiple (1,): one while-loop stop, no second level
    assert phase_attempts(LevelSums(0, 0, 0, 0, 1, 0, 1)) == ((0, 0, 2), (0, 0, 1))
    # multiple (2, 1): the level-2 cell prices one failed retry in the improved sieve
    assert phase_attempts(LevelSums(0, 0, 0, 0, 2, 1, 3)) == ((0, 0, 5), (0, 0, 4))


def test_asymptotic_formula_examples():
    # c_asym = 45/4 and d_asym = 25/4 for the worked pair, times l - 1 = 4
    assert scaled_asymptotic(LevelSums(1, 1, 4, 4, 0, 0, 0), 5) == (45, 25)
    assert scaled_asymptotic(LevelSums(0, 0, 0, 0, 0, 0, 0), 5) == (0, 0)


@given(st.sampled_from(primes_up_to(50)), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_asymptotic_ratio_without_multiple_roots(l, b1, s1):
    c_scaled, d_scaled = scaled_asymptotic(LevelSums(b1, b1, s1, s1, 0, 0, 0), l)
    if b1 + s1:
        assert Fraction(d_scaled, c_scaled) == Fraction(l, 2 * l - 1)
        assert d_scaled <= Fraction(2, 3) * c_scaled


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_verify_ledgers_matches_plain_recount(instance):
    f, u, y = instance
    report = report_for(f, u, y)
    assert report.ok
    assert_report_matches_recount(report, f, u, y)


def test_python_fallback_path_matches_recount():
    # m large enough to push the norm bound past the int64 guard, so the
    # oracle runs on exact (object) integers
    m = 10**12
    f = SievePolynomial((7, -m + 3, 1, 0, 0, 1), m=m)
    assert algebraic_bound(f, 20) > 2**62
    report = report_for(f, 20, 7)
    assert report.ok
    assert_report_matches_recount(report, f, 20, 7)


@settings(deadline=None, max_examples=40)
@given(small_instances())
def test_level_sizes_are_monotone_and_sum_to_valuations(instance):
    f, u, y = instance
    report = report_for(f, u, y)
    for k, l in enumerate(report.primes):
        for b in range(1, u + 1):
            if b % l == 0:
                continue
            for sizes in recount_sets(f, u, b, l):
                assert all(hi >= lo for hi, lo in zip(sizes, sizes[1:]))
            rational_valuation = algebraic_valuation = 0
            for a in range(-u, u + 1):
                rat, nrm = a - b * f.m, direct_norm(f, a, b)
                if gcd(a, b) != 1 or rat == 0 or nrm == 0:
                    continue
                rational_valuation += valuation(rat, l)
                algebraic_valuation += valuation(nrm, l)
            # the improved sieve divides every factor of l out exactly once,
            # plus one failed retry per correction
            improved = report.expected[1, k, :, b - 1]
            assert improved[0] == rational_valuation
            assert improved[1] + improved[2] - report.correction[k, b - 1] == algebraic_valuation


def test_verify_ledgers_worked_instance():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    report = verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 5)
    assert report.ok
    assert report.mismatches == [] and report.stray_pairs == []
    pair = next(p for p in pairs_of(report.pair_columns()) if (p.b, p.l) == (1, 5))
    assert sum(pair.measured_classical) == pair.c_exact == 10
    assert sum(pair.measured_improved) == pair.d_exact == 5
    assert pair.correction == 0
    # c_asym = 45/4 and d_asym = 25/4, times l - 1 = 4
    assert (pair.c_scaled, pair.d_scaled) == (45, 25)
    assert (classical.ledger.grand_total(), improved.ledger.grand_total()) == (52, 27)


def test_verify_ledgers_on_zero_table():
    f = SievePolynomial((0, 1, 1), m=1)
    classical, improved = sieve_classical(f, 1, 3), sieve_improved(f, 1, 3)
    assert verify_ledgers(classical, improved, f, 1, 3).ok
    assert classical.ledger.grand_total() == improved.ledger.grand_total() == 0


def test_verify_ledgers_correction_instance():
    # (x + 1)^2 has a double root mod 3 whose whole class lifts, so the
    # improved sieve pays one failed retry per entry divisible by 9
    f = SievePolynomial((1, 2, 1), m=4)
    report = verify_ledgers(sieve_classical(f, 9, 3), sieve_improved(f, 9, 3), f, 9, 3)
    assert report.ok
    assert report.correction_total > 0
    touched = [p for p in pairs_of(report.pair_columns()) if p.correction]
    assert touched
    for p in touched:
        assert sum(p.measured_improved) == p.d_exact + p.correction


def test_verify_ledgers_validates_algorithm_ids():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    with pytest.raises(ValueError):
        verify_ledgers(improved, improved, F_SQUARE_PLUS_ONE, 3, 5)
    with pytest.raises(ValueError):
        verify_ledgers(classical, classical, F_SQUARE_PLUS_ONE, 3, 5)


def test_verify_ledgers_flags_stray_pairs():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    classical.ledger.attempts[0, 0, 1] = 1  # (b=2, l=2): l divides b, an impossible pair
    report = verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 5)
    assert report.stray_pairs == [(2, 2)]
    assert not report.ok


def test_verify_ledgers_detects_tampered_counts():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    five = classical.ledger.primes.index(5)
    classical.ledger.attempts[five, 0, 0] += 1  # (b=1, l=5) rational
    report = verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 5)
    assert (1, 5) in report.mismatches
    assert not report.ok
    # one attempt moved between phases keeps the pair total but breaks two phases
    improved.ledger.attempts[five, 0, 0] -= 1
    improved.ledger.attempts[five, 1, 0] += 1
    report = verify_ledgers(sieve_classical(F_SQUARE_PLUS_ONE, 3, 5), improved, F_SQUARE_PLUS_ONE, 3, 5)
    assert report.mismatches == [(1, 5)]
    assert report.phase_mismatches == [
        (1, 5, "improved", "rational", 1, 0),
        (1, 5, "improved", "algebraic_simple", 4, 5),
    ]


def test_classical_phases_match_per_side_set_sizes():
    # 2 and 5 divide f(m) = 10, so at the cells with a = 3b mod l they divide
    # both factors; a while-loop on the product would mix the phases there
    f = SievePolynomial((1, 0, 1), m=3)
    u, y = 30, 7
    classical = sieve_classical(f, u, y)
    report = verify_ledgers(classical, sieve_improved(f, u, y), f, u, y)
    assert report.pair_count == 85
    assert report.ok and report.phase_mismatches == []
    for k, l in enumerate(report.primes):
        for b in range(1, u + 1):
            if b % l:
                expected = [(sizes[0] if sizes else 0) + sum(sizes) for sizes in recount_sets(f, u, b, l)]
                assert classical.ledger.attempts[k, :, b - 1].tolist() == expected, (b, l)


@settings(deadline=None, max_examples=30)
@given(small_instances(max_u=10))
# every level-1 hit is a multiple-root hit whose class lifts, so both totals are 6
@example((SievePolynomial((0, 0, 1, 1), m=1), 2, 2))
def test_identities_hold_on_random_instances(instance):
    f, u, y = instance
    classical, improved = sieve_classical(f, u, y), sieve_improved(f, u, y)
    report = verify_ledgers(classical, improved, f, u, y)
    assert report.ok
    # classical - improved = sum over pairs of (c_exact - d_exact) - correction
    # = r1 + s1 + m1 - m2 per pair, and m2 <= m1
    pairs = report.pair_columns()
    # the chunks the command line formats hold the same columns, in order
    for size in (1, 7):
        chunks = list(report.pair_chunks(size))
        assert all(chunk.b.size == size for chunk in chunks[:-1])
        for name, whole in pairs._asdict().items():
            joined = np.concatenate([getattr(chunk, name) for chunk in chunks], axis=1 if name == "measured" else -1)
            assert np.array_equal(joined, whole), name
    gap = int((pairs.c_exact - pairs.d_exact).sum())
    classical_total, improved_total = classical.ledger.grand_total(), improved.ledger.grand_total()
    assert improved_total <= classical_total
    assert (improved_total < classical_total) == (gap > report.correction_total)
    # d_asym <= 2/3 c_asym on correction-free pairs, both times l - 1 > 0
    c_scaled, d_scaled = pairs.scaled_asymptotic[:, pairs.correction == 0]
    assert (3 * d_scaled <= 2 * c_scaled).all()


def test_oracle_invariants_raise(monkeypatch):
    import sievelab.oracle as oracle
    from sievelab.roots import RootClassification

    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    # a root classification that misses the roots of x^2 + 1 mod 5
    monkeypatch.setattr(oracle, "classify_roots", lambda f, l: RootClassification(frozenset(), frozenset(), frozenset(), {}))
    with pytest.raises(InvariantViolation, match=r"^norm hit at \(b=1, a=-3\) maps to non-root residue 1 mod 2$"):
        verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 5)
    monkeypatch.undo()
    # one that misses the root 8 of x^2 + 1 mod 13: the first hit it leaves
    # unsorted is (b, a) = (2, 3), whose residue 3 * 2^(-1) mod 13 is 8
    classify = oracle.classify_roots

    def without_8_mod_13(f, l):
        rc = classify(f, l)
        return rc if l != 13 else RootClassification(rc.simple_roots - {8}, rc.multiple_roots, frozenset(), {})

    monkeypatch.setattr(oracle, "classify_roots", without_8_mod_13)
    with pytest.raises(InvariantViolation, match=r"^norm hit at \(b=2, a=3\) maps to non-root residue 8 mod 13$"):
        verify_ledgers(sieve_classical(F_SQUARE_PLUS_ONE, 4, 13), sieve_improved(F_SQUARE_PLUS_ONE, 4, 13),
                       F_SQUARE_PLUS_ONE, 4, 13)
    monkeypatch.undo()
    # a proven depth of 0, which every hit exceeds
    monkeypatch.setattr(oracle, "max_exponent", lambda l, bound: 0)
    with pytest.raises(InvariantViolation, match="proven depth 0"):
        verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 5)


def per_pair_rows(classical, improved, f, u, y):
    """The report's pairs rebuilt one by one from the plain recount and the
    paper's formulas, with the measured counts read off the ledgers, and the
    (b, l, algorithm, phase, expected, measured) of every broken phase."""
    rows, broken = [], []
    for b in range(1, u + 1):
        for k, l in enumerate(primes_up_to(y)):
            if b % l == 0:
                continue
            wanted_classical, wanted_improved, correction, scaled = paper_formulas(recount_sets(f, u, b, l), l)
            measured = [outcome.ledger.attempts[k, :, b - 1].tolist() for outcome in (classical, improved)]
            broken += [
                (b, l, outcome.algorithm, phase, want, got)
                for outcome, wanted, got_phases in zip((classical, improved), (wanted_classical, wanted_improved), measured)
                for phase, want, got in zip(PHASES, wanted, got_phases)
                if got != want
            ]
            rows.append(Pair(
                b, l, *measured, sum(wanted_classical), sum(wanted_improved) - correction, correction, *scaled,
            ))
    return rows, broken


@pytest.mark.parametrize(
    "f,u,y,dtypes",
    [
        # both sides int64
        (random_sieve_polynomial(3, 20, random.Random("columns:int64")), 30, 29, (np.int64, np.int64)),
        # both sides exact integers, and the primes up to 59 form two int64 groups
        (random_sieve_polynomial(4, 10**18, random.Random("columns:object")), 12, 59, (object, object)),
        # an int64 rational side next to an exact algebraic one
        (random_sieve_polynomial(8, 10**12, random.Random("mixed:0")), 10, 11, (np.int64, object)),
    ],
    ids=["int64", "object", "mixed"],
)
def test_report_rows_match_per_pair_predictions(f, u, y, dtypes):
    assert (exact_dtype(rational_bound(f, u)), exact_dtype(algebraic_bound(f, u))) == dtypes
    classical, improved = sieve_classical(f, u, y), sieve_improved(f, u, y)
    report = verify_ledgers(classical, improved, f, u, y)
    assert report.ok
    assert_report_matches_recount(report, f, u, y)
    expected, broken = per_pair_rows(classical, improved, f, u, y)
    assert pairs_of(report.pair_columns()) == expected and report.phase_mismatches == broken == []
    assert report.rows == [PairRecord(p.b, p.l, p.c_exact, p.d_exact) for p in expected]
    assert report.pair_count == len(expected)
    assert report.correction_total == sum(p.correction for p in expected)
    # tampered ledger entries show up among the broken phases exactly where a per-pair check puts them
    k, b = len(report.primes) - 1, 1
    classical.ledger.attempts[k, 2, b - 1] += 1
    improved.ledger.attempts[k, 0, b - 1] += 1
    tampered = verify_ledgers(classical, improved, f, u, y)
    rows, broken = per_pair_rows(classical, improved, f, u, y)
    assert pairs_of(tampered.pair_columns()) == rows and tampered.phase_mismatches == broken
    assert tampered.mismatches == [(b, report.primes[k])] and not tampered.ok
    assert [m[2:4] for m in tampered.phase_mismatches] == [
        ("classical", "algebraic_multiple"),
        ("improved", "rational"),
    ]


def test_verify_ledgers_rejects_ledgers_of_other_parameters():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    with pytest.raises(ValueError, match="ledger"):
        verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 4, 5)  # other u
    with pytest.raises(ValueError, match="ledger"):
        verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 7)  # other primes
    with pytest.raises(ValueError, match="ledger"):
        verify_ledgers(classical, sieve_improved(F_SQUARE_PLUS_ONE, 2, 5), F_SQUARE_PLUS_ONE, 3, 5)
    with pytest.raises(ValueError, match="ledger"):
        verify_ledgers(sieve_classical(F_SQUARE_PLUS_ONE, 3, 7), improved, F_SQUARE_PLUS_ONE, 3, 5)
    # as many primes, but not the primes up to y
    other = CostLedger((2, 3, 7), PHASES, classical.ledger.attempts)
    with pytest.raises(ValueError, match="ledger"):
        verify_ledgers(dataclasses.replace(classical, ledger=other), improved, F_SQUARE_PLUS_ONE, 3, 5)
    # y = 6 has the primes of y = 5
    assert verify_ledgers(classical, improved, F_SQUARE_PLUS_ONE, 3, 6).ok
