"""The three sieves: table construction, attempt accounting, equivalence."""

import dataclasses
import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.arith import InvariantViolation, primes_up_to
from sievelab import engine
from sievelab.engine import (
    CLASSICAL,
    IMPROVED,
    PHASES,
    TRIVIAL,
    CostLedger,
    build_table,
    sieve_classical,
    sieve_improved,
    sieve_trivial,
)
from sievelab.experiments import random_sieve_polynomial
from sievelab.oracle import verify_ledgers
from sievelab.poly import SievePolynomial, algebraic_bound, eval_norm
from sievelab.roots import build_lift_tables

from conftest import divisible_cells, exact_values, limbs_of

F_SQUARE_PLUS_ONE = SievePolynomial((1, 0, 1), m=4)


def pair_total(ledger, b, l):
    """Attempts of every phase at (b, l), summed by pair_phase."""
    return sum(ledger.pair_phase(b, l, phase) for phase in ledger.phases)


def pair_attempts(ledger, b, l):
    """The attempts of each phase at (b, l), read off the array."""
    return ledger.attempts[ledger.primes.index(l), :, b - 1].tolist()


@st.composite
def small_instances(draw):
    # now and then a large m and degree, so that the norm side, or both
    # sides, hold exact integers and the primes fall into several groups
    if draw(st.integers(min_value=0, max_value=4)):
        d = draw(st.integers(min_value=2, max_value=4))
        m = draw(st.integers(min_value=1, max_value=12))
    else:
        d = draw(st.integers(min_value=2, max_value=6))
        m = draw(st.integers(min_value=1, max_value=10**15))
    lower = tuple(draw(st.integers(min_value=-m, max_value=m)) for _ in range(d))
    f = SievePolynomial(coefficients=lower + (1,), m=m)
    u = draw(st.integers(min_value=1, max_value=10))
    y = draw(st.integers(min_value=2, max_value=13))
    return f, u, y


def test_build_table_entries():
    u = 3
    entries = build_table(F_SQUARE_PLUS_ONE, u).entries  # entries[b-1][a+u] = T(b, a)
    assert entries[0][1 + u] == (1 - 4) * (1 + 1) == -6
    assert entries[1][2 + u] == 0  # gcd(2, 2) > 1
    assert entries[2][1 + u] == (1 - 12) * (1 + 9)
    assert all(type(v) is int for row in entries for v in row)
    entries = build_table(SievePolynomial((1, 0, 1), m=2), u).entries
    assert entries[0][2 + u] == 0  # a - b*m vanishes


def test_build_table_against_direct_products():
    f = SievePolynomial((-2, 3, 0, 1), m=5)
    u = 6
    table = build_table(f, u)
    assert limbs_of(table.rational) == limbs_of(table.algebraic) == 1
    rational, algebraic = exact_values(table.rational), exact_values(table.algebraic)
    d = f.degree
    for b in range(1, u + 1):
        for a in range(-u, u + 1):
            # the direct sum F(a, b) = sum c_i a^i b^(d-i), not Horner
            norm = sum(c * a**i * b ** (d - i) for i, c in enumerate(f.coefficients))
            sides = [a - b * f.m, norm] if gcd(a, b) == 1 and (a - b * f.m) * norm else [0, 0]
            assert [rational[b - 1, a + u], algebraic[b - 1, a + u]] == sides


def test_trivial_sieve_hand_count():
    # b = 1, a = -1, 0, 1: rational sides -5, -4, -3 and norms 2, 1, 2
    outcome = sieve_trivial(F_SQUARE_PLUS_ONE, 1, 3)
    # l = 2 pays 1 + 1 (norm 2), 2 + 1 (rational -4), 1 + 1 (norm 2);
    # l = 3 pays 1, 1 and 1 + 1 (rational -3)
    assert outcome.ledger.primes == (2, 3) and outcome.ledger.phases == ("total",)
    assert outcome.ledger.attempts.tolist() == [[[7]], [[4]]]
    assert outcome.table.rational.tolist() == [[[-5, -1, -1]]]  # one limb, one row
    assert outcome.table.algebraic.tolist() == [[[1, 1, 1]]]
    assert (outcome.table.rational * outcome.table.algebraic).tolist() == [[[-5, -1, -1]]]


def test_trivial_skips_zero_entries():
    # every entry of this instance is zero: a = bm kills the rational side,
    # the integer roots 0 and -1 kill the norm at the remaining points
    f = SievePolynomial((0, 1, 1), m=1)
    outcome = sieve_trivial(f, 1, 3)
    assert exact_values(outcome.table.rational).tolist() == exact_values(outcome.table.algebraic).tolist() == [[0] * 3]
    assert outcome.ledger.grand_total() == 0
    assert sieve_classical(f, 1, 3).ledger.grand_total() == 0
    assert sieve_improved(f, 1, 3).ledger.grand_total() == 0


def test_worked_instance_pair_totals():
    classical = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    improved = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    # rational, algebraic_simple and algebraic_multiple, 10 and 5 in all
    assert pair_attempts(classical.ledger, 1, 5) == [2, 8, 0]
    assert pair_attempts(improved.ledger, 1, 5) == [1, 4, 0]


def test_algorithm_ids():
    assert sieve_trivial(F_SQUARE_PLUS_ONE, 2, 3).algorithm == TRIVIAL
    assert sieve_classical(F_SQUARE_PLUS_ONE, 2, 3).algorithm == CLASSICAL
    assert sieve_improved(F_SQUARE_PLUS_ONE, 2, 3).algorithm == IMPROVED


def test_final_tables_agree_on_worked_instance():
    a = sieve_trivial(F_SQUARE_PLUS_ONE, 3, 5)
    b = sieve_classical(F_SQUARE_PLUS_ONE, 3, 5)
    c = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5)
    assert a.table.first_difference(b.table) is None and b.table.first_difference(c.table) is None


def test_no_attempts_recorded_when_prime_divides_b():
    for outcome in (sieve_classical(F_SQUARE_PLUS_ONE, 6, 5), sieve_improved(F_SQUARE_PLUS_ONE, 6, 5)):
        attempts = outcome.ledger.attempts
        assert attempts.any()
        for k, l in enumerate(outcome.ledger.primes):
            assert not attempts[k, :, l - 1 :: l].any()  # rows b = l, 2l, ...


def test_rows_with_prime_dividing_b_lose_nothing():
    # for gcd(a, b) = 1 and l | b the entry is a^(d+1) times a unit mod l,
    # so skipping those rows leaves nothing divisible behind
    f = SievePolynomial((-2, 3, 0, 1), m=5)
    u = 8
    for l in (2, 3, 5, 7):
        for b in range(l, u + 1, l):
            for a in range(-u, u + 1):
                if gcd(a, b) != 1:
                    continue
                entry = (a - b * f.m) * eval_norm(f, a, b)
                if entry:
                    assert entry % l != 0


def test_residuals_coprime_to_factor_base():
    y = 7
    for outcome in (
        sieve_trivial(F_SQUARE_PLUS_ONE, 5, y),
        sieve_classical(F_SQUARE_PLUS_ONE, 5, y),
        sieve_improved(F_SQUARE_PLUS_ONE, 5, y),
    ):
        assert divisible_cells(outcome.table, primes_up_to(y)) == []


def test_shared_tables_must_match_parameters():
    tables = build_lift_tables(F_SQUARE_PLUS_ONE, 3, 5)
    with pytest.raises(ValueError):
        sieve_classical(F_SQUARE_PLUS_ONE, 4, 5, tables)
    with pytest.raises(ValueError):
        sieve_improved(F_SQUARE_PLUS_ONE, 3, 7, tables)
    assert sum(pair_attempts(sieve_improved(F_SQUARE_PLUS_ONE, 3, 5, tables).ledger, 1, 5)) == 5
    table = build_table(F_SQUARE_PLUS_ONE, 3)
    with pytest.raises(ValueError):
        sieve_trivial(F_SQUARE_PLUS_ONE, 4, 5, table)
    with pytest.raises(ValueError):
        sieve_classical(F_SQUARE_PLUS_ONE, 4, 5, None, table)
    # a prebuilt table is sieved in place; its copy keeps the pristine values
    pristine = table.copy()
    shared = sieve_improved(F_SQUARE_PLUS_ONE, 3, 5, tables, table)
    assert shared.table is table
    assert shared.table.first_difference(sieve_improved(F_SQUARE_PLUS_ONE, 3, 5).table) is None
    assert pristine.first_difference(build_table(F_SQUARE_PLUS_ONE, 3)) is None
    assert pristine.first_difference(table) is not None


def test_ledger_arithmetic():
    attempts = np.zeros((2, len(PHASES), 2), dtype=np.int64)  # primes 2 and 3, u = 2
    attempts[0, 0, 0] = 3  # (b=1, l=2) rational
    attempts[0, 1, 0] = 4  # (b=1, l=2) algebraic_simple
    attempts[1, 0, 1] = 1  # (b=2, l=3) rational
    ledger = CostLedger((2, 3), PHASES, attempts)
    assert pair_total(ledger, 1, 2) == 7
    assert pair_total(ledger, 2, 3) == ledger.pair_phase(2, 3, "rational") == 1
    assert ledger.pair_phase(1, 2, "rational") == 3
    assert ledger.phase_total("rational") == 4
    assert ledger.grand_total() == 8
    # pairs and phases outside the array have no attempts
    assert pair_total(ledger, 9, 9) == 0
    assert pair_total(ledger, 3, 2) == ledger.pair_phase(1, 5, "rational") == 0
    assert ledger.pair_phase(1, 2, "total") == ledger.phase_total("total") == 0
    assert all(type(n) is int for n in (ledger.pair_phase(1, 2, "rational"), ledger.phase_total("rational"),
                                       ledger.grand_total()))


def test_repeated_runs_are_identical():
    first = sieve_improved(F_SQUARE_PLUS_ONE, 4, 7)
    second = sieve_improved(F_SQUARE_PLUS_ONE, 4, 7)
    assert first.ledger.primes == second.ledger.primes
    assert np.array_equal(first.ledger.attempts, second.ledger.attempts)
    assert first.table.first_difference(second.table) is None


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_all_three_sieves_agree(instance):
    f, u, y = instance
    trivial = sieve_trivial(f, u, y)
    classical = sieve_classical(f, u, y)
    improved = sieve_improved(f, u, y)
    assert trivial.table.first_difference(classical.table) is None
    assert classical.table.first_difference(improved.table) is None
    assert divisible_cells(improved.table, primes_up_to(y)) == []


def test_improved_sieve_stops_at_the_first_level_without_live_cells(monkeypatch):
    # small u and large m: every ladder is 15 to 49 levels deep, but the
    # progressions run out of live cells within the first 12
    f = SievePolynomial((3, 1, 0, 1), m=10**12 + 1)
    u, y = 6, 7
    tables = build_lift_tables(f, u, y)
    assert len(tables.ladders[2].levels[0]) == 42
    passes = {}
    real = engine._divide_once

    def recorded(side, cells, l, u, phase, modulus):
        passes.setdefault((l, phase), []).append((modulus, int(np.count_nonzero(side.take(cells, axis=1).any(axis=0)))))
        return real(side, cells, l, u, phase, modulus)

    monkeypatch.setattr(engine, "_divide_once", recorded)
    improved = sieve_improved(f, u, y, tables)
    for (l, phase), walked in passes.items():
        # the levels in order from the first, and none after a pass that found no live cell
        assert [modulus for modulus, _ in walked] == [l**e for e in range(1, len(walked) + 1)], (l, phase)
        assert all(live for _, live in walked[:-1]), (l, phase)
    assert len(passes[2, "rational"]) == 12 < len(tables.ladders[2].levels[0])
    classical = sieve_classical(f, u, y, tables)
    assert classical.table.first_difference(improved.table) is None
    assert verify_ledgers(classical, improved, f, u, y).ok


def test_corrupted_ladder_root_is_an_invariant_violation():
    # m = 4 keeps both sides int64 words; m = 10^18 puts both past 2^62, two limbs a cell
    for m, limbs in ((4, 1), (10**18, 2)):
        f = SievePolynomial((1, 0, 1), m=m)
        assert limbs_of(build_table(f, 12).algebraic) == limbs_of(build_table(f, 12).rational) == limbs
        tables = build_lift_tables(f, 12, 5)
        ladder = tables.ladders[5]
        rational, simple, multiple = ladder.levels
        assert simple[1] == (7, 18)
        # 12 lies over the root 2 mod 5 but is no root mod 25: F(12, 1) = 145
        tables.ladders[5] = dataclasses.replace(ladder, levels=(rational, (simple[0], (12, 18), *simple[2:]), multiple))
        with pytest.raises(InvariantViolation,
                           match=r"algebraic_simple division missed at b=1, a=12, l=5, level modulus 25"):
            sieve_improved(f, 12, 5, tables)


def test_classical_sieve_reads_its_rational_target_from_the_ladder():
    f = F_SQUARE_PLUS_ONE
    u, y = 12, 5
    tables = build_lift_tables(f, u, y)
    ladder = tables.ladders[3]
    _, simple, multiple = ladder.levels
    # m mod 3 = 1: a ladder that says 2 must change what the classical sieve divides
    tables.ladders[3] = dataclasses.replace(ladder, levels=((((f.m + 1) % 3,),), simple, multiple))
    classical = sieve_classical(f, u, y, tables)
    improved = sieve_improved(f, u, y)
    assert not verify_ledgers(classical, improved, f, u, y).ok
    assert classical.table.first_difference(sieve_trivial(f, u, y).table) is not None


def test_mixed_dtype_instance_matches_direct_products():
    # the tiny sweep shape (d, m, u, y) = (8, 10^12, 10, 11): the rational
    # side fits int64, the norm side does not, and the deepest level
    # modulus of a simple root passes 2^63
    f = random_sieve_polynomial(8, 10**12, random.Random("mixed:0"))
    u, y = 10, 11
    tables = build_lift_tables(f, u, y)
    assert any(
        ladder.levels[1] and l ** len(ladder.levels[1]) > 2**63 for l, ladder in tables.ladders.items()
    )
    classical = sieve_classical(f, u, y, tables)
    improved = sieve_improved(f, u, y, tables)
    trivial = sieve_trivial(f, u, y)
    for outcome in (classical, improved, trivial):
        assert limbs_of(outcome.table.rational) == 1  # int64 words
        assert limbs_of(outcome.table.algebraic) == 2  # two int64 limbs a cell
    assert verify_ledgers(classical, improved, f, u, y).ok
    primes = primes_up_to(y)
    expected = np.zeros((2, u, 2 * u + 1), dtype=object)  # the rational and the algebraic side
    for b in range(1, u + 1):
        for a in range(-u, u + 1):
            norm = sum(c * a**i * b ** (f.degree - i) for i, c in enumerate(f.coefficients))
            if gcd(a, b) != 1 or (a - b * f.m) * norm == 0:
                continue
            for side, value in enumerate((a - b * f.m, norm)):
                for l in primes:
                    while value % l == 0:
                        value //= l
                expected[side, b - 1, a + u] = value
    for outcome in (classical, improved, trivial):
        sides = [exact_values(outcome.table.rational), exact_values(outcome.table.algebraic)]
        assert [side.tolist() for side in sides] == expected.tolist()


def test_trivial_sieve_on_exact_sides_matches_recount():
    # both sides past 2^62; the 17 primes up to 59 span several limb residue groups (products below 2^31)
    f = random_sieve_polynomial(4, 10**18, random.Random("columns:object"))
    u, y = 12, 59
    primes = primes_up_to(y)
    assert algebraic_bound(f, u) >= 2**62 and prod(primes) >= 2**62
    outcome = sieve_trivial(f, u, y)
    assert limbs_of(outcome.table.rational) == limbs_of(outcome.table.algebraic) == 2
    rational, algebraic = exact_values(outcome.table.rational), exact_values(outcome.table.algebraic)
    expected = np.zeros((len(primes), 1, u), dtype=np.int64)
    for b in range(1, u + 1):
        for a in range(-u, u + 1):
            sides = [a - b * f.m, eval_norm(f, a, b)]
            if gcd(a, b) != 1 or 0 in sides:
                assert rational[b - 1, a + u] == algebraic[b - 1, a + u] == 0
                continue
            for k, l in enumerate(primes):
                expected[k, 0, b - 1] += 1  # live(b): the final failed test
                for i, value in enumerate(sides):
                    while value % l == 0:
                        value //= l
                        expected[k, 0, b - 1] += 1
                    sides[i] = value
            assert [rational[b - 1, a + u], algebraic[b - 1, a + u]] == sides
    assert np.array_equal(outcome.ledger.attempts, expected)


def cells_by_enumeration(residues, modulus, l, u):
    """Flat indices of the cells (b, a), l not dividing b, with a = b*x
    (mod modulus) for some x in residues: residue by residue, each row by
    row in ascending a."""
    width = 2 * u + 1
    return [
        (b - 1) * width + a + u
        for x in residues
        for b in range(1, u + 1)
        if b % l
        for a in range(-u, u + 1)
        if (a - b * x) % modulus == 0
    ]


BIG = 3**38  # (u + 1) * BIG passes 2^62 for u >= 3, and b * BIG passes 2^63 for b >= 7


@pytest.mark.parametrize(
    "residues, modulus, l, u",
    [
        ((2, 7), 9, 3, 10),  # modulus below the row width, several residues per row
        ((0, 1, 4), 5, 5, 12),  # rows 5 and 10 left out
        ((7, 18), 25, 5, 12),  # modulus equal to the row width
        ((3, 10, 22), 27, 3, 12),  # above it: at most one cell per row and residue
        ((1, BIG - 1, 3 * pow(2, -1, BIG) % BIG), BIG, 3, 10),  # a = b, a = -b and (b, a) = (2, 3)
    ],
)
def test_cells_match_enumeration(residues, modulus, l, u):
    cells = engine._cells(engine._rows_without(l, u), residues, modulus, u)
    assert cells.dtype == np.int64
    assert cells.tolist() == cells_by_enumeration(residues, modulus, l, u)
    assert len(set(cells.tolist())) == cells.size  # the progressions are disjoint


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 4), st.integers(1, 30), st.data())
def test_cells_of_a_level_match_enumeration(l, e, u, data):
    modulus = l**e
    residues = data.draw(st.lists(st.integers(0, modulus - 1), max_size=5, unique=True))
    cells = engine._cells(engine._rows_without(l, u), residues, modulus, u)
    assert cells.tolist() == cells_by_enumeration(residues, modulus, l, u)
