"""Brute-force cost accounting, independent of the sieve loops it checks.

For one pair (b, l) with l not dividing b, look at every a in [-u, u]
whose cell is live (gcd(a, b) = 1 and both factors nonzero) and count,
per level e >= 1:

  rational[e-1]  cells with l^e dividing a - b*m
  simple[e-1]    cells with l^e dividing F(a, b) whose residue
                 a * b^(-1) mod l is a simple root of f
  multiple[e-1]  same with a multiple root

verify_ledgers is the one way in.  It builds both factors itself, block
of rows by block (arith.blocks), with poly.table_factors (each side the
int64 limbs its proven bound needs, one limb below 2^62) and never reads
the engine's tables or walks the ladders it uses.  Per block it goes one
prime at a time: a test over the whole block finds the cells divisible by l,
repeated division of the values of those cells gives their valuations
(of all algebraic hits in one pass), a test of a = b*x (mod l) against
each of the at most d roots x that classify_roots returns (one row of
the residue kernel of roots, the same one the ladders read) sorts the
algebraic hits by root class, and counting per row gives the sizes of
every pair in the block at once.  Each prime's test is arith.fused_test,
one wrapping multiply, add and unsigned compare per value, on the int64
residues that arith.int64_residues gives of each side: a one-limb side
as it is, a wider one by Horner once per group of primes with product
below 2^31, so that each step r*2^32 + limb stays below 2^63.  Divisions
go through arith.fused_divide, which divides limbs by long division from
the top limb; the oracle gathers along the cell axis as the engine does.

Only the level-1 sizes, the level sums and multiple[1] enter the
formulas, so the oracle keeps just those, as the (primes, u) arrays of a
LevelSums.  The two public formulas, phase_attempts and
scaled_asymptotic, read a LevelSums of arrays here and one of ints
anywhere else.  From the set sizes the exact attempt counts of both
sieves follow, phase by phase:

  classical  rational = rational[0] + sum(rational)
             simple   = simple[0] + sum(simple)
             multiple = multiple[0] + sum(multiple)
  improved   rational = sum(rational)
             simple   = sum(simple)
             multiple = sum(multiple) + multiple[1]

The trailing multiple[1] term prices the failed final test of each
while-loop pass over a liftable multiple-root progression; the
geometric-series forms reported alongside (c_asym, d_asym) drop exactly
that term and replace the level sums by their l-adic limits.

The LedgerReport holds the predictions of every (b, l, phase) of both
sieves next to the two measured ledgers and compares them array against
array.  The tests read those arrays and pair_columns(), and the command
line the same columns gathered chunk by chunk (pair_chunks); rows, one
PairRecord per pair, is there for the benchmark's layer tracer alone and
is built only when read.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import InvariantViolation, blocks, fused_divide, fused_test, int64_residues, max_exponent, primes_up_to
from .engine import CLASSICAL, IMPROVED, PHASES, SieveOutcome
from .poly import SievePolynomial, algebraic_bound, rational_bound, table_factors
from .roots import classify_roots

# the first axis of a LedgerReport's arrays
ALGORITHMS = (CLASSICAL, IMPROVED)


class LevelSums(NamedTuple):
    """What the attempt formulas read of the hit sets: level-1 sizes, sums
    over all levels and the level-2 multiple size.  Ints for one pair, or
    arrays of one shape for many."""

    r1: int | np.ndarray
    r_sum: int | np.ndarray
    s1: int | np.ndarray
    s_sum: int | np.ndarray
    m1: int | np.ndarray
    m2: int | np.ndarray
    m_sum: int | np.ndarray


def phase_attempts(z: LevelSums) -> tuple[tuple, tuple]:
    """Attempts per phase (rational, algebraic_simple, algebraic_multiple)
    of the classical and of the improved sieve."""
    classical = (z.r1 + z.r_sum, z.s1 + z.s_sum, z.m1 + z.m_sum)
    improved = (z.r_sum, z.s_sum, z.m_sum + z.m2)
    return classical, improved


def scaled_asymptotic(z: LevelSums, l) -> tuple:
    """c_asym and d_asym times (l - 1): geometric-series cost forms from the
    level-1 sizes, with the exact higher multiple-root terms kept, since
    those do not telescope."""
    level1, deep_multiple = z.r1 + z.s1, z.m_sum - z.m1
    # (2l-1)/(l-1) * (b1+s1) + 2*m1 + deep and l/(l-1) * (b1+s1) + m1 + deep
    return (
        (2 * l - 1) * level1 + (l - 1) * (2 * z.m1 + deep_multiple),
        l * level1 + (l - 1) * (z.m1 + deep_multiple),
    )


def _valuations(side: np.ndarray, cells: np.ndarray, l: int, depth: int) -> np.ndarray:
    """v_l of the values of a flat (k, cells) side at the cells; a valuation
    above the proven depth is an invariant violation."""
    values = side.take(cells, axis=1)
    valuation = np.zeros(cells.size, dtype=np.int64)
    index = np.arange(cells.size)
    for level in range(depth + 1):
        divisible, values = fused_divide(values, l)
        index = index[divisible]
        if not index.size:
            return valuation
        valuation[index] += 1
    raise InvariantViolation(f"valuation exceeds proven depth {depth} for prime {l}")


def _hits(
    u: int,
    b: np.ndarray,
    l: int,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
    residues: list[np.ndarray],
    roots: list[np.ndarray],
    depths: tuple[int, int],
) -> list[np.ndarray]:
    """The LevelSums fields, per row of b (a column), of the rational,
    simple-root and multiple-root hits of l in the rows it does not divide;
    factors holds the two sides, flat (k, cells) limbs, and the live mask,
    residues an int64 array congruent to each side mod l, and roots the
    simple and the multiple roots of f mod l, each as a column."""
    rational, algebraic, live = factors
    width = 2 * u + 1
    live = (live & (b % l != 0)).reshape(-1)
    rational_hits = np.flatnonzero(live & fused_test(residues[0], l))
    norm_hits = np.flatnonzero(live & fused_test(residues[1], l))

    hit_b = b[norm_hits // width, 0]
    hit_a = norm_hits % width - u
    # a = b*x (mod l) for at most one root x, since l does not divide b
    simple, multiple = (((hit_b * x - hit_a) % l == 0).any(axis=0) for x in roots)
    stray = np.flatnonzero(~(simple | multiple))
    if stray.size:
        i = stray[0]
        residue = int(hit_a[i]) * pow(int(hit_b[i]), -1, l) % l
        raise InvariantViolation(
            f"norm hit at (b={hit_b[i]}, a={hit_a[i]}) maps to non-root residue {residue} mod {l}"
        )
    r_row, r_val = rational_hits // width, _valuations(rational, rational_hits, l, depths[0])
    # both root classes share the algebraic depth, so one call values them all
    norm_rows, norm_valuations = norm_hits // width, _valuations(algebraic, norm_hits, l, depths[1])
    (s_row, s_val), (m_row, m_val) = ((norm_rows[mask], norm_valuations[mask]) for mask in (simple, multiple))

    def count(row, times=1):
        """Hits per row, each counted `times` times."""
        return np.bincount(np.repeat(row, times), minlength=len(b))

    return [count(r_row), count(r_row, r_val), count(s_row), count(s_row, s_val),
            count(m_row), count(m_row[m_val >= 2]), count(m_row, m_val)]


def _level_sums(f: SievePolynomial, u: int, primes: tuple[int, ...]) -> LevelSums:
    """LevelSums of every (l, b) as (primes, u) arrays, zero where l divides b."""
    sums = np.zeros((len(LevelSums._fields), len(primes), u), dtype=np.int64)
    # the simple and the multiple roots of f mod each l, as columns
    roots = [
        [np.array(list(x), dtype=np.int64)[:, None] for x in (rc.simple_roots, rc.multiple_roots)]
        for rc in (classify_roots(f, l) for l in primes)
    ]
    # proven largest exponents of each l on the rational and the algebraic side
    depths = [(max_exponent(l, rational_bound(f, u)), max_exponent(l, algebraic_bound(f, u))) for l in primes]
    for rows in blocks(u, 2 * u + 1):
        b = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int64)[:, None]
        rational, algebraic, live = table_factors(f, u, b)
        factors = (*(x.reshape(len(x), -1) for x in (rational, algebraic)), live)  # sides: (k, cells)
        residues = zip(primes, int64_residues(factors[0], primes), int64_residues(factors[1], primes))
        for k, (l, *sides) in enumerate(residues):
            sums[:, k, rows.start : rows.stop] = _hits(u, b, l, factors, sides, roots[k], depths[k])
    return LevelSums(*sums)


@dataclass(frozen=True)
class PairRecord:
    """The predicted attempt totals of one (b, l): what the benchmark's layer
    tracer sums; every other reader takes pair_columns()."""

    b: int
    l: int
    c_exact: int
    d_exact: int


class PairColumns(NamedTuple):
    """One entry per checked pair, or per pair of one chunk of them, sorted
    by (b, l): measured[g, i, p] is the attempts of phase PHASES[p] of
    algorithm ALGORITHMS[g], and scaled_asymptotic[g] is c_asym (g = 0) or
    d_asym (g = 1) times (l - 1)."""

    b: np.ndarray
    l: np.ndarray
    measured: np.ndarray
    c_exact: np.ndarray
    d_exact: np.ndarray
    correction: np.ndarray
    scaled_asymptotic: np.ndarray


@dataclass(eq=False)
class LedgerReport:
    """Measured and predicted attempts of every (b, l, phase), as arrays.

    measured[g, k, p, b-1] and expected[g, k, p, b-1] hold the attempts of
    phase PHASES[p] at (b, primes[k]), g = 0 for the classical and g = 1 for
    the improved sieve; correction[k, b-1] is the improved sieve's
    while-loop correction, scaled_asymptotic[g, k, b-1] is c_asym (g = 0)
    or d_asym (g = 1) times (l - 1), and checked[k, b-1] marks the pairs
    with l not dividing b.  A pair is ok when every phase of both sieves
    matches its prediction, which also makes its totals match.
    """

    primes: tuple[int, ...]
    measured: np.ndarray
    expected: np.ndarray
    correction: np.ndarray
    scaled_asymptotic: np.ndarray
    checked: np.ndarray

    @property
    def correction_total(self) -> int:
        return int(self.correction.sum())

    @property
    def pair_count(self) -> int:
        return int(np.count_nonzero(self.checked))

    def _pairs(self, mask: np.ndarray) -> list[tuple[int, int]]:
        """(b, l) where a (primes, u) mask holds, sorted by b and then l."""
        rows, ks = np.nonzero(mask.T)
        return [(b + 1, self.primes[k]) for b, k in zip(rows.tolist(), ks.tolist())]

    def _broken_phases(self) -> np.ndarray:
        return (self.measured != self.expected) & self.checked[None, :, None, :]

    def _stray(self) -> np.ndarray:
        return self.measured.any(axis=(0, 2)) & ~self.checked

    @property
    def mismatches(self) -> list[tuple[int, int]]:
        return self._pairs(self._broken_phases().any(axis=(0, 2)))

    @property
    def phase_mismatches(self) -> list[tuple[int, int, str, str, int, int]]:
        """(b, l, algorithm, phase, expected, measured) over all pairs."""
        g, k, p, row = np.nonzero(self._broken_phases())
        order = np.lexsort((p, g, k, row))  # by b, l, algorithm, phase
        g, k, p, row = (x[order] for x in (g, k, p, row))
        expected, measured = self.expected[g, k, p, row].tolist(), self.measured[g, k, p, row].tolist()
        return [
            (b + 1, self.primes[ki], ALGORITHMS[gi], PHASES[pi], e, m)
            for gi, ki, pi, b, e, m in zip(g.tolist(), k.tolist(), p.tolist(), row.tolist(), expected, measured)
        ]

    @property
    def stray_pairs(self) -> list[tuple[int, int]]:
        """(b, l) with l dividing b where either ledger recorded attempts."""
        return self._pairs(self._stray())

    @property
    def ok(self) -> bool:
        return not self._broken_phases().any() and not self._stray().any()

    def pair_columns(self) -> PairColumns:
        """Every checked pair's measured and predicted counts, as columns."""
        return self._columns(*np.nonzero(self.checked.T))

    def pair_chunks(self, size: int) -> Iterator[PairColumns]:
        """pair_columns() in slices of `size` pairs, each gathered only when
        it is reached, so no column of every pair is held."""
        row, k = np.nonzero(self.checked.T)
        for start in range(0, row.size, size):
            yield self._columns(row[start : start + size], k[start : start + size])

    def _columns(self, row: np.ndarray, k: np.ndarray) -> PairColumns:
        """The columns of the pairs (row + 1, primes[k])."""
        correction = self.correction[k, row]
        exact = self.expected.transpose(0, 1, 3, 2)[:, k, row].sum(axis=2)  # attempts per algorithm and pair
        return PairColumns(
            b=row + 1,
            l=np.array(self.primes, dtype=np.int64)[k],
            measured=self.measured.transpose(0, 1, 3, 2)[:, k, row],
            c_exact=exact[0],
            d_exact=exact[1] - correction,
            correction=correction,
            scaled_asymptotic=self.scaled_asymptotic[:, k, row],
        )

    @property
    def rows(self) -> list[PairRecord]:
        """One PairRecord per checked pair, sorted by (b, l), for the layer
        tracer; built on each read from pair_columns()."""
        pairs = self.pair_columns()
        return [
            PairRecord(b, l, c, d)
            for b, l, c, d in zip(pairs.b.tolist(), pairs.l.tolist(), pairs.c_exact.tolist(), pairs.d_exact.tolist())
        ]


def verify_ledgers(
    classical: SieveOutcome, improved: SieveOutcome, f: SievePolynomial, u: int, y: int
) -> LedgerReport:
    """Predict the attempts of every (b, l, phase) of both sieves from the
    oracle's own set sizes and hold them next to the two measured ledgers."""
    if classical.algorithm != CLASSICAL:
        raise ValueError(f"first outcome must come from the classical sieve, got {classical.algorithm}")
    if improved.algorithm != IMPROVED:
        raise ValueError(f"second outcome must come from the improved sieve, got {improved.algorithm}")
    primes = tuple(primes_up_to(y))
    for outcome in (classical, improved):
        ledger = outcome.ledger
        if ledger.primes != primes or ledger.phases != PHASES or ledger.attempts.shape != (len(primes), len(PHASES), u):
            raise ValueError(
                f"{outcome.algorithm} ledger has shape {ledger.attempts.shape} over {len(ledger.primes)} primes, "
                f"the report wants u={u} and the {len(primes)} primes up to y={y}"
            )

    sums = _level_sums(f, u, primes)
    l = np.array(primes, dtype=np.int64)[:, None]
    return LedgerReport(
        primes=primes,
        measured=np.stack([classical.ledger.attempts, improved.ledger.attempts]),
        expected=np.array(phase_attempts(sums)).transpose(0, 2, 1, 3),
        correction=sums.m2.copy(),  # a view of one field would keep all seven level-sum arrays alive
        scaled_asymptotic=np.array(scaled_asymptotic(sums, l)),
        checked=np.arange(1, u + 1) % l != 0,
    )
