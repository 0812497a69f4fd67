"""Brute-force cost accounting, independent of the sieve loops it checks.

For one pair (b, l) with l not dividing b, look at every a in [-u, u]
whose cell is live (gcd(a, b) = 1 and both factors nonzero) and count,
per level e >= 1:

  rational[e-1]  cells with l^e dividing a - b*m
  simple[e-1]    cells with l^e dividing F(a, b) whose residue
                 a * b^(-1) mod l is a simple root of f
  multiple[e-1]  same with a multiple root

The oracle recomputes both factors itself with poly.eval_norm (each side
int64 when its proven bound stays below 2^62, exact integers above) and
never reads the engine's tables or walks the ladders it uses.  It works
on blocks of rows, one prime at a time: a test over the whole block finds
the cells divisible by l, repeated division of those cells finds the
cells divisible by each l^e, a lookup table built from classify_roots
sorts the algebraic hits by the root class of a * b^(-1) mod l, and
counting per row gives the sizes of every pair in the block at once.
From these set sizes the exact attempt counts of both sieves follow,
phase by phase:

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
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import InvariantViolation, max_exponent, mod_inverse, primes_up_to
from .engine import CLASSICAL, IMPROVED, PHASES, SieveOutcome
from .poly import SievePolynomial, algebraic_bound, eval_norm, exact_dtype, rational_bound
from .roots import classify_roots

# rows per block of the oracle's own factor arrays: about this many cells,
# so exact-integer sides stay small next to the engine's tables
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class SetFamily:
    """Hit-set sizes for one (b, l); index e-1 holds the level-e size."""

    b: int
    l: int
    rational: tuple[int, ...]
    simple: tuple[int, ...]
    multiple: tuple[int, ...]


def predict_phases(sets: SetFamily) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Per-phase attempts (rational, algebraic_simple, algebraic_multiple)
    of the classical sieve and of the improved sieve."""
    r, s, m = sets.rational, sets.simple, sets.multiple
    sr, ss, sm = sum(r), sum(s), sum(m)
    classical = ((r[0] if r else 0) + sr, (s[0] if s else 0) + ss, (m[0] if m else 0) + sm)
    improved = (sr, ss, sm + (m[1] if len(m) > 1 else 0))
    return classical, improved


def predict_exact(sets: SetFamily) -> tuple[int, int, int]:
    """(classical attempts, improved attempts less correction, correction)."""
    classical, improved = predict_phases(sets)
    correction = sets.multiple[1] if len(sets.multiple) > 1 else 0
    return sum(classical), sum(improved) - correction, correction


def predict_asymptotic(sets: SetFamily, l: int) -> tuple[Fraction, Fraction]:
    """Geometric-series cost forms from level-1 sizes (exact higher
    multiple-root terms kept, since those do not telescope)."""
    b1 = sets.rational[0] if sets.rational else 0
    s1 = sets.simple[0] if sets.simple else 0
    m1 = sets.multiple[0] if sets.multiple else 0
    deep_multiple = sum(sets.multiple[1:])
    # (2l-1)/(l-1) * (b1+s1) + 2*m1 + deep and l/(l-1) * (b1+s1) + m1 + deep
    c_asym = Fraction((2 * l - 1) * (b1 + s1) + (l - 1) * (2 * m1 + deep_multiple), l - 1)
    d_asym = Fraction(l * (b1 + s1) + (l - 1) * (m1 + deep_multiple), l - 1)
    return c_asym, d_asym


def _factor_arrays(f: SievePolynomial, u: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rational and algebraic factors of the rows b (a column) and their
    live mask, each side in the dtype its proven bound allows."""
    a = np.arange(-u, u + 1, dtype=np.int64)
    rat_t, alg_t = exact_dtype(rational_bound(f, u)), exact_dtype(algebraic_bound(f, u))
    rational = a.astype(rat_t) - b.astype(rat_t) * f.m
    algebraic = eval_norm(f, a.astype(alg_t), b.astype(alg_t))
    live = (np.gcd(a, b) == 1) & (rational != 0) & (algebraic != 0)
    return rational, algebraic, live


def _level_sizes(side: np.ndarray, cells: np.ndarray, l: int, depth: int, rows: int) -> np.ndarray:
    """sizes[e-1, j] = how many of the cells in row j have l^e dividing
    their value, for e = 1..depth; the cells must all be divisible by l."""
    width = side.shape[1]
    values = side.reshape(-1)[cells]
    sizes = np.zeros((depth, rows), dtype=np.int64)
    e = 0
    while cells.size:
        if e == depth:
            raise InvariantViolation(f"valuation exceeds proven depth {depth} for prime {l}")
        sizes[e] = np.bincount(cells // width, minlength=rows)
        values = values // l
        keep = values % l == 0
        cells, values = cells[keep], values[keep]
        e += 1
    return sizes


def _residue_lookup(f: SievePolynomial, l: int) -> tuple[np.ndarray, np.ndarray]:
    """kinds[x] for x mod l (0 no root of f, 1 simple root, 2 multiple
    root) and inverse[x] = x^(-1) mod l (inverse[0] unused)."""
    rc = classify_roots(f, l)
    kinds = np.zeros(l, dtype=np.int8)
    kinds[list(rc.simple_roots)] = 1
    kinds[list(rc.multiple_roots)] = 2
    inverse = np.array([0] + [mod_inverse(x, l) for x in range(1, l)], dtype=np.int64)
    return kinds, inverse


def _set_families(
    f: SievePolynomial,
    u: int,
    b: np.ndarray,
    l: int,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
    lookup: tuple[np.ndarray, np.ndarray],
) -> list[SetFamily]:
    """Hit-set sizes of (b, l) for every row b (a column) that l does not divide."""
    rational, algebraic, live = factors
    kinds, inverse = lookup
    width = 2 * u + 1
    rows = b.shape[0]
    live = live & (b % l != 0)
    rational_hits = np.flatnonzero(live & (rational % l == 0))
    norm_hits = np.flatnonzero(live & (algebraic % l == 0))

    hit_b = b[norm_hits // width, 0]
    hit_a = norm_hits % width - u
    residue = hit_a % l * inverse[hit_b % l] % l
    kind = kinds[residue]
    stray = np.flatnonzero(kind == 0)
    if stray.size:
        i = stray[0]
        raise InvariantViolation(
            f"norm hit at (b={hit_b[i]}, a={hit_a[i]}) maps to non-root residue {residue[i]} mod {l}"
        )

    depth_rational = max_exponent(l, rational_bound(f, u))
    depth_algebraic = max_exponent(l, algebraic_bound(f, u))
    sizes = [
        _level_sizes(rational, rational_hits, l, depth_rational, rows),
        _level_sizes(algebraic, norm_hits[kind == 1], l, depth_algebraic, rows),
        _level_sizes(algebraic, norm_hits[kind == 2], l, depth_algebraic, rows),
    ]
    kept = np.flatnonzero(b[:, 0] % l)
    per_row = [level[:, kept].T.tolist() for level in sizes]
    return [
        SetFamily(b=int(b[j, 0]), l=l, rational=tuple(r), simple=tuple(s), multiple=tuple(m))
        for j, r, s, m in zip(kept, *per_row)
    ]


def compute_sets(f: SievePolynomial, u: int, b: int, l: int) -> SetFamily:
    """Exhaustive hit-set sizes for one pair; l must be a prime not dividing b."""
    if not 1 <= b <= u:
        raise ValueError(f"b = {b} outside [1, {u}]")
    if b % l == 0:
        raise ValueError(f"set sizes are only defined for l not dividing b, got b={b}, l={l}")
    row = np.array([[b]], dtype=np.int64)
    (sets,) = _set_families(f, u, row, l, _factor_arrays(f, u, row), _residue_lookup(f, l))
    return sets


@dataclass(frozen=True)
class PairRecord:
    """Measured and predicted attempt counts for one (b, l).

    phase_mismatches lists (algorithm, phase, expected, measured) for every
    phase whose measured attempts break its per-phase identity."""

    b: int
    l: int
    measured_classical: int
    measured_improved: int
    c_exact: int
    d_exact: int
    correction: int
    c_asym: Fraction
    d_asym: Fraction
    phase_mismatches: tuple[tuple[str, str, int, int], ...] = ()

    @property
    def classical_ok(self) -> bool:
        return self.measured_classical == self.c_exact

    @property
    def improved_ok(self) -> bool:
        return self.measured_improved == self.d_exact + self.correction

    @property
    def ok(self) -> bool:
        return self.classical_ok and self.improved_ok and not self.phase_mismatches


@dataclass
class LedgerReport:
    u: int
    y: int
    rows: list[PairRecord]
    stray_pairs: list[tuple[int, int]]
    classical_total: int
    improved_total: int
    correction_total: int

    @property
    def mismatches(self) -> list[tuple[int, int]]:
        return [(r.b, r.l) for r in self.rows if not r.ok]

    @property
    def phase_mismatches(self) -> list[tuple[int, int, str, str, int, int]]:
        """(b, l, algorithm, phase, expected, measured) over all pairs."""
        return [(r.b, r.l, *m) for r in self.rows for m in r.phase_mismatches]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.stray_pairs

    @property
    def ratio(self) -> Fraction | None:
        if self.classical_total == 0:
            return None
        return Fraction(self.improved_total, self.classical_total)


def verify_ledgers(
    classical: SieveOutcome, improved: SieveOutcome, f: SievePolynomial, u: int, y: int
) -> LedgerReport:
    """Check both measured ledgers against the brute-force predictions,
    pair by pair and phase by phase, and aggregate the totals."""
    if classical.algorithm != CLASSICAL:
        raise ValueError(f"first outcome must come from the classical sieve, got {classical.algorithm}")
    if improved.algorithm != IMPROVED:
        raise ValueError(f"second outcome must come from the improved sieve, got {improved.algorithm}")

    primes = primes_up_to(y)
    lookups = {l: _residue_lookup(f, l) for l in primes}
    outcomes = (classical, improved)
    rows: list[PairRecord] = []
    step = max(1, _BLOCK_CELLS // (2 * u + 1))
    for first in range(1, u + 1, step):
        b_column = np.arange(first, min(first + step, u + 1), dtype=np.int64)[:, None]
        factors = _factor_arrays(f, u, b_column)
        for l in primes:
            for sets in _set_families(f, u, b_column, l, factors, lookups[l]):
                b = sets.b
                c_exact, d_exact, correction = predict_exact(sets)
                c_asym, d_asym = predict_asymptotic(sets, l)
                measured = [outcome.ledger.counts.get((b, l), {}) for outcome in outcomes]
                phase_mismatches = tuple(
                    (outcome.algorithm, phase, want, got)
                    for outcome, counts, wanted in zip(outcomes, measured, predict_phases(sets))
                    for phase, want in zip(PHASES, wanted)
                    if (got := counts.get(phase, 0)) != want
                )
                rows.append(
                    PairRecord(
                        b=b,
                        l=l,
                        measured_classical=sum(measured[0].values()),
                        measured_improved=sum(measured[1].values()),
                        c_exact=c_exact,
                        d_exact=d_exact,
                        correction=correction,
                        c_asym=c_asym,
                        d_asym=d_asym,
                        phase_mismatches=phase_mismatches,
                    )
                )
    rows.sort(key=lambda r: (r.b, r.l))

    allowed = {(b, l) for b in range(1, u + 1) for l in primes if b % l}
    recorded = set(classical.ledger.counts) | set(improved.ledger.counts)
    stray = sorted(recorded - allowed)
    return LedgerReport(
        u=u,
        y=y,
        rows=rows,
        stray_pairs=stray,
        classical_total=classical.ledger.grand_total(),
        improved_total=improved.ledger.grand_total(),
        correction_total=sum(r.correction for r in rows),
    )
