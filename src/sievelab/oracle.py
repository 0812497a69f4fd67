"""Brute-force cost accounting, independent of the sieve loops it checks.

For one pair (b, l) with l not dividing b, scan every a in [-u, u] whose
table entry is nonzero and count, per level e >= 1:

  rational[e-1]  entries with l^e dividing a - b*m
  simple[e-1]    entries with l^e dividing F(a, b) whose residue
                 a * b^(-1) mod l is a simple root of f
  multiple[e-1]  same with a multiple root

Each count is found by direct divisibility tests on the two factors of
the entry, recomputed per row with poly.eval_norm (int64 when the proven
bounds stay below 2^62, exact integers above), never by reading the
engine's tables or walking the ladders it uses.  From these
set sizes the exact per-pair attempt counts of both sieves follow:

  classical(b, l) = rational[0] + sum(rational) + algebraic[0] + sum(algebraic)
  improved(b, l)  = sum(rational) + sum(simple) + sum(multiple) + multiple[1]

where algebraic[e] = simple[e] + multiple[e].  The trailing multiple[1]
term prices the failed final test of each while-loop pass over a
liftable multiple-root progression; the geometric-series forms reported
alongside (c_asym, d_asym) drop exactly that term and replace the level
sums by their l-adic limits.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import InvariantViolation, max_exponent, mod_inverse, primes_up_to, valuation
from .engine import CLASSICAL, IMPROVED, SieveOutcome
from .poly import SievePolynomial, algebraic_bound, eval_norm, rational_bound
from .roots import classify_roots

_INT64_SAFE = 2**62


@dataclass(frozen=True)
class SetFamily:
    """Hit-set sizes for one (b, l); index e-1 holds the level-e size."""

    b: int
    l: int
    rational: tuple[int, ...]
    simple: tuple[int, ...]
    multiple: tuple[int, ...]


def predict_exact(sets: SetFamily) -> tuple[int, int, int]:
    """(classical attempts, improved attempts less correction, correction)."""
    b1 = sets.rational[0] if sets.rational else 0
    s1 = sets.simple[0] if sets.simple else 0
    m1 = sets.multiple[0] if sets.multiple else 0
    c_exact = b1 + sum(sets.rational) + (s1 + m1) + sum(sets.simple) + sum(sets.multiple)
    d_exact = sum(sets.rational) + sum(sets.simple) + sum(sets.multiple)
    correction = sets.multiple[1] if len(sets.multiple) > 1 else 0
    return c_exact, d_exact, correction


def predict_asymptotic(sets: SetFamily, l: int) -> tuple[Fraction, Fraction]:
    """Geometric-series cost forms from level-1 sizes (exact higher
    multiple-root terms kept, since those do not telescope)."""
    b1 = sets.rational[0] if sets.rational else 0
    s1 = sets.simple[0] if sets.simple else 0
    m1 = sets.multiple[0] if sets.multiple else 0
    deep_multiple = sum(sets.multiple[1:])
    c_asym = Fraction(2 * l - 1, l - 1) * (b1 + s1) + 2 * m1 + deep_multiple
    d_asym = Fraction(l, l - 1) * (b1 + s1) + m1 + deep_multiple
    return c_asym, d_asym


class _RowScanner:
    """Factor arrays for one row at a time, scanned per prime.

    The dtype is fixed once from the proven bounds: int64 when both
    factors stay below _INT64_SAFE, exact Python integers (object) above.
    Both dtypes run the same code and report the same hits.
    """

    def __init__(self, f: SievePolynomial, u: int):
        self.f = f
        self.u = u
        fits = algebraic_bound(f, u) < _INT64_SAFE and rational_bound(f, u) < _INT64_SAFE
        self._a64 = np.arange(-u, u + 1, dtype=np.int64)
        self._avals = self._a64 if fits else self._a64.astype(object)
        self._row_b = 0
        self._classes: dict[int, tuple[frozenset[int], frozenset[int]]] = {}

    def classes(self, l: int) -> tuple[frozenset[int], frozenset[int]]:
        got = self._classes.get(l)
        if got is None:
            rc = classify_roots(self.f, l)
            got = (rc.simple_roots, rc.multiple_roots)
            self._classes[l] = got
        return got

    def _load_row(self, b: int) -> None:
        if self._row_b == b:
            return
        self._row_b = b
        self._rat = self._avals - b * self.f.m
        self._norm = eval_norm(self.f, self._avals, b)
        self._active = (np.gcd(self._a64, b) == 1) & (self._rat != 0) & (self._norm != 0)

    def scan(self, b: int, l: int) -> tuple[list[int], list[tuple[int, int]]]:
        """Rational hit values, and (a, norm value) for the norm hits."""
        self._load_row(b)
        rmask = self._active & (self._rat % l == 0)
        nmask = self._active & (self._norm % l == 0)
        rational_hits = self._rat[rmask].tolist()
        norm_hits = list(zip((np.nonzero(nmask)[0] - self.u).tolist(), self._norm[nmask].tolist()))
        return rational_hits, norm_hits


def _level_sizes(values: list[int], l: int, depth: int) -> tuple[int, ...]:
    """sizes[e-1] = how many values are divisible by l^e, for e = 1..depth."""
    per_valuation = [0] * (depth + 1)
    for v in values:
        e = valuation(v, l)
        if e > depth:
            raise InvariantViolation(f"valuation {e} exceeds proven depth {depth} for prime {l}")
        per_valuation[e] += 1
    sizes = []
    running = 0
    for e in range(depth, 0, -1):
        running += per_valuation[e]
        sizes.append(running)
    return tuple(reversed(sizes))


def _sets_from_hits(
    scanner: _RowScanner, f: SievePolynomial, u: int, b: int, l: int
) -> SetFamily:
    rational_hits, norm_hits = scanner.scan(b, l)
    simple_roots, multiple_roots = scanner.classes(l)
    depth_rational = max_exponent(l, rational_bound(f, u))
    depth_algebraic = max_exponent(l, algebraic_bound(f, u))

    binv = mod_inverse(b % l, l)
    simple_values = []
    multiple_values = []
    for a, v in norm_hits:
        residue = (a % l) * binv % l
        if residue in simple_roots:
            simple_values.append(v)
        elif residue in multiple_roots:
            multiple_values.append(v)
        else:
            raise InvariantViolation(
                f"norm hit at (b={b}, a={a}) maps to non-root residue {residue} mod {l}"
            )
    return SetFamily(
        b=b,
        l=l,
        rational=_level_sizes(rational_hits, l, depth_rational),
        simple=_level_sizes(simple_values, l, depth_algebraic),
        multiple=_level_sizes(multiple_values, l, depth_algebraic),
    )


def compute_sets(f: SievePolynomial, u: int, b: int, l: int) -> SetFamily:
    """Exhaustive hit-set sizes for one pair; l must be a prime not dividing b."""
    if not 1 <= b <= u:
        raise ValueError(f"b = {b} outside [1, {u}]")
    if b % l == 0:
        raise ValueError(f"set sizes are only defined for l not dividing b, got b={b}, l={l}")
    return _sets_from_hits(_RowScanner(f, u), f, u, b, l)


@dataclass(frozen=True)
class PairRecord:
    """Measured and predicted attempt counts for one (b, l)."""

    b: int
    l: int
    measured_classical: int
    measured_improved: int
    c_exact: int
    d_exact: int
    correction: int
    c_asym: Fraction
    d_asym: Fraction

    @property
    def classical_ok(self) -> bool:
        return self.measured_classical == self.c_exact

    @property
    def improved_ok(self) -> bool:
        return self.measured_improved == self.d_exact + self.correction

    @property
    def ok(self) -> bool:
        return self.classical_ok and self.improved_ok


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
    pair by pair, and aggregate the totals."""
    if classical.algorithm != CLASSICAL:
        raise ValueError(f"first outcome must come from the classical sieve, got {classical.algorithm}")
    if improved.algorithm != IMPROVED:
        raise ValueError(f"second outcome must come from the improved sieve, got {improved.algorithm}")

    scanner = _RowScanner(f, u)
    primes = primes_up_to(y)
    rows: list[PairRecord] = []
    for b in range(1, u + 1):
        for l in primes:
            if b % l == 0:
                continue
            sets = _sets_from_hits(scanner, f, u, b, l)
            c_exact, d_exact, correction = predict_exact(sets)
            c_asym, d_asym = predict_asymptotic(sets, l)
            rows.append(
                PairRecord(
                    b=b,
                    l=l,
                    measured_classical=classical.ledger.pair_total(b, l),
                    measured_improved=improved.ledger.pair_total(b, l),
                    c_exact=c_exact,
                    d_exact=d_exact,
                    correction=correction,
                    c_asym=c_asym,
                    d_asym=d_asym,
                )
            )

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
