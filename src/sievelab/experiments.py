"""Random-instance experiments over the sieve machinery.

Two questions get an empirical treatment here:

1. How often does a random monic polynomial have, for some prime
   l <= y, a multiple root mod l whose class lifts to a root mod l^2?
   Such primes force while-loop passes in the improved sieve.  Sampling
   coefficients uniformly below M = prod of l^2 over primes l <= y makes
   the reductions mod each l^2 exactly uniform and mutually independent,
   so the per-prime events multiply.  The success probability (no such
   prime at all) is at least prod (1 - 1/l^2) > 0.6, with equality only
   for degrees 2 and 3; at degree 1 it is 1, since a linear polynomial has
   no multiple root.

2. On correction-free instances, how far below the classical sieve's
   attempt count does the improved sieve land?  Per prime the
   asymptotic quotient is l/(2l - 1), so aggregates settle shy of 2/3.

Both lift-event counts run on the ladders' residue kernel,
roots.residue_scan.  Monte Carlo feeds roots.lift_events blocks of
trials, taken mod each l^2 from arith.int64_residues.  enumerate_exact
feeds residue_scan blocks of the flat index range [0, l^(2d-2)), whose
base-l^2 digits are c_1..c_{d-1}, and counts the constant coefficient
instead of walking it: its l^(2d) polynomials take l^(2d-1) cells.  A
block holds max(1, _BLOCK_CELLS // l) rows (Monte Carlo sizes it for its
largest prime), so a pass touches at most 2^14 cells, or a single row for
a prime above 2^14.

Work caps, each checked before any work starts (an input over a cap is
a ValueError):

  ENUMERATION_CAP   polynomial-residue pairs enumerate_exact counts, l^(2d)
                    polynomials times l residues; so l <= 464 < 2^9 there
  MONTE_CARLO_CAP   Horner steps of monte_carlo, trials * (d+1) * (sum of the
                    primes l <= y); already one trial of degree 1 needs
                    y < 349,927 to stay under it, so every prime is below
                    2^19 and its cube below 2^57, where the kernel is exact
  DRAW_CAP          coefficients monte_carlo draws, trials * d; it bounds the
                    degree, and with it the memory a single draw holds

Trial streams are seeded per index, so any partition of the trials
across workers reproduces the same draws.

Importing this module loads neither the engine nor the oracle:
run_comparison imports them when it runs, and reference_success_product
imports Fraction, so a montecarlo or enumerate process loads only what
its command runs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import cached_property
from math import pi, prod, sqrt
from typing import TYPE_CHECKING

import numpy as np

from .arith import int64_residues, primes_up_to
from .poly import SievePolynomial
from .roots import LiftTables, build_lift_tables, lift_events, residue_scan

if TYPE_CHECKING:
    from fractions import Fraction

    from .engine import SieveOutcome
    from .oracle import LedgerReport

ENUMERATION_CAP = 10**8  # polynomial-residue pairs enumerate_exact counts: l^(2d+1)
MONTE_CARLO_CAP = 10**10  # Horner steps of monte_carlo: trials * (d+1) * sum of primes <= y
DRAW_CAP = 10**6  # coefficient draws of monte_carlo: trials * d
# sum of the primes <= 10^6 is about 3.8e10, above MONTE_CARLO_CAP, so a
# larger prime bound is over the cap whatever the trial count and degree
_CAP_PRIME_SCAN = 10**6
_BLOCK_CELLS = 2**14  # rows * residues per kernel pass


@dataclass(frozen=True)
class RandomModel:
    """Sampling model: monic, fixed degree, coefficients uniform in [0, M)."""

    degree: int
    smooth_bound: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.smooth_bound < 2:
            raise ValueError(f"smoothness bound must be >= 2, got {self.smooth_bound}")

    @property
    def modulus(self) -> int:
        acc = 1
        for l in primes_up_to(self.smooth_bound):
            acc *= l * l
        return acc


def _draw(model: RandomModel, modulus: int, index: int) -> tuple[int, ...]:
    """Coefficients c_0..c_d of the index-th draw; modulus is model.modulus."""
    rng = random.Random(f"{model.seed}:{index}")  # string seeding hashes the same on every platform
    return tuple(rng.randrange(modulus) for _ in range(model.degree)) + (1,)


def _block_rows(l: int) -> int:
    return max(1, _BLOCK_CELLS // l)


@dataclass
class LiftEventReport:
    """Monte Carlo counts of one model.  reference_product is prod (1 - 1/l^2)
    over the primes l <= y: the exact success probability for degrees 2 and
    3, a strict lower bound for degree >= 4; at degree 1 the probability is
    1."""

    degree: int
    smooth_bound: int
    seed: int
    trials: int
    successes: int
    per_prime_failures: dict[int, int]
    reference_product: float

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.estimate
        return sqrt(p * (1.0 - p) / self.trials)

    @property
    def gate_threshold(self) -> float:
        return 0.6 - 3.0 * self.stderr

    @property
    def passes_gate(self) -> bool:
        return self.estimate >= self.gate_threshold

    @property
    def zeta2_reciprocal(self) -> float:
        """Limit 6/pi^2 of the reference product as the bound grows."""
        return 6.0 / (pi * pi)

    def to_dict(self) -> dict:
        """The fields and the derived values, with the failures keyed by str(l) for JSON."""
        derived = ("estimate", "stderr", "gate_threshold", "passes_gate", "zeta2_reciprocal")
        return {**asdict(self), **{name: getattr(self, name) for name in derived},
                "per_prime_failures": {str(l): n for l, n in self.per_prime_failures.items()}}


def reference_success_product(smooth_bound: int) -> Fraction:
    """prod over primes l <= bound of (1 - 1/l^2), exactly, as one quotient."""
    from fractions import Fraction

    squares = [l * l for l in primes_up_to(smooth_bound)]
    return Fraction(prod(s - 1 for s in squares), prod(squares))


def monte_carlo(model: RandomModel, trials: int) -> LiftEventReport:
    """Estimate the probability that no prime l <= y has a liftable
    multiple root, counting per-prime failures along the way."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials * model.degree > DRAW_CAP:
        raise ValueError(
            f"{trials} trials of degree {model.degree} exceed the cap of {DRAW_CAP} coefficient draws"
        )
    primes = primes_up_to(min(model.smooth_bound, _CAP_PRIME_SCAN))
    if trials * (model.degree + 1) * sum(primes) > MONTE_CARLO_CAP:
        raise ValueError(
            f"{trials} trials times degree + 1 times the sum of the primes <= {model.smooth_bound} "
            f"exceeds the cap of {MONTE_CARLO_CAP} Horner steps"
        )
    modulus = model.modulus
    failures = {l: 0 for l in primes}
    successes = 0
    step = _block_rows(primes[-1])  # sized for the largest prime; smaller ones touch fewer cells
    for start in range(0, trials, step):
        block = np.array([_draw(model, modulus, i) for i in range(start, min(start + step, trials))], dtype=object)
        clean = np.ones(block.shape[0], dtype=bool)
        for l, residues in zip(primes, int64_residues(block, [l * l for l in primes])):
            hit = lift_events(residues % (l * l), l).any(axis=1)
            failures[l] += int(np.count_nonzero(hit))
            clean &= ~hit
        successes += int(np.count_nonzero(clean))
    return LiftEventReport(
        degree=model.degree,
        smooth_bound=model.smooth_bound,
        seed=model.seed,
        trials=trials,
        successes=successes,
        per_prime_failures=failures,
        reference_product=float(reference_success_product(model.smooth_bound)),
    )


def enumerate_exact(d: int, l: int) -> tuple[int, int, tuple[int, ...]]:
    """Count the lift events of every monic degree-d polynomial mod l^2.

    Returns (count_bad, count_total, per_point_counts) where
    per_point_counts[i] is the number of polynomials with f(i) == 0
    mod l^2 and f'(i) == 0 mod l.  count_total = l^(2d).

    Only the classes of (c_1, ..., c_{d-1}) mod l^2 are walked; c_0 is
    counted.  f' does not involve c_0, and c_0 -> f(x) mod l^2 is a
    bijection of Z/l^2, so with g = f - c_0 each x where f'(x) == 0 mod l
    has a lift event for exactly one c_0, namely -g(x) mod l^2.  A class
    adds one to per_point_counts[x] per such x, and its number of distinct
    targets -g(x) to count_bad.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if l < 2:
        raise ValueError(f"prime must be >= 2, got {l}")
    # l >= 2, so l^(2d+1) > ENUMERATION_CAP once the exponent reaches its bit length
    if l ** min(2 * d + 1, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration covers l^(2d+1) = {l}^{2 * d + 1} polynomial-residue pairs, over the cap of {ENUMERATION_CAP}"
        )
    count_total = (l * l) ** d
    if primes_up_to(l)[-1] != l:
        raise ValueError(f"l must be prime, got {l}")
    l2 = l * l
    classes = l2 ** (d - 1)
    per_point = np.zeros(l, dtype=np.int64)
    count_bad = 0
    step = _block_rows(l)
    for start in range(0, classes, step):
        index = np.arange(start, min(start + step, classes), dtype=np.int64)
        coeffs = np.ones((index.size, d + 1), dtype=np.int64)
        coeffs[:, 0] = 0
        for i in range(1, d):  # c_i is base-l^2 digit i-1 of the index
            coeffs[:, i] = index % l2
            index //= l2
        value, slope = residue_scan(coeffs, l)
        flat = slope == 0
        per_point += flat.sum(axis=0)
        # mark each row's targets among the l^2 values of c_0 (at most
        # _BLOCK_CELLS * l bytes), then count the marks: its distinct targets
        row, x = np.nonzero(flat)
        marks = np.zeros((index.size, l2), dtype=bool)
        marks[row, -value[row, x] % l2] = True
        count_bad += int(np.count_nonzero(marks))
    return count_bad, count_total, tuple(int(n) for n in per_point)


def random_sieve_polynomial(degree: int, m: int, rng: random.Random) -> SievePolynomial:
    """Monic with the d lower coefficients uniform on [-m, m]."""
    coeffs = tuple(rng.randint(-m, m) for _ in range(degree)) + (1,)
    return SievePolynomial(coefficients=coeffs, m=m)


@dataclass(frozen=True)
class SweepInstance:
    degree: int
    m: int
    u: int
    y: int
    seed: int


@dataclass
class ComparisonResult:
    f: SievePolynomial
    u: int
    y: int
    trivial: SieveOutcome | None
    classical: SieveOutcome
    improved: SieveOutcome
    report: LedgerReport
    tables: LiftTables

    @cached_property
    def table_mismatch(self) -> str | None:
        """The first cell where two final tables differ, as text; None when
        all of them agree; cached, since it scans the whole table."""
        for one, other in ((self.classical, self.improved), (self.trivial, self.classical)):
            if one is not None and (cell := one.table.first_difference(other.table)) is not None:
                return f"final {one.algorithm} and {other.algorithm} tables differ at (b, a) = {cell}"
        return None

    def failures(self) -> list[str]:
        """The table mismatch, then the broken identities, a line each; empty when all checks hold."""
        lines = [] if self.table_mismatch is None else [self.table_mismatch]
        report = self.report
        if not report.ok:
            lines.append(f"identity violation: mismatches={report.mismatches[:10]} stray={report.stray_pairs[:10]}")
            lines += [f"identity violation at (b={b}, l={l}): {alg} {phase} attempts expected {want}, measured {got}"
                      for b, l, alg, phase, want, got in report.phase_mismatches[:10]]
        return lines


def run_comparison(f: SievePolynomial, u: int, y: int, include_trivial: bool = True) -> ComparisonResult:
    """Run the sieves on one instance, each on its own copy of one freshly
    built table (the last one sieves the table itself), and verify the
    cost identities."""
    from .engine import build_table, sieve_classical, sieve_improved, sieve_trivial  # loaded where they run
    from .oracle import verify_ledgers

    tables = build_lift_tables(f, u, y)
    table = build_table(f, u)
    classical = sieve_classical(f, u, y, tables, table.copy())
    improved = sieve_improved(f, u, y, tables, table.copy() if include_trivial else table)
    trivial = sieve_trivial(f, u, y, table) if include_trivial else None
    return ComparisonResult(
        f=f, u=u, y=y, trivial=trivial, classical=classical, improved=improved,
        report=verify_ledgers(classical, improved, f, u, y), tables=tables,
    )


@dataclass
class SweepRow:
    instance: SweepInstance
    coefficients: tuple[int, ...]
    classical_total: int
    improved_total: int
    correction_total: int
    failures: list[str]

    @property
    def correction_free(self) -> bool:
        return self.correction_total == 0


def ratio_sweep(instances: list[SweepInstance]) -> list[SweepRow]:
    """Measure both sieves on seeded random instances.  Every instance gets
    the checks of compare, its per-pair cost identities and the agreement of
    the two final tables, and its row carries the failures they find."""
    return [_sweep_row(inst) for inst in instances]


def _sweep_row(inst: SweepInstance) -> SweepRow:
    # one instance per call, so its tables are freed before the next is built
    rng = random.Random(f"{inst.seed}:poly")
    f = random_sieve_polynomial(inst.degree, inst.m, rng)
    comp = run_comparison(f, inst.u, inst.y, include_trivial=False)
    return SweepRow(
        instance=inst,
        coefficients=f.coefficients,
        classical_total=comp.classical.ledger.grand_total(),
        improved_total=comp.improved.ledger.grand_total(),
        correction_total=comp.report.correction_total,
        failures=comp.failures(),
    )
