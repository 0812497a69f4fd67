"""Random-instance experiments over the sieve machinery.

Two questions get an empirical treatment here:

1. How often does a random monic polynomial have, for some prime
   l <= y, a multiple root mod l whose class lifts to a root mod l^2?
   Such primes force while-loop passes in the improved sieve.  Sampling
   coefficients uniformly below M = prod of l^2 over primes l <= y makes
   the reductions mod each l^2 exactly uniform and mutually independent,
   so the per-prime events multiply.  The success probability (no such
   prime at all) stays above prod (1 - 1/l^2) > 0.6.

2. On correction-free instances, how far below the classical sieve's
   attempt count does the improved sieve land?  Per prime the
   asymptotic quotient is l/(2l - 1), so aggregates settle shy of 2/3.

Trial streams are seeded per index, so any partition of the trials
across workers reproduces the same draws.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import pi, sqrt

from .arith import InvariantViolation, primes_up_to
from .engine import SieveOutcome, build_table, sieve_classical, sieve_improved, sieve_trivial
from .oracle import LedgerReport, verify_ledgers
from .poly import MonicPolynomial, SievePolynomial
from .roots import LiftTables, build_lift_tables, classify_roots, lift_multiple_test

ENUMERATION_CAP = 10**7


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


def _trial_rng(seed: int, index: int) -> random.Random:
    # string seeding hashes deterministically, independent of platform
    return random.Random(f"{seed}:{index}")


def sample_poly(model: RandomModel, index: int = 0) -> MonicPolynomial:
    """Draw the index-th polynomial of the model's stream."""
    rng = _trial_rng(model.seed, index)
    modulus = model.modulus
    coeffs = tuple(rng.randrange(modulus) for _ in range(model.degree)) + (1,)
    return MonicPolynomial(coefficients=coeffs)


def lift_event(f: MonicPolynomial, l: int) -> bool:
    """True when some multiple root of f mod l lifts to a root mod l^2."""
    rc = classify_roots(f, l)
    return any(lift_multiple_test(f, l, x) for x in sorted(rc.multiple_roots))


@dataclass
class LiftEventReport:
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
        return {
            "degree": self.degree,
            "smooth_bound": self.smooth_bound,
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "gate_threshold": self.gate_threshold,
            "passes_gate": self.passes_gate,
            "reference_product": self.reference_product,
            "zeta2_reciprocal": self.zeta2_reciprocal,
            "per_prime_failures": {str(l): n for l, n in sorted(self.per_prime_failures.items())},
        }


def reference_success_product(smooth_bound: int) -> Fraction:
    """prod over primes l <= bound of (1 - 1/l^2), exactly."""
    acc = Fraction(1)
    for l in primes_up_to(smooth_bound):
        acc *= Fraction(l * l - 1, l * l)
    return acc


def monte_carlo(model: RandomModel, trials: int) -> LiftEventReport:
    """Estimate the probability that no prime l <= y has a liftable
    multiple root, counting per-prime failures along the way."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    primes = primes_up_to(model.smooth_bound)
    failures = {l: 0 for l in primes}
    successes = 0
    for index in range(trials):
        f = sample_poly(model, index)
        clean = True
        for l in primes:
            if lift_event(f, l):
                failures[l] += 1
                clean = False
        if clean:
            successes += 1
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
    """Walk every monic degree-d polynomial mod l^2 and count lift events.

    Returns (count_bad, count_total, per_point_counts) where
    per_point_counts[i] is the number of polynomials with f(i) == 0
    mod l^2 and f'(i) == 0 mod l.  count_total = l^(2d).
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if l < 2:
        raise ValueError(f"prime must be >= 2, got {l}")
    count_total = (l * l) ** d
    if count_total > ENUMERATION_CAP:
        raise ValueError(f"enumeration space {count_total} exceeds cap {ENUMERATION_CAP}")
    if primes_up_to(l)[-1] != l:
        raise ValueError(f"l must be prime, got {l}")
    l2 = l * l
    per_point = [0] * l
    count_bad = 0
    for tail in product(range(l2), repeat=d):
        coeffs = tail + (1,)
        bad = False
        for i in range(l):
            value = 0
            deriv = 0
            for c in reversed(coeffs):  # fused Horner: value -> f(i), deriv -> f'(i)
                deriv = (deriv * i + value) % l2
                value = (value * i + c) % l2
            if value == 0 and deriv % l == 0:
                per_point[i] += 1
                bad = True
        if bad:
            count_bad += 1
    return count_bad, count_total, tuple(per_point)


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

    @property
    def tables_match(self) -> bool:
        same = self.classical.table == self.improved.table
        if self.trivial is not None:
            same = same and self.trivial.table == self.classical.table
        return same


def run_comparison(f: SievePolynomial, u: int, y: int, include_trivial: bool = True) -> ComparisonResult:
    """Run the sieves on one instance, each on its own copy of one freshly
    built table (the last one sieves the table itself), and verify the
    cost identities."""
    tables = build_lift_tables(f, u, y)
    table = build_table(f, u)
    classical = sieve_classical(f, u, y, tables, table.copy())
    improved = sieve_improved(f, u, y, tables, table.copy() if include_trivial else table)
    trivial = sieve_trivial(f, u, y, table) if include_trivial else None
    report = verify_ledgers(classical, improved, f, u, y)
    return ComparisonResult(
        f=f, u=u, y=y, trivial=trivial, classical=classical, improved=improved,
        report=report, tables=tables,
    )


@dataclass
class SweepRow:
    instance: SweepInstance
    coefficients: tuple[int, ...]
    classical_total: int
    improved_total: int
    correction_total: int

    @property
    def ratio(self) -> Fraction | None:
        if self.classical_total == 0:
            return None
        return Fraction(self.improved_total, self.classical_total)

    @property
    def correction_free(self) -> bool:
        return self.correction_total == 0


def ratio_sweep(instances: list[SweepInstance]) -> list[SweepRow]:
    """Measure both sieves on seeded random instances; the per-pair cost
    identities are rechecked on every instance and must hold."""
    return [_sweep_row(inst) for inst in instances]


def _sweep_row(inst: SweepInstance) -> SweepRow:
    # one instance per call, so its tables are freed before the next is built
    rng = random.Random(f"{inst.seed}:poly")
    f = random_sieve_polynomial(inst.degree, inst.m, rng)
    comp = run_comparison(f, inst.u, inst.y, include_trivial=False)
    if not comp.report.ok:
        raise InvariantViolation(
            f"cost identities failed on instance {inst}: mismatched pairs {comp.report.mismatches[:5]}, "
            f"phases (b, l, algorithm, phase, expected, measured) {comp.report.phase_mismatches[:5]}"
        )
    return SweepRow(
        instance=inst,
        coefficients=f.coefficients,
        classical_total=comp.report.classical_total,
        improved_total=comp.report.improved_total,
        correction_total=comp.report.correction_total,
    )
