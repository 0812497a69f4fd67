"""Roots of f modulo prime powers and the ladders the improved sieve walks.

A root x of f mod l is *simple* when f'(x) != 0 mod l, *multiple*
otherwise.  A simple root lifts to exactly one root mod l^e for every e,
by the Newton step x <- x - f(x) * f'(x)^(-1) applied one level at a
time, and so does the root m of x - m, whose slope is 1: one lifter
builds the simple and the rational ladders.  Whether a multiple root lifts
to a root mod l^2 depends only on its residue class mod l: f is constant
mod l^2 on that class, so a single evaluation decides for the whole class.

One numpy kernel, residue_scan, answers both questions for the ladders,
the oracle's root test (through classify_roots), Monte Carlo (through
lift_events) and exact enumeration: a fused Horner pass over a block of
polynomials, with coefficients mod l^2, gives f(x) mod l^2 and f'(x) mod l
at every x mod l.  It is exact in int64 while l^3 < 2^62, so residue_scan,
classify_roots and build_lift_tables raise ValueError for l >= 1,664,511;
the command line's prime bounds and work caps keep every prime below 2^19.

The names of the three sieves and of the three phases their ledgers
split into, one per entry of PrimeLadder.levels, are defined here, in a
module every command loads, so that the command line can name them
without loading the engine; engine re-exports them.  That one structure
holds every residue either sieve walks, phase by phase and level by
level, and no phase stores a level without residues.
"""

from dataclasses import dataclass, field

import numpy as np

from .arith import INT64_BOUND, max_exponent, primes_up_to
from .poly import MonicPolynomial, SievePolynomial, algebraic_bound, rational_bound

TRIVIAL = "trivial"
CLASSICAL = "classical"
IMPROVED = "improved"
PHASES = ("rational", "algebraic_simple", "algebraic_multiple")


@dataclass(frozen=True)
class RootClassification:
    """The roots of f mod l by class; slopes[x] = f'(x) mod l at each
    simple root x, whose inverse mod l is the divisor of its Newton steps."""

    simple_roots: frozenset[int]
    multiple_roots: frozenset[int]
    liftable_multiple: frozenset[int]  # the multiple roots whose class holds a root mod l^2
    slopes: dict[int, int] = field(hash=False)  # compared, but a dict has no hash


@dataclass
class PrecomputeStats:
    """Work done while building ladders, kept apart from sieve attempt counts."""

    root_scan_evaluations: int = 0
    newton_lift_steps: int = 0
    multiple_lift_tests: int = 0


@dataclass(frozen=True)
class PrimeLadder:
    """Everything the sieves need for one prime l.

    levels[p] holds the non-empty levels of phase PHASES[p]; level e is a
    tuple of residues x whose progression is the cells a == b*x (mod l^e):
      rational           (m mod l^e,), e up to the rational depth
      algebraic_simple   the lifts mod l^e of the simple roots mod l, e up
                         to the algebraic depth; none without a simple root
      algebraic_multiple one level, the multiple roots mod l, or none
    liftable_multiple = the multiple roots whose class has a root mod l^2
    """

    levels: tuple[tuple[tuple[int, ...], ...], ...]
    liftable_multiple: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LiftTables:
    u: int
    y: int
    ladders: dict[int, PrimeLadder]
    stats: PrecomputeStats


def _require_int64_prime(l: int) -> None:
    if l**3 >= INT64_BOUND:
        raise ValueError(f"prime {l} too large for int64 residue scans (l^3 >= 2^62)")


def residue_scan(coeffs, l: int) -> tuple[np.ndarray, np.ndarray]:
    """f(x) mod l^2 and f'(x) mod l for a block of polynomials at every x mod l.

    coeffs is an (n, d+1) array of int64 values in [0, l^2), row k holding
    c_0..c_d of one polynomial; the results are two int64 (n, l) arrays.
    Each Horner step multiplies the bound on the accumulators by l, and they
    are reduced mod l^2 only when it would reach 2^62 (for primes below 100
    and degree 3, never); a reduced step stays below l^3.
    """
    _require_int64_prime(l)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    l2 = l * l
    x = np.arange(l, dtype=np.int64)
    value = np.repeat(coeffs[:, -1:], l, axis=1)  # Horner's first step: f = c_d, f' = 0
    slope = np.zeros_like(value)
    bound = l2 - 1  # bounds both accumulators, which stay >= 0
    for c in coeffs.T[-2::-1]:  # fused Horner: value -> f(x), slope -> f'(x)
        if bound * l >= INT64_BOUND:
            value %= l2
            slope %= l2
            bound = l2 - 1
        # slope*x + value and value*x + c are both at most bound*(l-1) + bound
        bound *= l
        slope *= x
        slope += value
        value *= x
        value += c[:, None]
    value %= l2
    slope %= l
    return value, slope


def lift_events(coeffs, l: int) -> np.ndarray:
    """residue_scan's (n, l) mask of f(x) == 0 mod l^2 and f'(x) == 0 mod l:
    x is a multiple root mod l whose class holds a root mod l^2."""
    value, slope = residue_scan(coeffs, l)
    return (value == 0) & (slope == 0)


def classify_roots(f: MonicPolynomial, l: int) -> RootClassification:
    """Split the roots of f mod l by derivative vanishing, and the multiple
    ones by whether their class lifts, from one residue_scan row (the
    coefficients are reduced mod l^2 first: they have no int64 bound)."""
    if l < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {l}")
    values, slopes = (row[0] for row in residue_scan([[c % (l * l) for c in f.coefficients]], l))
    found = np.flatnonzero(values % l == 0)
    roots = list(zip(found.tolist(), values[found].tolist(), slopes[found].tolist()))
    simple = {x: slope for x, _, slope in roots if slope}  # f'(x) mod l at each simple root
    multiple = {x: value for x, value, slope in roots if not slope}  # f(x) mod l^2 at each multiple root
    return RootClassification(
        simple_roots=frozenset(simple),
        multiple_roots=frozenset(multiple),
        liftable_multiple=frozenset(x for x, value in multiple.items() if value == 0),
        slopes=simple,
    )


def _lift(coefficients: tuple[int, ...], slopes: dict[int, int], l: int, depth: int) -> tuple[tuple[int, ...], ...]:
    """Levels 1..depth of the lifts mod l^e of the simple roots x of f mod l,
    slopes = {x: f'(x) mod l}: one Newton step per root and level, f(x) by
    Horner reduced mod l^e.  No root, or a depth of 0, gives no level."""
    lifts = [(x, pow(slope, -1, l)) for x, slope in slopes.items()]  # a simple root's slope is nonzero mod l
    levels = []
    for e in range(1, depth + 1 if lifts else 1):
        modulus = l**e
        for i, (x, inverse) in enumerate(lifts):
            value = 0
            for c in reversed(coefficients):
                value = (value * x + c) % modulus
            lifts[i] = ((x - value * inverse) % modulus, inverse)
        levels.append(tuple(sorted(x for x, _ in lifts)))
    return tuple(levels)


def build_lift_tables(f: SievePolynomial, u: int, y: int) -> LiftTables:
    """Precompute, for every prime l <= y, the levels of each phase: the
    rational targets m mod l^e, the Hensel ladders over the simple roots,
    and the multiple roots.

    Ladder depths follow the table bounds: rational levels stop once
    l^e exceeds u*(m+1), simple levels once l^e exceeds m*(d+1)*u^d.
    Deeper levels can never divide a nonzero entry, so they are not built.
    """
    stats = PrecomputeStats()
    ladders: dict[int, PrimeLadder] = {}
    rat_cap_bound = rational_bound(f, u)
    alg_cap_bound = algebraic_bound(f, u)
    primes = primes_up_to(y)
    _require_int64_prime(max(primes, default=2))  # before any prime is scanned
    for l in primes:
        classification = classify_roots(f, l)
        # the precompute cost model: f at every residue, f' at each root, one lift test per multiple root
        stats.root_scan_evaluations += l + len(classification.simple_roots) + len(classification.multiple_roots)
        stats.multiple_lift_tests += len(classification.multiple_roots)
        rational = _lift((-f.m, 1), {f.m % l: 1}, l, max_exponent(l, rat_cap_bound))  # x - m has slope 1
        simple = _lift(f.coefficients, classification.slopes, l, max_exponent(l, alg_cap_bound))
        stats.newton_lift_steps += sum(map(len, simple[1:]))  # level 1 holds the roots themselves
        multiple = tuple(sorted(classification.multiple_roots))
        ladders[l] = PrimeLadder(
            levels=(rational, simple, (multiple,) if multiple else ()),
            liftable_multiple=tuple(sorted(classification.liftable_multiple)),
        )
    return LiftTables(u=u, y=y, ladders=ladders, stats=stats)
