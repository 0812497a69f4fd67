"""Roots of f modulo prime powers and the ladders the improved sieve walks.

A root x of f mod l is *simple* when f'(x) != 0 mod l, *multiple*
otherwise.  A simple root lifts to exactly one root mod l^e for every e,
by the Newton step x <- x - f(x) * f'(x)^(-1) applied one level at a
time.  Whether a multiple root admits any lift to mod l^2 depends only
on its residue class mod l: f is constant mod l^2 on that class, so a
single evaluation decides for the whole class.
"""

from dataclasses import dataclass, field

from .arith import max_exponent, mod_inverse, primes_up_to
from .poly import MonicPolynomial, SievePolynomial, algebraic_bound, eval_derivative, eval_poly, rational_bound


@dataclass(frozen=True)
class RootClassification:
    prime: int
    simple_roots: frozenset[int]
    multiple_roots: frozenset[int]


@dataclass
class PrecomputeStats:
    """Work done while building ladders, kept apart from sieve attempt counts."""

    root_scan_evaluations: int = 0
    newton_lift_steps: int = 0
    multiple_lift_tests: int = 0


@dataclass(frozen=True)
class PrimeLadder:
    """Everything the sieves need for one prime l.

    rational_targets[e-1] = m mod l^e            for e = 1..len(rational_targets)
    simple_levels[e-1]    = roots of f mod l^e whose class mod l is simple,
                            each the unique lift of the level-1 root below it
    multiple_roots        = multiple roots of f mod l (residues mod l)
    liftable_multiple     = the subset whose class also satisfies f == 0 mod l^2
    """

    prime: int
    rational_targets: tuple[int, ...]
    simple_levels: tuple[tuple[int, ...], ...]
    multiple_roots: tuple[int, ...]
    liftable_multiple: tuple[int, ...]


@dataclass(frozen=True)
class LiftTables:
    u: int
    y: int
    ladders: dict[int, PrimeLadder] = field(compare=False)
    stats: PrecomputeStats = field(compare=False)


def classify_roots(f: MonicPolynomial, l: int, stats: PrecomputeStats | None = None) -> RootClassification:
    """Scan all residues mod l and split the roots by derivative vanishing."""
    if l < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {l}")
    simple = set()
    multiple = set()
    for x in range(l):
        if eval_poly(f, x, l) == 0:
            if eval_derivative(f, x, l) == 0:
                multiple.add(x)
            else:
                simple.add(x)
    if stats is not None:
        # one f scan always; f' only evaluated on the roots found
        stats.root_scan_evaluations += l + len(simple) + len(multiple)
    return RootClassification(prime=l, simple_roots=frozenset(simple), multiple_roots=frozenset(multiple))


def lift_multiple_test(f: MonicPolynomial, l: int, root: int, stats: PrecomputeStats | None = None) -> bool:
    """Does the class of a multiple root mod l contain a root of f mod l^2?

    Constant on the class, so testing the given representative suffices.
    """
    x = root % l
    if eval_poly(f, x, l) != 0 or eval_derivative(f, x, l) != 0:
        raise ValueError(f"{root} is not a multiple root of f modulo {l}")
    if stats is not None:
        stats.multiple_lift_tests += 1
    return eval_poly(f, x, l * l) == 0


def build_lift_tables(f: SievePolynomial, u: int, y: int) -> LiftTables:
    """Precompute, for every prime l <= y, the rational targets m mod l^e,
    the Hensel ladders over the simple roots, and the multiple-root sets.

    Ladder depths follow the table bounds: rational levels stop once
    l^e exceeds u*(m+1), simple levels once l^e exceeds m*(d+1)*u^d.
    Deeper levels can never divide a nonzero entry, so they are not built.
    """
    stats = PrecomputeStats()
    ladders: dict[int, PrimeLadder] = {}
    rat_cap_bound = rational_bound(f, u)
    alg_cap_bound = algebraic_bound(f, u)
    for l in primes_up_to(y):
        classification = classify_roots(f, l, stats)
        cap_rational = max_exponent(l, rat_cap_bound)
        cap_algebraic = max_exponent(l, alg_cap_bound)

        targets = []
        modulus = 1
        for _ in range(cap_rational):
            modulus *= l
            targets.append(f.m % modulus)

        simple_levels: list[tuple[int, ...]] = []
        if cap_algebraic >= 1:
            level = sorted(classification.simple_roots)
            simple_levels.append(tuple(level))
            steps = {x: mod_inverse(eval_derivative(f, x, l), l) for x in level}
            modulus = l
            current = {x: x for x in level}
            for _ in range(cap_algebraic - 1):
                modulus *= l
                for base, value in current.items():
                    current[base] = (value - eval_poly(f, value, modulus) * steps[base]) % modulus
                    stats.newton_lift_steps += 1
                simple_levels.append(tuple(sorted(current.values())))

        multiple = tuple(sorted(classification.multiple_roots))
        liftable = tuple(x for x in multiple if lift_multiple_test(f, l, x, stats))

        ladders[l] = PrimeLadder(
            prime=l,
            rational_targets=tuple(targets),
            simple_levels=tuple(simple_levels),
            multiple_roots=multiple,
            liftable_multiple=liftable,
        )
    return LiftTables(u=u, y=y, ladders=ladders, stats=stats)
