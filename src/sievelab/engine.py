"""Three line sieves over the same table, instrumented to the division attempt.

The table T(b, a) covers 1 <= b <= u, |a| <= u.  On coprime pairs the
entry is (a - b*m) * F(a, b); everywhere else (and wherever that product
vanishes) the entry is stored as 0 and skipped by every loop below,
since repeatedly dividing 0 would never terminate.

The cost unit is one fused test-and-divide on a table entry:

  * a while-loop ("divide as long as l divides") pays one attempt per
    successful division plus one attempt for the final failed test;
  * an unconditional division pays exactly one attempt.

The three strategies differ only in how they find entries to divide:

  * trivial  - every prime against every nonzero entry;
  * classical - per (b, l) with l not dividing b, walk the arithmetic
    progression a = b*(m mod l) (mod l) and the progressions over the
    roots of f mod l, with a while-loop at each stop;
  * improved - walk progressions modulo l^e for every ladder level e,
    replacing while-loops by single unconditional divisions; only the
    multiple roots whose class lifts mod l^2 keep a while-loop pass.

Unconditional divisions in the improved sieve must always succeed; a
failure raises InvariantViolation and means the ladders are wrong.
"""

from dataclasses import dataclass, field

import numpy as np

from .arith import InvariantViolation, primes_up_to
from .poly import SievePolynomial, eval_norm
from .roots import LiftTables, PrimeLadder, build_lift_tables

TRIVIAL = "trivial"
CLASSICAL = "classical"
IMPROVED = "improved"


@dataclass
class SieveTable:
    """Dense grid of entries; entries[b-1][a+u] holds T(b, a)."""

    u: int
    entries: list[list[int]]


@dataclass
class CostLedger:
    """Division attempts keyed by (b, l), split into named phases.

    Phases: "total" for the trivial sieve; "rational", "algebraic_simple"
    and "algebraic_multiple" for the other two.  Only nonzero counters
    are stored.
    """

    algorithm: str
    counts: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)

    def add(self, b: int, l: int, phase: str, n: int = 1) -> None:
        if n:
            pair = self.counts.setdefault((b, l), {})
            pair[phase] = pair.get(phase, 0) + n

    def pair_phase(self, b: int, l: int, phase: str) -> int:
        return self.counts.get((b, l), {}).get(phase, 0)

    def pair_total(self, b: int, l: int) -> int:
        return sum(self.counts.get((b, l), {}).values())

    def phase_total(self, phase: str) -> int:
        return sum(c.get(phase, 0) for c in self.counts.values())

    def grand_total(self) -> int:
        return sum(sum(c.values()) for c in self.counts.values())


@dataclass
class SieveOutcome:
    algorithm: str
    table: SieveTable
    ledger: CostLedger


def build_table(f: SievePolynomial, u: int) -> SieveTable:
    """Fresh table of (a - b*m) * F(a, b) on coprime pairs, 0 elsewhere."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    a64 = np.arange(-u, u + 1, dtype=np.int64)
    a = a64.astype(object)  # exact Python integers, whatever the bounds
    entries: list[list[int]] = []
    for b in range(1, u + 1):
        row = (a - b * f.m) * eval_norm(f, a, b)
        row[np.gcd(a64, b) != 1] = 0
        entries.append(row.tolist())
    return SieveTable(u=u, entries=entries)


def _exhaust(row: list[int], i: int, l: int) -> int:
    """While-loop on one nonzero entry; returns attempts paid (>= 1)."""
    val = row[i]
    n = 0
    while True:
        n += 1
        q, r = divmod(val, l)
        if r:
            break
        val = q
    row[i] = val
    return n


def _index_range(residue: int, u: int, step: int) -> range:
    """Row indices i with i - u congruent to residue modulo step."""
    return range((residue + u) % step, 2 * u + 1, step)


def _trivial_row(row: list[int], primes: tuple[int, ...]) -> dict[int, int]:
    nonzero = [i for i, v in enumerate(row) if v]
    out = {}
    for l in primes:
        attempts = 0
        for i in nonzero:
            val = row[i]
            while True:  # fused test-and-divide, one attempt per test
                attempts += 1
                q, r = divmod(val, l)
                if r:
                    break
                val = q
            row[i] = val
        if attempts:
            out[l] = attempts
    return out


def sieve_trivial(f: SievePolynomial, u: int, y: int) -> SieveOutcome:
    """Every prime l <= y against every nonzero entry, while-loops throughout."""
    primes = primes_up_to(y)
    table = build_table(f, u)
    ledger = CostLedger(TRIVIAL)
    for b in range(1, u + 1):
        for l, attempts in _trivial_row(table.entries[b - 1], primes).items():
            ledger.counts[(b, l)] = {"total": attempts}
    return SieveOutcome(TRIVIAL, table, ledger)


def _classical_row(row: list[int], b: int, u: int, m: int, ladders: dict[int, PrimeLadder]) -> dict[int, dict[str, int]]:
    out: dict[int, dict[str, int]] = {}
    for l, ladder in ladders.items():
        if b % l == 0:
            continue
        rational = 0
        for i in _index_range(b * (m % l) % l, u, l):
            if row[i]:
                rational += _exhaust(row, i, l)
        simple = 0
        # a ladder with no simple levels stored means l exceeds the norm
        # bound, so no nonzero entry in those progressions is divisible
        # anyway and walking them would pay nothing
        for x in ladder.simple_levels[0] if ladder.simple_levels else ():
            for i in _index_range(b * x % l, u, l):
                if row[i]:
                    simple += _exhaust(row, i, l)
        multiple = 0
        for x in ladder.multiple_roots:
            for i in _index_range(b * x % l, u, l):
                if row[i]:
                    multiple += _exhaust(row, i, l)
        phases = {}
        if rational:
            phases["rational"] = rational
        if simple:
            phases["algebraic_simple"] = simple
        if multiple:
            phases["algebraic_multiple"] = multiple
        if phases:
            out[l] = phases
    return out


def sieve_classical(f: SievePolynomial, u: int, y: int, tables: LiftTables | None = None) -> SieveOutcome:
    """Per (b, l) progressions at level 1 only, while-loop at every stop."""
    tables = _tables_for(f, u, y, tables)
    table = build_table(f, u)
    ledger = CostLedger(CLASSICAL)
    for b in range(1, u + 1):
        for l, phases in _classical_row(table.entries[b - 1], b, u, f.m, tables.ladders).items():
            ledger.counts[(b, l)] = phases
    return SieveOutcome(CLASSICAL, table, ledger)


def _improved_row(row: list[int], b: int, u: int, ladders: dict[int, PrimeLadder]) -> dict[int, dict[str, int]]:
    out: dict[int, dict[str, int]] = {}
    for l, ladder in ladders.items():
        if b % l == 0:
            continue

        rational = 0
        power = 1
        for target in ladder.rational_targets:
            power *= l
            for i in _index_range(b * target % power, u, power):
                val = row[i]
                if val == 0:
                    continue
                q, r = divmod(val, l)
                if r:
                    raise InvariantViolation(
                        f"rational division missed at b={b}, a={i - u}, l={l}, level modulus {power}"
                    )
                row[i] = q
                rational += 1

        simple = 0
        power = 1
        for level in ladder.simple_levels:
            power *= l
            for x in level:
                for i in _index_range(b * x % power, u, power):
                    val = row[i]
                    if val == 0:
                        continue
                    q, r = divmod(val, l)
                    if r:
                        raise InvariantViolation(
                            f"simple-root division missed at b={b}, a={i - u}, l={l}, level modulus {power}"
                        )
                    row[i] = q
                    simple += 1

        multiple = 0
        for x in ladder.multiple_roots:
            for i in _index_range(b * x % l, u, l):
                val = row[i]
                if val == 0:
                    continue
                q, r = divmod(val, l)
                if r:
                    raise InvariantViolation(
                        f"multiple-root division missed at b={b}, a={i - u}, l={l}"
                    )
                row[i] = q
                multiple += 1
        for x in ladder.liftable_multiple:
            for i in _index_range(b * x % l, u, l):
                if row[i]:
                    multiple += _exhaust(row, i, l)

        phases = {}
        if rational:
            phases["rational"] = rational
        if simple:
            phases["algebraic_simple"] = simple
        if multiple:
            phases["algebraic_multiple"] = multiple
        if phases:
            out[l] = phases
    return out


def sieve_improved(f: SievePolynomial, u: int, y: int, tables: LiftTables | None = None) -> SieveOutcome:
    """Ladder-driven sieve: unconditional divisions at every level, plus one
    while-loop pass over the liftable multiple-root progressions."""
    tables = _tables_for(f, u, y, tables)
    table = build_table(f, u)
    ledger = CostLedger(IMPROVED)
    for b in range(1, u + 1):
        for l, phases in _improved_row(table.entries[b - 1], b, u, tables.ladders).items():
            ledger.counts[(b, l)] = phases
    return SieveOutcome(IMPROVED, table, ledger)


def _tables_for(f: SievePolynomial, u: int, y: int, tables: LiftTables | None) -> LiftTables:
    if tables is None:
        return build_lift_tables(f, u, y)
    if tables.u != u or tables.y != y:
        raise ValueError(f"lift tables built for (u={tables.u}, y={tables.y}), run wants (u={u}, y={y})")
    return tables
