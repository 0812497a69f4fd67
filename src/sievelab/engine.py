"""Three line sieves over the same table, instrumented to the division attempt.

The table covers 1 <= b <= u, |a| <= u and keeps the two factors of each
cell apart, as two-sided sievers do: rational factors a - b*m and
algebraic factors F(a, b), each a (k, u, 2u+1) int64 array of the k =
limb_count >= 1 limbs its own proven bound needs (arith), one limb below
2^62; build_table takes both from poly.table_factors.  Every pass sees a
side as its (k, cells) view, gathers cells with take along the cell axis
and scatters them one limb at a time.  Every division by a prime goes
through arith.fused_divide: one floor division of each limb above the
lowest, whose word r*2^32 + limb stays below l*2^32 <= 2^44, and one
wrapping multiply on the last word, at k = 1 the cell's value itself.
The one exception is the trivial sieve, which tests the int64 residues
that arith.int64_residues gives of each side with arith.fused_test and
while-loops only at the hits they prove.
A cell is dead when gcd(a, b) > 1 or either factor vanishes; dead cells
hold 0 on both sides and every pass below skips them, since repeatedly
dividing 0 would never terminate.  The classical and improved sieves
take one boolean mask per call, before any pass, of the cells nonzero on
both sides, and gather side values only at the cells it selects;
division never makes a cell zero, so the mask holds for the whole call.
The residual entry of a cell is the product of its two sides.

The cost unit is one fused test-and-divide on one side of a cell:

  * a while-loop ("divide as long as l divides") pays one attempt per
    successful division plus one attempt for the final failed test;
  * an unconditional division pays exactly one attempt.

The three strategies differ only in how they find cells to divide:

  * trivial  - every prime against every live cell; a cell pays
    v_l(rational) + v_l(algebraic) + 1, as one while-loop on the product;
  * classical - for l not dividing b, the progression a = b*(m mod l)
    (mod l) on the rational side and the progressions over the roots of
    f mod l on the algebraic side, with a while-loop at each stop;
  * improved - progressions modulo l^e for every ladder level e, with
    single unconditional divisions; only the multiple roots whose class
    lifts mod l^2 keep a while-loop pass.

The other two sieves run prime by prime and take every residue they walk
from one structure, the ladder's levels, phase by phase: the classical
sieve level 1 of each phase, the improved sieve every level.  A phase
stores no level where no live cell could be divisible (past its proven
depth, or without a root), so no pass is spent there.  Each makes one
numpy pass per (phase, level) over every row and every residue of the
level at once, whose progressions are disjoint for l not dividing b;
per-(b, l) attempts come from counting the touched cells per row.  The
improved sieve walks a phase's levels only down to the first whose
progression holds no live cell: every level-(e+1) residue reduces mod
l^e to a level-e residue (m mod l^e, and the unique Hensel lift of a
simple root), so the deeper progressions lie inside that one and would
add no attempt.  The ledger is that count array itself: attempts[k, p,
b-1], int64 of shape (primes, phases, u), for prime k and phase p;
nothing is kept per pair.  A sieve given a prebuilt table divides that
table in place; without one it builds its own.
Unconditional divisions in the improved sieve must always succeed; a
failure raises InvariantViolation and means the ladders are wrong.  Every
division made is checked, but the levels below the first without live
cells are not visited, so a corrupt residue there divides nothing and
goes unseen.

TRIVIAL, CLASSICAL, IMPROVED and PHASES are defined in roots, so that
the command line reads them without loading this module; they are
re-exported here.
"""

from dataclasses import dataclass

import numpy as np

from .arith import InvariantViolation, fused_divide, fused_test, int64_residues, limb_values, primes_up_to
from .poly import SievePolynomial, exact_dtype, table_factors
from .roots import CLASSICAL, IMPROVED, PHASES, TRIVIAL, LiftTables, build_lift_tables

_TRIVIAL_BLOCK = 1 << 16  # live cells per gather; bounds the residue buffers a gathered copy of limbs needs


@dataclass(eq=False)
class SieveTable:
    """rational[:, b-1, a+u] holds the limbs of a - b*m and
    algebraic[:, b-1, a+u] those of F(a, b) on live cells, 0 on both sides
    of dead ones; sieving divides them down.  A side is a (k, u, 2u+1)
    int64 array of limbs (arith), k = 1 when its proven bound is below
    2^62."""

    u: int
    rational: np.ndarray
    algebraic: np.ndarray

    @property
    def entries(self) -> list[list[int]]:
        """Residual products as Python ints; entries[b-1][a+u] holds T(b, a).
        Only the benchmark's layer tracer reads this; the program and the
        tests read the two sides."""
        return (limb_values(self.rational) * limb_values(self.algebraic)).tolist()

    def copy(self) -> "SieveTable":
        return SieveTable(self.u, self.rational.copy(), self.algebraic.copy())

    def first_difference(self, other: "SieveTable") -> tuple[int, int] | None:
        """(b, a) of the first cell, in row-major order, where either side
        differs from the same side of another table of this u; None if none."""
        differ = np.flatnonzero(_flat(self.rational != other.rational).any(axis=0)
                                | _flat(self.algebraic != other.algebraic).any(axis=0))
        if not differ.size:
            return None
        b, i = divmod(int(differ[0]), 2 * self.u + 1)
        return b + 1, i - self.u


@dataclass(eq=False)
class CostLedger:
    """Division attempts per (prime, phase, row).

    attempts[k, p, b-1] counts the attempts of phase phases[p] at
    (b, primes[k]).  Phases: ("total",) for the trivial sieve; PHASES,
    that is "rational", "algebraic_simple" and "algebraic_multiple", for
    the other two.  A (b, l) or phase outside the array has no attempts.
    """

    primes: tuple[int, ...]
    phases: tuple[str, ...]
    attempts: np.ndarray

    def __post_init__(self) -> None:
        self._prime_index = {l: k for k, l in enumerate(self.primes)}

    def pair_phase(self, b: int, l: int, phase: str) -> int:
        """Attempts of one phase at (b, l), for the benchmark's layer tracer;
        the program and the tests read attempts."""
        k = self._prime_index.get(l)
        if phase not in self.phases or k is None or not 1 <= b <= self.attempts.shape[2]:
            return 0
        return int(self.attempts[k, self.phases.index(phase), b - 1])

    def phase_total(self, phase: str) -> int:
        if phase not in self.phases:
            return 0
        return int(self.attempts[:, self.phases.index(phase)].sum())

    def grand_total(self) -> int:
        return int(self.attempts.sum())


@dataclass
class SieveOutcome:
    algorithm: str
    table: SieveTable
    ledger: CostLedger


def build_table(f: SievePolynomial, u: int) -> SieveTable:
    """Fresh two-sided table: a - b*m and F(a, b) on live cells, 0 elsewhere."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    rational, algebraic, live = table_factors(f, u, np.arange(1, u + 1, dtype=np.int64)[:, None])
    rational *= live
    algebraic *= live
    return SieveTable(u=u, rational=rational, algebraic=algebraic)


def _flat(side: np.ndarray) -> np.ndarray:
    """The (k, cells) view of a table side, or of a mask of its shape."""
    return side.reshape(len(side), -1)


def _scatter(side: np.ndarray, cells: np.ndarray, values: np.ndarray) -> None:
    """Write (k, cells) values back to a flat side one limb at a time with
    plain fancy indexing, which is faster than side[:, cells] = values, as
    the side.take(cells, axis=1) every pass gathers with is faster than
    side[:, cells]."""
    for limb, value in zip(side, values):
        limb[cells] = value


def _cells(rows: np.ndarray, residues: tuple[int, ...], modulus: int, u: int) -> np.ndarray:
    """Flat indices of the cells (b, a) with b in rows and a = b*x (mod
    modulus) for some x in residues: residue by residue, each row by row in
    ascending a.  For residues distinct modulo a power of l and rows l does
    not divide, no cell appears twice."""
    width = 2 * u + 1
    dtype = exact_dtype((u + 1) * modulus)  # b*x can pass 2^63 on the deep levels
    start = ((rows.astype(dtype) * np.array(residues, dtype=dtype)[:, None] + u) % modulus).ravel()
    first = np.tile((rows - 1) * width, len(residues))
    if modulus < width:
        counts = (width - 1 - start) // modulus + 1
        steps = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(first + start, counts) + modulus * steps
    hit = start < width  # at most one cell per row and residue
    return first[hit] + start[hit].astype(np.int64)


def _live_mask(table: SieveTable) -> np.ndarray:
    """Flat mask of the cells nonzero on both sides, the only ones a pass may
    divide: a zero on either side would never leave _divide_out's loop."""
    return _flat(table.rational).any(axis=0) & _flat(table.algebraic).any(axis=0)


def _live_cells(live: np.ndarray, rows: np.ndarray, residues: tuple[int, ...], modulus: int, u: int) -> np.ndarray:
    """The cells of _cells that the live mask selects, in the same order."""
    cells = _cells(rows, residues, modulus, u)
    return cells[live[cells]]


def _per_row(cells: np.ndarray, u: int) -> np.ndarray:
    return np.bincount(cells // (2 * u + 1), minlength=u)


def _divide_out(side: np.ndarray, cells: np.ndarray, l: int, u: int) -> np.ndarray:
    """Divide each of `cells`, all live, by l as long as l divides; returns
    the successful divisions per row."""
    done = np.zeros(u, dtype=np.int64)
    values = side.take(cells, axis=1)
    while True:
        keep, values = fused_divide(values, l)
        cells = cells[keep]
        if not cells.size:
            return done
        _scatter(side, cells, values)
        done += _per_row(cells, u)


def _while_loop(side: np.ndarray, cells: np.ndarray, l: int, u: int) -> np.ndarray:
    """A while-loop at each of `cells`, all live; returns the attempts per
    row, one per successful division plus the final failed test."""
    return _per_row(cells, u) + _divide_out(side, cells, l, u)


def _divide_once(side: np.ndarray, cells: np.ndarray, l: int, u: int, phase: str, modulus: int) -> np.ndarray:
    """One unconditional division at each of `cells`, all live, which must
    succeed.  Returns the divisions per row."""
    divisible, quotients = fused_divide(side.take(cells, axis=1), l)
    if quotients.shape[-1] < cells.size:
        b, i = divmod(int(cells[np.argmin(divisible)]), 2 * u + 1)
        raise InvariantViolation(
            f"{phase} division missed at b={b + 1}, a={i - u}, l={l}, level modulus {modulus}"
        )
    _scatter(side, cells, quotients)
    return _per_row(cells, u)


def _rows_without(l: int, u: int) -> np.ndarray:
    """The b in [1, u] that l does not divide: the rows progressions walk."""
    rows = np.arange(1, u + 1, dtype=np.int64)
    return rows[rows % l != 0]


def sieve_trivial(f: SievePolynomial, u: int, y: int, table: SieveTable | None = None) -> SieveOutcome:
    """Every prime l <= y against every live cell, while-loops throughout;
    each side of a block of live cells meets the primes as int64 residues."""
    primes = primes_up_to(y)
    table = _table_for(f, u, table)
    live = np.flatnonzero(_flat(table.rational).any(axis=0))
    counts = np.zeros((len(primes), 1, u), dtype=np.int64)
    counts[:, 0] = _per_row(live, u)
    for block in np.split(live, range(_TRIVIAL_BLOCK, live.size, _TRIVIAL_BLOCK)):
        for side in (_flat(table.rational), _flat(table.algebraic)):
            residues = int64_residues(side.take(block, axis=1), primes)
            for k, (l, residue) in enumerate(zip(primes, residues)):
                # the residues proved that l divides every hit, so its first division succeeds
                counts[k, 0] += _divide_out(side, block[fused_test(residue, l)], l, u)
    return SieveOutcome(TRIVIAL, table, CostLedger(tuple(primes), ("total",), counts))


def sieve_classical(
    f: SievePolynomial, u: int, y: int, tables: LiftTables | None = None, table: SieveTable | None = None
) -> SieveOutcome:
    """Per (b, l) progressions at level 1 only, while-loop at every stop."""
    tables = _tables_for(f, u, y, tables)
    table = _table_for(f, u, table)
    rational, algebraic = _flat(table.rational), _flat(table.algebraic)
    live = _live_mask(table)
    counts = np.zeros((len(tables.ladders), len(PHASES), u), dtype=np.int64)
    for k, (l, ladder) in enumerate(tables.ladders.items()):
        rows = _rows_without(l, u)
        for phase, (side, levels) in enumerate(zip((rational, algebraic, algebraic), ladder.levels)):
            if levels:
                counts[k, phase] += _while_loop(side, _live_cells(live, rows, levels[0], l, u), l, u)
    return SieveOutcome(CLASSICAL, table, CostLedger(tuple(tables.ladders), PHASES, counts))


def sieve_improved(
    f: SievePolynomial, u: int, y: int, tables: LiftTables | None = None, table: SieveTable | None = None
) -> SieveOutcome:
    """Ladder-driven sieve: unconditional divisions at every level, plus one
    while-loop pass over the liftable multiple-root progressions."""
    tables = _tables_for(f, u, y, tables)
    table = _table_for(f, u, table)
    rational, algebraic = _flat(table.rational), _flat(table.algebraic)
    live = _live_mask(table)
    counts = np.zeros((len(tables.ladders), len(PHASES), u), dtype=np.int64)
    for k, (l, ladder) in enumerate(tables.ladders.items()):
        rows = _rows_without(l, u)
        for phase, (side, levels) in enumerate(zip((rational, algebraic, algebraic), ladder.levels)):
            modulus = 1
            for level in levels:
                modulus *= l
                cells = _live_cells(live, rows, level, modulus, u)
                if not cells.size:
                    break  # the deeper levels' progressions lie inside this one
                counts[k, phase] += _divide_once(side, cells, l, u, PHASES[phase], modulus)
        if ladder.liftable_multiple:
            counts[k, 2] += _while_loop(algebraic, _live_cells(live, rows, ladder.liftable_multiple, l, u), l, u)
    return SieveOutcome(IMPROVED, table, CostLedger(tuple(tables.ladders), PHASES, counts))


def _tables_for(f: SievePolynomial, u: int, y: int, tables: LiftTables | None) -> LiftTables:
    if tables is None:
        return build_lift_tables(f, u, y)
    if tables.u != u or tables.y != y:
        raise ValueError(f"lift tables built for (u={tables.u}, y={tables.y}), run wants (u={u}, y={y})")
    return tables


def _table_for(f: SievePolynomial, u: int, table: SieveTable | None) -> SieveTable:
    """The table this run sieves in place: the one given, or a fresh one."""
    if table is None:
        return build_table(f, u)
    if table.u != u:
        raise ValueError(f"table built for u={table.u}, run wants u={u}")
    return table
