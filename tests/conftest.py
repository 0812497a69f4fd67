"""Shared pytest plumbing: the acceptance suite records one verdict line
per criterion and this hook prints them all at the end of the run; the
sieve suites share one check of a sieved table against its factor base."""

import numpy as np

from sievelab.arith import limb_values

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def exact_values(side: np.ndarray) -> np.ndarray:
    """The values of a (k, rows, width) table side as a (rows, width)
    object array of Python ints."""
    limbs_of(side)  # asserts the one form
    return limb_values(side)


def limbs_of(side: np.ndarray) -> int:
    """The limb count k of a (k, rows, width) table side."""
    assert side.dtype == np.int64 and side.ndim == 3
    return side.shape[0]


def divisible_cells(table, primes) -> list[tuple[int, int, int]]:
    """(b, a, l) of every live cell of a SieveTable where a prime l of
    primes divides either side; a sieved table has none.  For a prime l
    this is l dividing the cell's residual product."""
    rational, algebraic = exact_values(table.rational), exact_values(table.algebraic)
    live = rational != 0  # a dead cell holds 0 on both sides, a live one on neither
    found = []
    for l in primes:
        rows, columns = np.nonzero(live & ((rational % l == 0) | (algebraic % l == 0)))
        found += [(b + 1, i - table.u, l) for b, i in zip(rows.tolist(), columns.tolist())]
    return found
