"""Command-line front end.

Subcommands:
  compare     run all three sieves on one instance, verify the cost
              identities, write per-(b, l) rows and a JSON summary
  sieve       run a single sieve and report totals and smooth entries
  montecarlo  estimate the probability that no prime l <= y carries a
              liftable multiple root
  enumerate   exact version of the same count over every monic
              polynomial mod l^2
  sweep       measured classical/improved ratios over many instances

A --config JSON file supplies flags by name ({"u": 3} reads as --u=3);
its values, and those of sweep's sweep_instances entries, go through the
same parsing, and explicit flags win.

The rules of a single flag, caps included, live in its type alone: --u <=
MAX_U, --y <= MAX_Y, --d <= MAX_D (and at most MAX_D + 1 coefficients in
--poly), --m <= MAX_M and --instances <= MAX_SWEEP_INSTANCES bound the
table, the root scans, the degree, the size of the exact integers and the
sweep, and --poly must be monic of degree >= 2, in a config file as on
the command line.  Rules that join flags stay where they are used: the polynomial
flags in _resolve_polynomial, and the work caps of montecarlo and
enumerate (ENUMERATION_CAP, MONTE_CARLO_CAP, DRAW_CAP) in experiments,
which checks them before any work.

Exit codes: 0 success, 1 statistical gate failed, 2 usage error, 3 a
verified identity or internal invariant was violated.  A compare or sweep
with failed identities or differing final tables still prints and writes
all its results, then logs each line of ComparisonResult.failures to
stderr (sweep's as "instance <i>: <line>").  An --out path that can never
be a directory, or an empty one, which would put the result files in the
current directory, is a usage error found before any work starts, and the
--out directory itself is created only when the first result file is
written, so a usage error leaves nothing behind.  A result file that
cannot be written is a usage error too, and names the file (a directory
in its place is found before any work starts); summary.json is written
before the summary is printed.

A command loads only the modules it runs: montecarlo and enumerate never
load engine, oracle or csv, and montecarlo is the only command that loads
fractions (and with it decimal).  The sieve and phase names come from
roots; compare and sweep load engine and oracle through
experiments.run_comparison, sieve loads engine in its handler, and csv is
imported where CSV rows are written.  pairs.csv is written as its rows
are formatted, _PAIR_CHUNK pairs at a time; --format json builds the
list of every row, since json.dumps needs it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .arith import InvariantViolation, limb_values, to_limbs
from .experiments import (
    RandomModel,
    SweepInstance,
    enumerate_exact,
    monte_carlo,
    random_sieve_polynomial,
    ratio_sweep,
    run_comparison,
)
from .poly import SievePolynomial, exact_dtype
from .roots import CLASSICAL, IMPROVED, PHASES, TRIVIAL

if TYPE_CHECKING:
    from .engine import SieveTable
    from .oracle import LedgerReport

log = logging.getLogger("sievelab")

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_VIOLATION = 3

MAX_U = 1023  # largest u whose table of u·(2u+1) cells fits in 2^21: 1023·2047 <= 2^21 < 1024·2049
MAX_Y = 3942  # largest y whose primes sum to <= 10^6, the residues the ladders and the oracle scan for roots
# largest sieve degree: at u = MAX_U, y = MAX_Y and m = 1, compare --random takes 219 s CPU and 475 MB
# at d = 16, within 10x of d = 2 (25 s, 273 MB); d = 32 did not finish in 300 s
MAX_D = 16
# largest m: at u = MAX_U, y = MAX_Y and d = 2, compare --random takes 215 s CPU and 480 MB at
# m = 10^15, within 10x of m = 1 (26 s, 273 MB); m = 10^18 takes 448 s and 647 MB
MAX_M = 10**15
MAX_SWEEP_INSTANCES = 1000  # instances of one sweep, sampled or listed in sweep_instances
_PAIR_CHUNK = 4096  # pairs that _pair_rows formats at a time

PAIR_COLUMNS = [
    "instance_id",
    "b",
    "l",
    "alg",
    *(f"attempts_{phase}" for phase in PHASES),
    "C_exact",
    "D_exact",
    "correction",
    "C_asym",
    "D_asym",
]

SWEEP_COLUMNS = [
    "instance_id",
    "d",
    "m",
    "u",
    "y",
    "seed",
    "poly",
    "classical_total",
    "improved_total",
    "ratio",
    "correction_total",
    "correction_free",
]


def _format_column(numerator, denominator, places: int = 6) -> list[str]:
    """Exact decimal rendering of each numerator/denominator >= 0, rounded
    half up, with no float detour: ints, lists or arrays that broadcast."""
    numerator = np.atleast_1d(numerator)
    scale = 10**places
    scaled = numerator.astype(exact_dtype(int(numerator.max(initial=0)) * scale)) * scale
    quotient, remainder = scaled // denominator, scaled % denominator
    quotient += remainder * 2 >= denominator
    return [f"{q // scale}.{q % scale:0{places}d}" for q in quotient.tolist()]


def _parse_poly_text(text: str) -> tuple[int, ...]:
    """argparse type of --poly: the coefficients of a sieve polynomial; only
    the bound |c_i| <= m, which joins --m, is left to _resolve_polynomial."""
    parts = text.split(",")
    if len(parts) > MAX_D + 1:
        raise argparse.ArgumentTypeError(f"polynomial has {len(parts)} coefficients, at most {MAX_D + 1} (degree {MAX_D})")
    try:
        coefficients = tuple(int(part.strip()) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"polynomial must be comma-separated integers, got {text!r}") from None
    try:  # monic and of degree >= 2, checked with the smallest m that admits the coefficients
        SievePolynomial(coefficients=coefficients, m=max(1, *map(abs, coefficients)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return coefficients


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer from `low` up to `high` (no upper end if None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _config_tokens(values: dict) -> list[str]:
    """Config-file keys as the flags they name: a list becomes a comma-joined
    value and true the bare flag; false and null are dropped."""
    tokens = []
    for key, value in values.items():
        if value is True:
            tokens.append(f"--{key}")
        elif isinstance(value, list):
            tokens.append(f"--{key}=" + ",".join(str(v) for v in value))
        elif value is not False and value is not None:
            tokens.append(f"--{key}={value}")
    return tokens


ENTRY_KEYS = ("d", "m", "u", "y", "seed")


def _sweep_instances(parser: argparse.ArgumentParser, entries) -> list[SweepInstance]:
    """The sweep_instances config key, read by the sweep parser itself: its
    length as --instances, each entry as the flags --d, --m, --u, --y, --seed."""
    if not isinstance(entries, list):
        parser.error("sweep_instances must be a list of objects")
    parser.parse_args([f"--instances={len(entries)}"])
    instances = []
    for entry in entries:
        if not isinstance(entry, dict):
            parser.error(f"sweep_instances entry {entry!r} is not an object")
        unknown = sorted(set(entry) - set(ENTRY_KEYS))
        missing = [key for key in ENTRY_KEYS if key not in entry]
        if unknown or missing:
            parser.error(f"sweep_instances entry {entry!r}: unknown keys {unknown}, missing keys {missing}")
        pinned = parser.parse_args([f"--{key}={entry[key]}" for key in ENTRY_KEYS])
        instances.append(SweepInstance(degree=pinned.d, m=pinned.m, u=pinned.u, y=pinned.y, seed=pinned.seed))
    return instances


def _install_config(args: argparse.Namespace) -> None:
    """Parse the config file with the subcommand's own parser and make the
    result that parser's defaults, so that flags parsed afterwards win."""
    parser = args.parser
    try:
        values = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {args.config}: {exc}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")

    if args.command == "sweep" and values.get("sweep_instances") is not None:
        parser.set_defaults(sweep_instances=_sweep_instances(parser, values.pop("sweep_instances")))

    parser.allow_abbrev = False  # a key must spell out its flag
    file_args = parser.parse_args(_config_tokens(values))
    parser.allow_abbrev = True
    parser.set_defaults(**vars(file_args))


def _resolve_polynomial(args: argparse.Namespace) -> SievePolynomial:
    parser = args.parser
    if args.poly is not None and args.random:
        parser.error("--poly and --random are mutually exclusive")
    if args.m is None:
        parser.error("this command needs --m")
    if args.poly is not None:
        try:
            return SievePolynomial(coefficients=args.poly, m=args.m)
        except ValueError as exc:
            parser.error(str(exc))
    if args.random:
        if args.d is None:
            parser.error("--random needs --d")
        return random_sieve_polynomial(args.d, args.m, random.Random(f"{args.seed}:poly"))
    parser.error("provide a polynomial with --poly or ask for one with --random")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            args.parser.error(f"this command needs --{name}")


def _write_rows(args: argparse.Namespace, columns: list[str], rows: Iterable[list]) -> None:
    """The row file: CSV is written row by row as `rows` yields them; JSON
    needs the list of every row, since json.dumps takes the whole payload."""
    if args.format == "json":
        payload = [dict(zip(columns, r)) for r in rows]
        _write_out(args, f"{args.rows}.json", lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n"))
    else:
        import csv

        def write(fh) -> None:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)

        _write_out(args, f"{args.rows}.csv", write)


def _emit_summary(summary: dict, args: argparse.Namespace, *lines: str) -> None:
    """Write summary.json when --out is given, then print the lines and the
    summary, so a file that cannot be written leaves stdout empty; a closed stdout drops the print."""
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out is not None:
        _write_out(args, "summary.json", lambda fh: fh.write(text + "\n"))
    try:
        print(*lines, text, sep="\n", flush=True)
    except BrokenPipeError:  # what is still buffered goes to devnull, so the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _write_out(args: argparse.Namespace, name: str, write) -> None:
    """write(fh) into the file name of the --out directory, which is created
    on the first write, once the handler has validated its inputs; a
    directory or file that cannot be written is a usage error."""
    path = args.out / name
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        args.parser.error(f"cannot write {path}: {exc}")


def _out_path(text: str) -> Path:
    """argparse type of --out: a path, but not the empty one (the current directory)."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got an empty path")
    return Path(text)


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an --out that can never hold the result files, creating
    nothing: a file, a path below one, or a directory in a file's place."""
    existing = next(path for path in (args.out, *args.out.parents) if path.exists())
    if not existing.is_dir():
        args.parser.error(f"cannot create --out directory {args.out}: {existing} is not a directory")
    for name in ("summary.json", f"{args.rows}.{args.format}") if args.rows else ("summary.json",):
        if (args.out / name).is_dir():
            args.parser.error(f"cannot write {args.out / name}: it is a directory")


def _pair_rows(report: LedgerReport) -> Iterator[list]:
    """pairs rows in PAIR_COLUMNS order: per pair, classical then improved,
    gathered and formatted _PAIR_CHUNK pairs at a time, so no column or list
    of every pair is held."""
    for pairs in report.pair_chunks(_PAIR_CHUNK):
        c_asym, d_asym = (_format_column(scaled, pairs.l - 1) for scaled in pairs.scaled_asymptotic)
        common = zip(pairs.b.tolist(), pairs.l.tolist(), pairs.c_exact.tolist(),
                     pairs.d_exact.tolist(), pairs.correction.tolist(), c_asym, d_asym)
        for (b, l, c_exact, d_exact, correction, c, d), classical, improved in zip(common, *pairs.measured.tolist()):
            yield [0, b, l, CLASSICAL, *classical, c_exact, d_exact, correction, c, d]
            yield [0, b, l, IMPROVED, *improved, c_exact, d_exact, correction, c, d]


def _cmd_compare(args: argparse.Namespace) -> int:
    _require(args, "u", "y")
    f = _resolve_polynomial(args)
    log.info("compare: poly=%s m=%d u=%d y=%d", f.coefficients, f.m, args.u, args.y)
    comp = run_comparison(f, args.u, args.y, include_trivial=True)
    report = comp.report
    if args.out is not None:
        _write_rows(args, PAIR_COLUMNS, _pair_rows(report))

    totals = {outcome.algorithm: outcome.ledger.grand_total() for outcome in (comp.trivial, comp.classical, comp.improved)}
    ratio = None if totals[CLASSICAL] == 0 else _format_column(totals[IMPROVED], totals[CLASSICAL])[0]
    summary = {
        "command": "compare",
        "poly": list(f.coefficients),
        "m": f.m,
        "u": args.u,
        "y": args.y,
        "identities_ok": report.ok,
        "tables_match": comp.table_mismatch is None,
        "mismatched_pairs": [list(p) for p in report.mismatches[:10]],
        "totals": totals,
        "ratio_improved_over_classical": ratio,
        "correction_total": report.correction_total,
        "pair_count": report.pair_count,
        "precompute": asdict(comp.tables.stats),
    }
    _emit_summary(summary, args)
    failures = comp.failures()
    for line in failures:
        log.error("%s", line)
    return EXIT_VIOLATION if failures else EXIT_OK


def _smooth_rows(table: SieveTable) -> list[list[int]]:
    """[b, a, residual] of every cell whose residual is +-1, in row-major
    order: both sides are +-1 there, and only those cells are multiplied."""
    sides = [side.reshape(len(side), -1) for side in (table.rational, table.algebraic)]  # (k, cells)
    cells = np.flatnonzero(np.logical_and.reduce([
        (side[:, :, None] == to_limbs(np.array([1, -1]), len(side))[:, None]).all(axis=0).any(axis=1)
        for side in sides
    ]))
    rows, columns = np.divmod(cells, 2 * table.u + 1)
    residuals = limb_values(sides[0].take(cells, axis=1)) * limb_values(sides[1].take(cells, axis=1))
    return [[row + 1, column - table.u, residual]
            for row, column, residual in zip(rows.tolist(), columns.tolist(), residuals.tolist())]


def _cmd_sieve(args: argparse.Namespace) -> int:
    _require(args, "u", "y")
    f = _resolve_polynomial(args)
    from .engine import sieve_classical, sieve_improved, sieve_trivial  # loaded by the one command that runs them

    runner = {TRIVIAL: sieve_trivial, CLASSICAL: sieve_classical, IMPROVED: sieve_improved}[args.alg]
    outcome = runner(f, args.u, args.y)

    smooth = _smooth_rows(outcome.table)
    if args.out is not None:
        _write_rows(args, ["b", "a", "residual"], smooth)

    ledger = outcome.ledger
    summary = {
        "command": "sieve",
        "alg": args.alg,
        "poly": list(f.coefficients),
        "m": f.m,
        "u": args.u,
        "y": args.y,
        "attempts_total": ledger.grand_total(),
        "attempts_by_phase": {phase: ledger.phase_total(phase) for phase in ledger.phases if ledger.phase_total(phase)},
        "smooth_entries": len(smooth),
    }
    _emit_summary(summary, args)
    return EXIT_OK


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    _require(args, "d", "y", "trials")
    model = RandomModel(degree=args.d, smooth_bound=args.y, seed=args.seed)
    try:
        report = monte_carlo(model, args.trials)
    except ValueError as exc:
        args.parser.error(str(exc))
    _emit_summary({"command": "montecarlo", **report.to_dict()}, args)
    log.info(
        "estimate %.4f +/- %.4f, exact probability %.4f, its limit at degrees 2 and 3 %.4f",
        report.estimate, report.stderr, report.reference_product, report.zeta2_reciprocal,
    )
    return EXIT_OK if report.passes_gate else EXIT_GATE_FAILED


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _require(args, "d", "l")
    try:
        count_bad, count_total, per_point = enumerate_exact(args.d, args.l)
    except ValueError as exc:
        args.parser.error(str(exc))
    summary = {
        "command": "enumerate",
        "d": args.d,
        "l": args.l,
        "count_bad": count_bad,
        "count_total": count_total,
        "per_point_counts": list(per_point),
        "per_point_density": _format_column(per_point, count_total, 9),
    }
    _emit_summary(summary, args, f"{count_bad}/{count_total}")
    return EXIT_OK


def _build_sweep_instances(args: argparse.Namespace) -> list[SweepInstance]:
    if args.sweep_instances is not None:
        if args.instances is not None:
            args.parser.error("instances (--instances or its config key) and sweep_instances cannot be given together")
        return args.sweep_instances
    if args.instances is None:
        args.parser.error("sweep needs --instances N or a config file with sweep_instances")
    instances = []
    for i in range(args.instances):
        rng = random.Random(f"{args.seed}:instance:{i}")
        instances.append(
            SweepInstance(
                degree=args.d if args.d is not None else rng.randint(2, 5),
                m=args.m if args.m is not None else rng.randint(5, 50),
                u=args.u if args.u is not None else rng.randint(50, 300),
                y=args.y if args.y is not None else rng.randint(10, 100),
                seed=rng.randrange(2**32),
            )
        )
    return instances


def _cmd_sweep(args: argparse.Namespace) -> int:
    instances = _build_sweep_instances(args)
    log.info("sweep over %d instances", len(instances))
    rows = ratio_sweep(instances)

    table = []
    for idx, row in enumerate(rows):
        inst = row.instance
        ratio = "" if row.classical_total == 0 else _format_column(row.improved_total, row.classical_total)[0]
        table.append([idx, inst.degree, inst.m, inst.u, inst.y, inst.seed, ",".join(str(c) for c in row.coefficients),
                      row.classical_total, row.improved_total, ratio, row.correction_total, row.correction_free])
    if args.out is not None:
        _write_rows(args, SWEEP_COLUMNS, table)

    classical_sum = sum(r.classical_total for r in rows)
    improved_sum = sum(r.improved_total for r in rows)
    summary = {
        "command": "sweep",
        "instances": len(rows),
        "classical_total": classical_sum,
        "improved_total": improved_sum,
        "aggregate_ratio": None if classical_sum == 0 else _format_column(improved_sum, classical_sum)[0],
        "correction_free_instances": sum(1 for r in rows if r.correction_free),
    }
    _emit_summary(summary, args)
    for idx, row in enumerate(rows):
        for line in row.failures:
            log.error("instance %d: %s", idx, line)
    return EXIT_VIOLATION if any(row.failures for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Instrumented line sieving: exact division-attempt accounting and its brute-force checks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, handler, summary: str, *, seed: bool = True, rows: str | None = None,
                    poly: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, parser=p, rows=rows)  # rows: the stem of its row file, if any
        p.add_argument("--config", help="JSON file whose keys are flag names; explicit flags win")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", type=_out_path, help="directory for result files (created when they are written)")
        if rows:
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="row file format (default csv)")
        if poly:
            p.add_argument("--poly", type=_parse_poly_text,
                           help="comma-separated coefficients c_0,...,c_d with c_d = 1")
            p.add_argument("--random", action="store_true", help="draw a random polynomial instead")
            p.add_argument("--d", type=_int_in(2, MAX_D), help=f"degree for --random (at most {MAX_D})")
            p.add_argument("--m", type=_int_in(1, MAX_M), help=f"coefficient bound and rational root (at most {MAX_M})")
            p.add_argument("--u", type=_int_in(1, MAX_U), help=f"table half-width (at most {MAX_U})")
            p.add_argument("--y", type=_int_in(2, MAX_Y), help=f"prime bound (at most {MAX_Y})")
        return p

    add_command("compare", _cmd_compare, "run all sieves, verify the cost identities", rows="pairs", poly=True)

    p = add_command("sieve", _cmd_sieve, "run one sieve and report smooth entries", rows="smooth", poly=True)
    p.add_argument("--alg", choices=(TRIVIAL, CLASSICAL, IMPROVED), default=IMPROVED)

    p = add_command("montecarlo", _cmd_montecarlo,
                    "sampled probability that every prime is free of liftable multiple roots")
    p.add_argument("--d", type=_int_in(1), help="polynomial degree")
    p.add_argument("--y", type=_int_in(2), help="prime bound")
    p.add_argument("--trials", type=_int_in(1))

    p = add_command("enumerate", _cmd_enumerate, "exact lift-event counts over all monic polynomials mod l^2",
                    seed=False)
    p.add_argument("--d", type=_int_in(1), help="polynomial degree")
    p.add_argument("--l", type=_int_in(2), help="prime")

    p = add_command("sweep", _cmd_sweep, "classical/improved ratio across random instances", rows="sweep")
    p.set_defaults(sweep_instances=None)
    p.add_argument("--instances", type=_int_in(1, MAX_SWEEP_INSTANCES),
                   help=f"number of instances (at most {MAX_SWEEP_INSTANCES})")
    p.add_argument("--d", type=_int_in(2, MAX_D), help="pin the degree (otherwise sampled)")
    p.add_argument("--m", type=_int_in(1, MAX_M), help=f"pin m (otherwise sampled, at most {MAX_M})")
    p.add_argument("--u", type=_int_in(1, MAX_U), help="pin u (otherwise sampled)")
    p.add_argument("--y", type=_int_in(2, MAX_Y), help="pin y (otherwise sampled)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(message)s")  # adds no handler once the root logger has one
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)  # so the level is set on every call
    if args.config:
        _install_config(args)
        args = parser.parse_args(argv)
    if args.out is not None:
        _check_out(args)
    try:
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
