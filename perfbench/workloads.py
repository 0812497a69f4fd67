"""Workload plans for the sievelab benchmark: inputs drawn from a seed, the
CLI invocations that consume them, and the checks on every output.

Only the polynomials come from the seed; each workload's parameter grid is
fixed so that runs on different seeds do the same amount of table work.

  compare-int64    `sievelab compare` on degree-3 and degree-5 instances whose
                   norm bound stays below 2**62, so the oracle takes its int64
                   path; all three sieves and the CSV row writer run.
  sweep-bigint     `sievelab sweep` over instances whose norm bound is at least
                   2**62, so the oracle takes its exact-integer path and no
                   trivial sieve runs: the same layers in a different use.
  montecarlo-enum  `sievelab montecarlo` plus `sievelab enumerate`: root
                   classification and lift tests per sampled polynomial, and
                   the exact enumeration, which the sieve workloads barely touch.

Instance 0 of each sieve workload is drawn conditioned on a multiple root
mod some l <= y that lifts mod l**2, so the improved sieve's correction
while-loop runs on every seed.
"""

import csv
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

INT64_SAFE = 2**62

# (d, m, u, y) per instance; the polynomial is the only seeded part
COMPARE_GRID = [(3, 20, 220, 100), (5, 20, 150, 100)]
SWEEP_GRID = [(7, 10**4, 120, 100), (8, 10**6, 90, 60), (6, 10**5, 150, 100), (7, 10**5, 120, 80)]
MONTECARLO = {"d": 3, "y": 100, "trials": 2000}
ENUMERATE = {"d": 4, "l": 5}

# the same shapes at a size that finishes in well under a second
TINY = {
    "compare": [(2, 3, 30, 7), (3, 5, 12, 11)],
    "sweep": [(8, 10**12, 10, 11), (6, 10**15, 10, 7)],
    "montecarlo": {"d": 3, "y": 11, "trials": 50},
    "enumerate": {"d": 2, "l": 3},
}

WORKLOADS = ("compare-int64", "sweep-bigint", "montecarlo-enum")


class CheckFailed(Exception):
    """An invocation's output disagrees with what the benchmark expects."""


def primes_up_to(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def algebraic_bound(d: int, m: int, u: int) -> int:
    return m * (d + 1) * u**d


def has_liftable_multiple_root(coeffs: list[int], y: int) -> bool:
    """Some x, l <= y with f(x) = 0 mod l**2 and f'(x) = 0 mod l."""
    for l in primes_up_to(y):
        l2 = l * l
        for x in range(l):
            value = deriv = 0
            for c in reversed(coeffs):
                deriv = (deriv * x + value) % l2
                value = (value * x + c) % l2
            if value == 0 and deriv % l == 0:
                return True
    return False


def draw_poly(rng: random.Random, d: int, m: int) -> list[int]:
    """Monic, lower coefficients uniform on [-m, m], as `sievelab` draws them."""
    return [rng.randint(-m, m) for _ in range(d)] + [1]


def expected_classical_rational(coeffs: list[int], m: int, u: int, y: int) -> dict[tuple[int, int], int]:
    """{(b, l): rational[0] + sum_e rational[e-1]} over the live cells, where
    rational[e-1] counts cells with l**e dividing a - b*m.  This is what the
    classical sieve's rational while-loops cost when they strip only the
    rational factor; it is computed from a - b*m alone."""
    a = np.arange(-u, u + 1, dtype=np.int64)
    integer_roots = {x for x in range(-u, u + 1) if sum(c * x**i for i, c in enumerate(coeffs)) == 0}
    primes = primes_up_to(y)
    out = {}
    for b in range(1, u + 1):
        rat = a - b * m
        live = (np.gcd(a, b) == 1) & (rat != 0)
        if b == 1:  # F(a, b) = 0 only at a = an integer root with b = 1
            live &= ~np.isin(a, list(integer_roots))
        values = rat[live]
        for l in primes:
            if b % l == 0:
                continue
            hits = values[values % l == 0]
            cost = hits.size
            while hits.size:
                cost += hits.size
                hits = hits // l
                hits = hits[hits % l == 0]
            out[(b, l)] = cost
    return out


def parse_summary(stdout: str) -> dict:
    """The CLI's JSON summary is the last thing it prints."""
    try:
        return json.loads(stdout[stdout.index("{") :])
    except ValueError as exc:
        raise CheckFailed(f"no JSON summary in output: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Invocation:
    """One `python -m sievelab` call; `check` returns the facts it verified."""

    argv: list[str]
    check: Callable[[dict, Path], dict]
    out: Path


@dataclass
class Plan:
    workload: str
    seed: int
    invocations: list[Invocation]
    setup: dict  # what a fresh interpreter precomputes, see setup_probe.py
    work: int
    work_unit: str
    grid: list[dict]
    expected_rational: dict[tuple, dict] = field(default_factory=dict)

    def expected_rational_for(self, coeffs: list[int], m: int, u: int, y: int) -> dict[tuple[int, int], int]:
        key = (tuple(coeffs), m, u, y)
        if key not in self.expected_rational:
            self.expected_rational[key] = expected_classical_rational(coeffs, m, u, y)
        return self.expected_rational[key]


def _compare_check(inst: dict, expected_rational: dict, conditioned: bool) -> Callable[[dict, Path], dict]:
    pair_count = len(expected_rational)

    def check(summary: dict, out: Path) -> dict:
        _require(summary.get("identities_ok") is True, "compare: identities_ok is not true")
        _require(summary.get("tables_match") is True, "compare: tables_match is not true")
        _require(summary.get("pair_count") == pair_count,
                 f"compare: pair_count {summary.get('pair_count')} != {pair_count}")
        _require(summary.get("poly") == inst["poly"], "compare: echoed polynomial differs from the input")
        if conditioned:
            _require(summary["correction_total"] > 0,
                     "compare: liftable multiple root but correction_total is 0")
        with open(out / "pairs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == 2 * pair_count, f"compare: pairs.csv has {len(rows)} rows, want {2 * pair_count}")
        phase_mismatches = sum(
            1
            for r in rows
            if r["alg"] == "classical"
            and int(r["attempts_rational"]) != expected_rational[(int(r["b"]), int(r["l"]))]
        )
        totals = summary["totals"]
        return {
            "attempts_improved": totals["improved"],
            "attempts_classical": totals["classical"],
            "correction_total": summary["correction_total"],
            "correction_per_instance": [summary["correction_total"]],
            "classical_phase_mismatches": phase_mismatches,
            "classical_pairs": pair_count,
            "rows_written": len(rows),
        }

    return check


def _sweep_check(grid: list[dict]) -> Callable[[dict, Path], dict]:
    def check(summary: dict, out: Path) -> dict:
        _require(summary.get("instances") == len(grid),
                 f"sweep: {summary.get('instances')} instances reported, {len(grid)} requested")
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == len(grid), f"sweep: sweep.csv has {len(rows)} rows, want {len(grid)}")
        for row, inst in zip(rows, grid):
            poly = [int(c) for c in row["poly"].split(",")]
            _require(poly == inst["poly"], f"sweep: instance {row['instance_id']} drew {poly}, want {inst['poly']}")
        _require(int(rows[0]["correction_total"]) > 0,
                 "sweep: instance 0 has a liftable multiple root but correction_total is 0")
        _require(sum(int(r["improved_total"]) for r in rows) == summary["improved_total"],
                 "sweep: row totals do not add up to improved_total")
        return {
            "attempts_improved": summary["improved_total"],
            "attempts_classical": summary["classical_total"],
            "correction_total": sum(int(r["correction_total"]) for r in rows),
            "correction_per_instance": [int(r["correction_total"]) for r in rows],
            "rows_written": len(rows),
        }

    return check


def _montecarlo_check(summary: dict, out: Path) -> dict:
    _require(summary.get("passes_gate") is True, "montecarlo: gate failed")
    return {"successes": summary["successes"], "trials": summary["trials"]}


def _enumerate_check(d: int, l: int) -> Callable[[dict, Path], dict]:
    def check(summary: dict, out: Path) -> dict:
        _require(summary.get("count_total") == l ** (2 * d),
                 f"enumerate: count_total {summary.get('count_total')} != {l}^{2 * d}")
        per_point = l ** (2 * d - 3)
        _require(summary.get("per_point_counts") == [per_point] * l,
                 f"enumerate: per_point_counts {summary.get('per_point_counts')} != {l} x {per_point}")
        return {"enumerated": summary["count_total"], "count_bad": summary["count_bad"]}

    return check


def _seeded_poly(tag: str, i: int, d: int, m: int, y: int) -> tuple[int, list[int]]:
    """Instance i's seed and polynomial, drawn the way `sievelab sweep` draws
    them (from "<seed>:poly"); instance 0 is redrawn until it has a liftable
    multiple root."""
    for attempt in itertools.count():
        inst_seed = random.Random(f"{tag}:{i}:{attempt}").randrange(2**32)
        poly = draw_poly(random.Random(f"{inst_seed}:poly"), d, m)
        if i > 0 or has_liftable_multiple_root(poly, y):
            return inst_seed, poly


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    """Inputs for one run of `workload`, written under `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "compare-int64":
        plan = _build_compare(seed, workdir, TINY["compare"] if tiny else COMPARE_GRID)
    elif workload == "sweep-bigint":
        plan = _build_sweep(seed, workdir, TINY["sweep"] if tiny else SWEEP_GRID)
    elif workload == "montecarlo-enum":
        mc = TINY["montecarlo"] if tiny else MONTECARLO
        en = TINY["enumerate"] if tiny else ENUMERATE
        return _build_montecarlo(seed, workdir, mc, en)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    plan.setup = {"instances": [{k: g[k] for k in ("poly", "m", "u", "y")} for g in plan.grid]}
    plan.work = sum(g["u"] * (2 * g["u"] + 1) for g in plan.grid)
    return plan


def _build_compare(seed: int, workdir: Path, grid_spec: list[tuple]) -> Plan:
    plan = Plan("compare-int64", seed, invocations=[], setup={}, work=0, work_unit="cells", grid=[])
    for i, (d, m, u, y) in enumerate(grid_spec):
        bound = algebraic_bound(d, m, u)
        if bound >= INT64_SAFE or u * (m + 1) >= INT64_SAFE:
            raise ValueError(f"compare-int64 instance {i} leaves the int64 oracle path (bound {bound})")
        _, poly = _seeded_poly(f"compare-int64:{seed}", i, d, m, y)
        inst = {"poly": poly, "m": m, "u": u, "y": y, "algebraic_bound": bound}
        plan.grid.append(inst)
        out = workdir / f"compare{i}"
        argv = ["compare", "--poly=" + ",".join(map(str, poly)), "--m", str(m), "--u", str(u),
                "--y", str(y), "--out", str(out)]
        check = _compare_check(inst, plan.expected_rational_for(poly, m, u, y), conditioned=i == 0)
        plan.invocations.append(Invocation(argv, check, out))
    return plan


def _build_sweep(seed: int, workdir: Path, grid_spec: list[tuple]) -> Plan:
    grid = []
    for i, (d, m, u, y) in enumerate(grid_spec):
        bound = algebraic_bound(d, m, u)
        if bound < INT64_SAFE:
            raise ValueError(f"sweep-bigint instance {i} would take the int64 oracle path (bound {bound})")
        inst_seed, poly = _seeded_poly(f"sweep-bigint:{seed}", i, d, m, y)
        grid.append({"d": d, "m": m, "u": u, "y": y, "seed": inst_seed, "poly": poly, "algebraic_bound": bound})
    config = workdir / "sweep.json"
    config.write_text(json.dumps(
        {"sweep_instances": [{k: g[k] for k in ("d", "m", "u", "y", "seed")} for g in grid]}
    ))
    out = workdir / "sweep"
    invocation = Invocation(["sweep", "--config", str(config), "--out", str(out)], _sweep_check(grid), out)
    return Plan("sweep-bigint", seed, invocations=[invocation], setup={}, work=0, work_unit="cells", grid=grid)


def _build_montecarlo(seed: int, workdir: Path, mc: dict, en: dict) -> Plan:
    mc_out, en_out = workdir / "montecarlo", workdir / "enumerate"
    invocations = [
        Invocation(["montecarlo", "--d", str(mc["d"]), "--y", str(mc["y"]), "--trials", str(mc["trials"]),
                    "--seed", str(seed), "--out", str(mc_out)], _montecarlo_check, mc_out),
        Invocation(["enumerate", "--d", str(en["d"]), "--l", str(en["l"]), "--out", str(en_out)],
                   _enumerate_check(en["d"], en["l"]), en_out),
    ]
    return Plan(
        workload="montecarlo-enum",
        seed=seed,
        invocations=invocations,
        setup={"model": {"d": mc["d"], "y": mc["y"], "seed": seed}},
        work=mc["trials"] + en["l"] ** (2 * en["d"]),
        work_unit="polys",
        grid=[{"command": "montecarlo", **mc, "seed": seed}, {"command": "enumerate", **en}],
    )


def aggregate_facts(facts: list[dict]) -> dict:
    """Sum the per-invocation facts of one round into workload totals."""
    total: dict = {}
    for f in facts:
        for key, value in f.items():
            if isinstance(value, list):
                total[key] = total.get(key, []) + value
            else:
                total[key] = total.get(key, 0) + value
    if total.get("attempts_classical"):
        total["improved_over_classical"] = total["attempts_improved"] / total["attempts_classical"]
    return total
