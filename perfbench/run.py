"""sievelab benchmark: drives the real CLI (`python -m sievelab ...`) on one
workload and prints every metric by name, with its unit.

    python3 perfbench/run.py --workload compare-int64 --seed 3 --seconds 35 --trace 0

Run it from the repository root.  The program comes from src/ of this
checkout; there is nothing to build.  Workloads are described in
workloads.py and their reasons are recorded in BENCHMARK.json.

--trace 0  End-to-end run.  One closed-loop client runs the workload's CLI
           invocations one subprocess at a time, in whole rounds, until
           --seconds have passed.  Reports the median round's summed child
           CPU time (cpu_s, user + system from os.wait4), table cells or
           polynomials per CPU second (work_per_cpu_s), the peak RSS of any
           child (peak_rss_mb), and the median CPU time of several
           fresh-interpreter set-ups (setup_s: import sievelab and build the
           workload's ladders).  Wall time is reported too but not bounded:
           on a shared VM the hypervisor's steal time inflates it by up to
           half in phases that last minutes, while a child's CPU time leaves
           steal out.  The children do no I/O to speak of, so on a quiet
           machine the two agree to about 1%.
--trace 1  Per-layer run.  Replays the same invocations in this process,
           plain and then with spans around each layer's public functions
           (layertrace.py), in rounds until --seconds have passed, and reports
           the layer metrics and tracing overhead of the round whose traced
           total is the median.

Every output is checked (workloads.py).  An invocation that exits non-zero
or fails a check counts as failed, and so does one whose exact counts
differ from the first round's.  The last stdout line is the JSON result;
results/<workload>-seed<n>-trace<t>/ receives result.json and manifest.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


def run_child(argv: list[str], log_base: Path) -> tuple[float, float, float, int, str]:
    """Wall seconds, CPU seconds, peak RSS in MB, exit code and stdout of one subprocess."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        # sievelab does no BLAS work; an idle BLAS thread pool only spins at
        # numpy import and competes with the one client for the two cores
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    out_path, err_path = log_base.with_suffix(".out"), log_base.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return elapsed, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()


def measure_setup(plan: workloads.Plan, logs: Path) -> tuple[list[tuple[float, float]], dict, list[str]]:
    """(wall, CPU) seconds of each fresh-interpreter set-up that succeeded."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(plan.setup)]
    times, info, failures = [], {}, []
    for i in range(SETUP_REPEATS):
        elapsed, used, _, code, stdout = run_child(probe, logs / f"setup{i}")
        if code != 0:
            failures.append(f"setup probe: exit {code}")
            continue
        info = json.loads(stdout.strip().splitlines()[-1])
        if Path(info["file"]).resolve().parent != (SRC / "sievelab").resolve():
            failures.append(f"setup probe imported sievelab from {info['file']}")
            continue
        times.append((elapsed, used))
    return times, info, failures


def measure_untraced(plan: workloads.Plan, seconds: float, logs: Path) -> dict:
    """Closed loop, one client: rounds of the workload's invocations."""
    rounds, failures, attempted, first_facts = [], [], 0, {}
    begin, round_s = perf_counter(), 0.0
    while not rounds or perf_counter() - begin + round_s <= seconds:  # room for one more round
        round_start = perf_counter()
        wall, cpu, peak, facts = 0.0, 0.0, 0.0, []
        for i, inv in enumerate(plan.invocations):
            elapsed, used, rss, code, stdout = run_child(
                [sys.executable, "-m", "sievelab", *inv.argv], logs / f"r{len(rounds)}-{i}"
            )
            attempted += 1
            wall += elapsed
            cpu += used
            peak = max(peak, rss)
            if code != 0:
                failures.append(f"{inv.argv[0]}: exit {code}")
                continue
            try:
                got = inv.check(workloads.parse_summary(stdout), inv.out)
            except workloads.CheckFailed as exc:
                failures.append(str(exc))
                continue
            # the ledgers, ratios and Monte Carlo draws are exact: every round must repeat them
            if first_facts.setdefault(i, got) != got:
                failures.append(f"{inv.argv[0]}: round {len(rounds)} output differs from round 0")
                continue
            facts.append(got)
        round_s = perf_counter() - round_start
        rounds.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, "facts": workloads.aggregate_facts(facts)})
    return {"rounds": rounds, "attempted": attempted, "failures": failures}


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(plan: workloads.Plan, result: dict, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    rounds = result["rounds"]
    cpu = statistics.median(r["cpu_s"] for r in rounds)
    wall = statistics.median(r["wall_s"] for r in rounds)
    metrics = {
        "cpu_s": cpu,
        "work_per_cpu_s": plan.work / cpu,
        "setup_s": statistics.median(used for _, used in setup_times),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    facts = rounds[0]["facts"]
    extra = {
        "rounds": len(rounds),
        "wall_s": wall,
        "waited_s": wall - cpu,
        f"{plan.work_unit}_per_s": plan.work / wall,
        "setup_wall_s": statistics.median(elapsed for elapsed, _ in setup_times),
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_runs_s": setup_times,
        "error_rate": len(result["failures"]) / result["attempted"],
        **facts,
    }
    return metrics, extra


def per_layer(result: dict) -> tuple[dict, dict]:
    """The metrics of the round with the median traced total, so that its
    layer self times still add up to its total."""
    rounds = sorted(result["rounds"], key=lambda r: r["metrics"]["trace.traced_total_s"])
    median = rounds[(len(rounds) - 1) // 2]
    metrics = median["metrics"]
    extra = {
        "rounds": len(rounds),
        "traced_total_s": [r["metrics"]["trace.traced_total_s"] for r in result["rounds"]],
        "cli_facts": median["facts"],
        "profile": {name: {"calls": n, "total_s": t, "self_s": s}
                    for name, (n, t, s) in sorted(median["profile"].items())},
    }
    return metrics, extra


def counts_repeat(result: dict) -> list[str]:
    """Counts in the traced rounds must equal each other and the plain replay's CLI facts."""
    problems = []
    first = result["rounds"][0]
    for i, r in enumerate(result["rounds"]):
        differing = [name for name, value in r["metrics"].items()
                     if isinstance(value, int) and value != first["metrics"][name]]
        if r["facts"] != r["plain_facts"] or r["facts"] != first["facts"] or differing:
            problems.append(f"round {i}: exact counts differ from the plain replay or round 0 {differing}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sievelab end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every instance (self-check only)")
    args = parser.parse_args(argv)

    if not (SRC / "sievelab" / "__init__.py").is_file():
        print(f"perfbench: no sievelab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out_dir = BENCH_DIR / "results" / tag
    work = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed, work, tiny=args.tiny)

    try:
        if args.trace:
            import layertrace

            result = layertrace.measure(plan, args.seconds, SRC)
            failures = result["failures"] + counts_repeat(result)
            attempted = result["attempted"]
            metrics, extra = per_layer(result)
            versions = {"sievelab": result["version"], "numpy": numpy.__version__}
        else:
            setup_times, info, failures = measure_setup(plan, work)
            result = measure_untraced(plan, args.seconds, work)
            failures += result["failures"]
            attempted = result["attempted"] + SETUP_REPEATS
            if not setup_times:
                raise RuntimeError(f"no set-up probe succeeded: {failures}")
            metrics, extra = end_to_end(plan, result, setup_times)
            versions = {"sievelab": info["sievelab"], "numpy": info["numpy"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "grid": plan.grid,
        "work": plan.work,
        "work_unit": plan.work_unit,
        "invocations": [["sievelab", *inv.argv] for inv in plan.invocations],
        **versions,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out_dir / "result.json").write_text(
        json.dumps({"metrics": metrics, "details": extra, "failures": failures}, indent=2) + "\n"
    )

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    units = {**declared, "wall_s": "s", "waited_s": "s", "setup_wall_s": "s", f"{plan.work_unit}_per_s": "1/s",
             "error_rate": "ratio"}
    for name, value in {**metrics, **{k: v for k, v in extra.items() if k != "profile"}}.items():
        unit = units.get(name, "")
        print(f"{name:40s} {value} {unit}".rstrip())
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
