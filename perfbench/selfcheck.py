"""Quick self-check of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs run.py --tiny with tracing off and on, and
asserts that the result line names exactly the metrics BENCHMARK.json
declares, with their units, that every output check passed, and that the
traced run's layer self times add up to no more than its traced total,
with the remainder (the tracer's own bookkeeping) small.  It then copies
only BENCHMARK.json and perfbench/ into a scratch directory and asserts that
run.py refuses to run there: non-zero exit and no result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYERS = ("roots", "engine", "oracle", "experiments", "cli")


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {set(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == declared, f"{label}: emitted metrics differ from BENCHMARK.json: "
                                       f"{sorted(set(emitted) ^ set(declared))}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")
            if trace:
                m = {name: v["value"] for name, v in result["metrics"].items()}
                layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
                total = m["trace.traced_total_s"]
                rest = total - layers - m["trace.observe_s"]
                check(layers <= total, f"{label}: layer self times {layers} exceed traced total {total}")
                check(0 <= rest <= 0.05 * total, f"{label}: {rest} s of {total} s is in no layer")
            print(f"ok  {label}")

    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0, "run.py exited 0 without the program's sources")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the program's sources")
    print("ok  refuses to run without src/")


if __name__ == "__main__":
    main()
