"""Per-layer replay: the workload's CLI invocations run in this process,
first plain and then with every public function of the five layers wrapped
in a timing span, so the layers are measured from outside their code.

Layers are the sievelab modules roots, engine, oracle, experiments and cli.
arith and poly have no separable entry on the hot path; their cost shows
inside engine.build_table (norm evaluation) and roots.classify_roots
(eval_poly mod l).

A span is (name, parent span, start, end).  A span's self time is its
duration less the durations of the spans it caused, and a layer's self
time is the sum over its spans, so the layers' self times plus the
tracer's own bookkeeping add up to the traced total.
"""

import contextlib
import importlib
import inspect
import io
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads

LAYERS = ("roots", "engine", "oracle", "experiments", "cli")
ALGS = ("trivial", "classical", "improved")
PHASES = ("rational", "algebraic_simple", "algebraic_multiple")
OBSERVE = "trace.observe"


class Tracer:
    """Spans kept in memory; observers read counts off return values."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.deferred: list = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if observe is not None:
                start = perf_counter()
                observe(self, args, result)
                spans.append((OBSERVE, parent, start, perf_counter()))
            return result

        return traced

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        return calls, total, own


def _observe_lift_tables(tracer: Tracer, args, result) -> None:
    stats = result.stats
    tracer.counts["roots.root_scan_evaluations"] += stats.root_scan_evaluations
    tracer.counts["roots.newton_lift_steps"] += stats.newton_lift_steps
    tracer.counts["roots.multiple_lift_tests"] += stats.multiple_lift_tests


def _observe_sieve(alg: str):
    def observe(tracer: Tracer, args, outcome) -> None:
        ledger = outcome.ledger
        tracer.counts[f"engine.{alg}.attempts"] += ledger.grand_total()
        if alg == "trivial":
            live = sum(1 for row in outcome.table.entries for v in row if v)
            # every live entry pays one failed test per prime, the rest divide
            tracer.counts["engine.trivial.failed_tests"] += live * len(workloads.primes_up_to(args[2]))
            return
        for phase in PHASES:
            tracer.counts[f"engine.{alg}.attempts_{phase}"] += ledger.phase_total(phase)
        if alg == "classical":
            tracer.counts["engine.live_cells"] += sum(1 for row in outcome.table.entries for v in row if v)

    return observe


def _observe_verify(tracer: Tracer, args, report) -> None:
    classical, _, f, u, y = args
    rows = report.rows
    tracer.counts["oracle.pairs_checked"] += len(rows)
    tracer.counts["oracle.mismatched_pairs"] += len(report.mismatches)
    tracer.counts["oracle.c_exact"] += sum(r.c_exact for r in rows)
    tracer.counts["oracle.d_exact"] += sum(r.d_exact for r in rows)
    tracer.counts["correction_total"] += report.correction_total
    # the phase comparison needs the benchmark's own set sizes: do it after the replay
    measured = {(r.b, r.l): classical.ledger.pair_phase(r.b, r.l, "rational") for r in rows}
    tracer.deferred.append((f.coefficients, f.m, u, y, measured))


OBSERVERS = {
    "roots.build_lift_tables": _observe_lift_tables,
    "engine.sieve_trivial": _observe_sieve("trivial"),
    "engine.sieve_classical": _observe_sieve("classical"),
    "engine.sieve_improved": _observe_sieve("improved"),
    "oracle.verify_ledgers": _observe_verify,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each public layer function, wherever sievelab has bound it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sievelab.{layer}")
        for attr, fn in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, OBSERVERS.get(name))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname == "sievelab" or modname.startswith("sievelab."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def replay(plan: workloads.Plan) -> tuple[float, list[dict], list[str]]:
    """Run every invocation through cli.main in this process.

    Returns the summed time inside cli.main, the checked facts, and the
    failures (exit code or check)."""
    import sievelab.cli

    elapsed, facts, failures = 0.0, [], []
    for inv in plan.invocations:
        buffer = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = sievelab.cli.main(inv.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed invocation; keep measuring the rest
            traceback.print_exc()
            code = "exception"
        elapsed += perf_counter() - start
        if code != 0:
            failures.append(f"{inv.argv[0]}: exit {code}")
            continue
        try:
            facts.append(inv.check(workloads.parse_summary(buffer.getvalue()), inv.out))
        except workloads.CheckFailed as exc:
            failures.append(str(exc))
    return elapsed, facts, failures


def _phase_mismatches(plan: workloads.Plan, deferred: list) -> int:
    """Classical (b, l) pairs whose rational-phase attempts differ from
    rational[0] + sum(rational), the cost of stripping a - b*m alone."""
    count = 0
    for coeffs, m, u, y, measured in deferred:
        expected = plan.expected_rational_for(list(coeffs), m, u, y)
        count += sum(1 for pair, n in measured.items() if n != expected[pair])
    return count


def layer_metrics(plan: workloads.Plan, tracer: Tracer, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced replay, and the per-function profile."""
    calls, total, own = tracer.self_times()
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in own.items() if k.startswith(layer + ".")), 0.0)
    m["trace.observe_s"] = own.get(OBSERVE, 0.0)
    m["trace.traced_total_s"] = traced_s
    m["trace.untraced_total_s"] = untraced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.unattributed_s"] = traced_s - sum(own.values())

    m["roots.build_lift_tables_s"] = total.get("roots.build_lift_tables", 0.0)
    m["roots.classify_roots_s"] = total.get("roots.classify_roots", 0.0)
    m["roots.classify_roots_calls"] = calls.get("roots.classify_roots", 0)
    for key in ("root_scan_evaluations", "newton_lift_steps", "multiple_lift_tests"):
        m[f"roots.{key}"] = c[f"roots.{key}"]

    for fn in ("sample_poly", "monte_carlo", "enumerate_exact", "run_comparison", "ratio_sweep"):
        m[f"experiments.{fn}_s"] = total.get(f"experiments.{fn}", 0.0)

    m["engine.build_table_s"] = total.get("engine.build_table", 0.0)
    m["engine.build_table_calls"] = calls.get("engine.build_table", 0)
    m["engine.live_cells"] = c["engine.live_cells"]
    for alg in ALGS:
        span = f"engine.sieve_{alg}"
        attempts = c[f"engine.{alg}.attempts"]
        m[f"engine.{alg}_s"] = total.get(span, 0.0)
        m[f"engine.{alg}_self_s"] = own.get(span, 0.0)
        m[f"engine.{alg}.attempts"] = attempts
        m[f"engine.{alg}.attempts_per_s"] = attempts / own[span] if own.get(span) else 0.0
    for alg in ("classical", "improved"):
        for phase in PHASES:
            m[f"engine.{alg}.attempts_{phase}"] = c[f"engine.{alg}.attempts_{phase}"]
    trivial = c["engine.trivial.attempts"]
    m["engine.trivial.hit_rate"] = (trivial - c["engine.trivial.failed_tests"]) / trivial if trivial else 0.0
    d_exact, c_exact = c["oracle.d_exact"], c["oracle.c_exact"]
    m["engine.classical.hit_rate"] = d_exact / c_exact if c_exact else 0.0
    m["engine.improved.hit_rate"] = d_exact / (d_exact + c["correction_total"]) if d_exact else 0.0

    verify_s = total.get("oracle.verify_ledgers", 0.0)
    m["oracle.verify_ledgers_s"] = verify_s
    m["oracle.pairs_checked"] = c["oracle.pairs_checked"]
    m["oracle.pairs_per_s"] = c["oracle.pairs_checked"] / verify_s if verify_s else 0.0
    m["oracle.mismatched_pairs"] = c["oracle.mismatched_pairs"]
    m["oracle.classical_phase_mismatches"] = _phase_mismatches(plan, tracer.deferred)

    m["cli.main_s"] = total.get("cli.main", 0.0)
    classical = c["engine.classical.attempts"]
    m["attempts_improved"] = c["engine.improved.attempts"]
    m["improved_over_classical"] = c["engine.improved.attempts"] / classical if classical else 0.0
    m["correction_total"] = c["correction_total"]
    m["spans"] = len(tracer.spans)
    return m, {name: (calls[name], total[name], own[name]) for name in calls}


def measure(plan: workloads.Plan, seconds: float, src: Path) -> dict:
    """Rounds of (plain replay, traced replay) until `seconds` have passed."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sievelab

    if Path(sievelab.__file__).resolve().parent != (src / "sievelab").resolve():
        raise RuntimeError(f"imported sievelab from {sievelab.__file__}, not from {src}")

    rounds, failures, attempted = [], [], 0
    begin, round_s = perf_counter(), 0.0
    while not rounds or perf_counter() - begin + round_s <= seconds:  # room for one more round
        round_start = perf_counter()
        untraced_s, plain_facts, plain_failures = replay(plan)
        tracer = Tracer()
        with installed(tracer):
            traced_s, facts, traced_failures = replay(plan)
        attempted += 2 * len(plan.invocations)
        failures += plain_failures + traced_failures
        metrics, profile = layer_metrics(plan, tracer, traced_s, untraced_s)
        traced_facts = workloads.aggregate_facts(facts)
        metrics["cli.rows_written"] = traced_facts.get("rows_written", 0)
        round_s = perf_counter() - round_start
        rounds.append({"metrics": metrics, "profile": profile, "facts": traced_facts,
                       "plain_facts": workloads.aggregate_facts(plain_facts)})
    return {"rounds": rounds, "attempted": attempted, "failures": failures, "version": sievelab.__version__}
