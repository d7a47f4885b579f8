"""Traced in-process replay: per-layer time, self time and counts.

The untraced run times whole CLI processes. This run imports the package
once and replays the same calls through ``qnetcap.cli.main`` in-process, in
pairs of passes: one untraced (its total is ``cli.main_s``, and its wall time
is the base of the tracing overhead) and one traced. For the traced pass the
public functions named in ``LAYERS`` are replaced, in every qnetcap module
that holds a reference to them, by wrappers that record a span (name, start,
end, parent) in memory. A layer's self time is its spans' duration minus the
time covered by their child spans; the root span is the replay loop itself,
so the self times of all spans add up to the traced pass.

Every ``lru_cache`` in the package is cleared before each call, because each
CLI call starts with cold caches, and one untimed pass runs before the timed
pairs. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict

import checks
import run

# (module, function, span name). Both node-split directions share one span.
LAYERS = (
    ("cli", "cmd_generate", "cli.cmd_generate"),
    ("cli", "cmd_validate", "cli.cmd_validate"),
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cli", "cmd_threshold", "cli.cmd_threshold"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
    ("wrn", "generate", "wrn.generate"),
    ("network", "network_to_json", "network.network_to_json"),
    ("network", "load_network", "network.load_network"),
    ("network", "validate", "network.validate"),
    ("network", "apply_split", "network.apply_split"),
    ("bounds", "oriented_edge_bounds", "bounds.oriented_edge_bounds"),
    ("channels", "node_split_ad", "channels.node_split"),
    ("channels", "node_split_tl", "channels.node_split"),
    ("bounds", "ad_rci", "bounds.ad_rci"),
    ("bounds", "ad_squashed", "bounds.ad_squashed"),
    ("bounds", "tl_rci", "bounds.tl_rci"),
    ("bounds", "tl_ree", "bounds.tl_ree"),
    ("routing", "widest_path", "routing.widest_path"),
    ("routing", "max_flow", "routing.max_flow"),
    ("routing", "capacity_report", "routing.capacity_report"),
    ("network", "min_neighbourhood_capacity", "network.min_neighbourhood_capacity"),
    ("wrn", "threshold_report", "wrn.threshold_report"),
    ("wrn", "solve_threshold", "wrn.solve_threshold"),
    ("wrn", "bound_functions", "wrn.bound_functions"),
)
ROOT_SPAN = "trace.replay"
MAIN_SPAN = "cli.main"
BOUND_FN_SPAN = "wrn.bound_fn"
SPAN_NAMES = (ROOT_SPAN, MAIN_SPAN, *dict.fromkeys(name for _, _, name in LAYERS), BOUND_FN_SPAN)

# Inclusive span totals reported as per-layer metrics: span -> metric name.
INCLUSIVE = {
    name: f"{name}_s"
    for name in (
        "wrn.generate", "network.network_to_json", "network.load_network", "network.validate",
        "network.apply_split", "bounds.oriented_edge_bounds", "channels.node_split",
        "routing.widest_path", "routing.max_flow", "routing.capacity_report",
        "network.min_neighbourhood_capacity", "wrn.threshold_report", "wrn.solve_threshold",
    )
}
INCLUSIVE["cli.cmd_sweep"] = "cli.sweep_s"

# Per-call cost of each bound on seeded distinct arguments: (function, batch size).
MICRO = (("ad_rci", 200), ("ad_squashed", 5000), ("tl_rci", 5000), ("tl_ree", 5000))
MICRO_BATCHES = 5
# Subprocess samples for the interpreter floor and the import cost.
STARTUP_SAMPLES = 5


class Tracer:
    """Spans in flat lists; ``parent`` is an index into the same lists (-1 for none)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.graphs: list = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span; ``after(args, result)`` runs outside it and
        returns the result handed to the caller."""

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            return result if after is None else after(args, result)

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) summed per span name."""
        incl = defaultdict(float)
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            duration = self.ends[i] - self.starts[i]
            incl[self.names[i]] += duration
            if parent >= 0:
                covered[parent] += duration
        own = defaultdict(float)
        for i, name in enumerate(self.names):
            own[name] += self.ends[i] - self.starts[i] - covered[i]
        return incl, own

    def parent_name(self, idx: int) -> str | None:
        parent = self.parents[idx]
        return self.names[parent] if parent >= 0 else None


def _qnetcap_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("qnetcap") and m]


def _cache_clearers() -> list:
    clearers = {}
    for module in _qnetcap_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clearers[id(value)] = clear
    return list(clearers.values())


def _distinct_split_keys(graph) -> int:
    """Distinct (edge channel, sender internals, receiver internals) triples."""
    nodes = graph.nodes
    return len({
        (e.channel, e.fibre, nodes[e.a].recv, nodes[e.a].send, nodes[e.b].recv, nodes[e.b].send)
        for e in graph.edges
    })


class Patches:
    """Replace each layer function by a tracing wrapper wherever it is referenced."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def _after(self, name):
        t = self.tracer
        if name == "network.apply_split":
            def graph(args, result):
                t.graphs.append(args[0])
                return result
            return graph
        if name == "routing.max_flow":
            def flow(args, result):
                t.counts["routing.max_flow.flow_arcs"] += len(result.flows)
                t.counts["routing.mincut.edges"] += len(result.mincut.edges)
                return result
            return flow
        if name == "routing.widest_path":
            def hops(args, result):
                t.counts["routing.widest_path.hops"] += max(0, len(result.path) - 1)
                return result
            return hops
        if name == "wrn.bound_functions":
            def wrap_fns(args, result):
                # The solver's bound callables become spans of their own.
                lower, upper, *rest = result
                return (t.wrap(BOUND_FN_SPAN, lower), t.wrap(BOUND_FN_SPAN, upper), *rest)
            return wrap_fns
        return None

    def __enter__(self):
        modules = _qnetcap_modules()
        for module_name, func_name, span in LAYERS:
            original = getattr(importlib.import_module(f"qnetcap.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self.tracer.wrap(span, original, self._after(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.undo):
            setattr(module, attr, value)
        self.undo.clear()


def call_inprocess(main, call, clearers) -> checks.Outcome:
    """Run one CLI call through ``main(argv)``; exceptions become exit 1 with a traceback."""
    for clear in clearers:
        clear()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(list(call.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is what the CLI process would die of
        err.write(traceback.format_exc())
        code = 1
    seconds = time.perf_counter() - start
    return checks.Outcome(call.id, call.kind, call.out, code, err.getvalue(), seconds)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _startup_costs(env, tmpdir) -> tuple[float, float]:
    def median_of(argv):
        return statistics.median(run.spawn(argv, env, tmpdir)[0] for _ in range(STARTUP_SAMPLES))

    interp = median_of([sys.executable, "-c", "pass"])
    with_import = median_of([sys.executable, "-c", "import qnetcap.cli"])
    return interp, with_import - interp


def _micro(seed: int) -> dict:
    """Per-call seconds of each bound on arguments no cache has seen."""
    from qnetcap import bounds

    rng = random.Random(seed)
    result = {}
    for name, n in MICRO:
        fn = getattr(bounds, name, None)
        if fn is None:
            result[name] = 0.0
            continue
        samples = []
        for _ in range(MICRO_BATCHES):
            if name.startswith("ad_"):
                batch = [(rng.uniform(0.01, 0.99),) for _ in range(n)]
            else:
                batch = [(rng.uniform(0.05, 0.95), rng.uniform(1e-4, 0.01)) for _ in range(n)]
            start = time.perf_counter()
            for args in batch:
                fn(*args)
            samples.append((time.perf_counter() - start) / n)
        result[name] = statistics.median(samples)
    return result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "ratio" if metric.endswith("_ratio") else "count"


def _json_bytes(calls) -> int:
    total = 0
    for call in calls:
        if call.kind in ("validate", "analyze"):
            total += os.path.getsize(call.argv[call.argv.index("--in") + 1])
    return total


def _pass_metrics(tracer: Tracer, calls) -> dict:
    """Per-layer times and counts of one traced pass."""
    incl, own = tracer.totals()
    metrics = {metric: incl.get(name, 0.0) for name, metric in INCLUSIVE.items()}
    metrics.update({f"self.{name}_s": own.get(name, 0.0) for name in SPAN_NAMES})
    metrics["trace.self_sum_s"] = sum(own.values())
    metrics["network.json_bytes"] = _json_bytes(calls)
    metrics["network.apply_split.edges"] = sum(len(g.edges) for g in tracer.graphs)
    metrics["network.apply_split.distinct_keys"] = sum(_distinct_split_keys(g) for g in tracer.graphs)
    for name in ("routing.max_flow.flow_arcs", "routing.mincut.edges", "routing.widest_path.hops"):
        metrics[name] = tracer.counts.get(name, 0)
    evals = sum(
        1 for i, n in enumerate(tracer.names)
        if n == BOUND_FN_SPAN and tracer.parent_name(i) == "wrn.solve_threshold"
    )
    metrics["wrn.solve_threshold.calls"] = tracer.names.count("wrn.solve_threshold")
    metrics["wrn.solve_threshold.evals"] = evals
    metrics["wrn.bound_eval_s"] = incl.get("wrn.solve_threshold", 0.0) / evals if evals else 0.0
    return metrics


def traced_run(workload, seed: int, seconds: int, workdir):
    env = run.child_env()
    inputs, files = run.setup(workload, workdir, seed, env)
    interp_s, import_s = _startup_costs(env, workdir)

    sys.path.insert(0, str(run.ROOT / "src"))
    cli = importlib.import_module("qnetcap.cli")
    clearers = _cache_clearers()
    rng = random.Random(seed)
    per_pass = defaultdict(list)
    outcomes = []
    reference = run.load_reference(workload.name)
    # One untimed pass first: the first in-process pass pays one-off costs
    # (lazy imports, heap growth) that later passes do not, so that both
    # timed passes of a pair start warm. Every CLI process pays them; they
    # show as the gap between trace.cli_pass_model_s and the raw pass time
    # of the untraced run.
    warm = workdir / "warm"
    warm.mkdir()
    for call in workload.ordered(inputs, warm, random.Random(seed)):
        call_inprocess(cli.main, call, clearers)
    start = time.perf_counter()
    pair_s = 0.0
    p = 0
    while p == 0 or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        order_seed = rng.getrandbits(32)
        plain_out, traced_out = workdir / f"plain{p}", workdir / f"traced{p}"
        plain_out.mkdir()
        traced_out.mkdir()
        plain = workload.ordered(inputs, plain_out, random.Random(order_seed))
        traced_calls = workload.ordered(inputs, traced_out, random.Random(order_seed))
        tracer = Tracer()
        results, untraced = _timed(lambda: [call_inprocess(cli.main, c, clearers) for c in plain])
        main = tracer.wrap(MAIN_SPAN, cli.main)
        with Patches(tracer):
            traced_results, traced = _timed(tracer.wrap(
                ROOT_SPAN, lambda: [call_inprocess(main, c, clearers) for c in traced_calls]
            ))
        outcomes += results + traced_results
        per_pass["cli.outputs_byte_identical"].append(sum(
            checks.judge(o, reference.get(o.call_id), None).byte_identical for o in traced_results
        ))

        for name, value in _pass_metrics(tracer, traced_calls).items():
            per_pass[name].append(value)
        per_pass["cli.main_s"].append(sum(o.seconds for o in results))
        per_pass["trace.pass_s"].append(traced)
        per_pass["trace.untraced_pass_s"].append(untraced)
        pair_s = time.perf_counter() - pair_start
        p += 1

    med = {name: statistics.median(values) for name, values in per_pass.items()}
    n_calls = workload.calls_per_pass
    model = n_calls * (interp_s + import_s) + med["cli.main_s"]
    overhead = med["trace.pass_s"] - med["trace.untraced_pass_s"]
    med.update({
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        **{f"bounds.{name}_s": value for name, value in _micro(seed).items()},
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / med["trace.untraced_pass_s"],
        "trace.cli_pass_model_s": model,
    })
    metrics = {name: (value, _unit(name)) for name, value in sorted(med.items())}
    counts, notes = run.judge_all(workload, outcomes)
    own_total = med["trace.self_sum_s"]
    shares = sorted(
        ((med[f"self.{name}_s"], name) for name in SPAN_NAMES), reverse=True
    )
    notes = [
        f"traced passes: {p}, calls per pass: {n_calls}",
        f"tracing overhead: {overhead:.4f} s on an untraced in-process pass of "
        f"{med['trace.untraced_pass_s']:.4f} s; CLI pass model "
        f"{n_calls} x ({interp_s:.4f} + {import_s:.4f}) + {med['cli.main_s']:.4f} = {model:.4f} s",
        f"self times sum to {own_total:.4f} s of a {med['trace.pass_s']:.4f} s traced pass",
        "self-time breakdown: " + ", ".join(
            f"{name} {value:.4f} s ({value / own_total:.1%})" for value, name in shares if value > 0
        ),
        *run.input_notes(workload, seed, files),
        *notes,
    ]
    return metrics, counts, notes
