"""End-to-end benchmark of the qnetcap command line, one workload per run.

    python3 perfbench/run.py --workload lattice-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The program under test is
``src/qnetcap`` of that checkout, started as ``python -m qnetcap.cli`` with
``PYTHONPATH=src``.

``--trace 0`` is the untraced run: a single client in a closed loop starts
one CLI subprocess at a time, waits for it, and times it, interpreter start
and import included. It prints the end-to-end metrics. ``--trace 1`` replays
the same calls in-process with spans around each layer's public functions
(see ``tracing.py``) and prints the per-layer metrics instead.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it are notes (machine facts, input hashes, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
from workloads import WORKLOADS, Call, hetero_networks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
# The tail percentile keeps this many samples beyond it.
TAIL_BEYOND = 10
# A hung call is killed after this long; no new pass starts after
# MAX_MEASURE_S, so a run ends well inside three minutes.
CALL_TIMEOUT_S = 100.0
MAX_MEASURE_S = 100.0
# The speed probe: a fresh isolated interpreter importing a fixed set of
# standard-library packages. Like a CLI call it is dominated by interpreter
# start and module import, and nothing in the checkout can change it.
# Reported timings are scaled to a machine on which it takes PROBE_REF_S.
PROBE_ARGV = ("-I", "-c", "import json, decimal, email.parser, http.client, xml.dom.minidom")
PROBE_REF_S = 0.1
SPEED_WINDOW = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict, tmpdir: Path) -> tuple[float, int, str, int]:
    """Run one child to completion: (wall seconds, exit code, stderr, peak RSS in KiB)."""
    with tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", errors="replace")
    return seconds, proc.returncode, text, usage.ru_maxrss


def run_call(call: Call, env: dict, tmpdir: Path) -> checks.Outcome:
    seconds, code, stderr, rss = spawn([sys.executable, "-m", "qnetcap.cli", *call.argv], env, tmpdir)
    return checks.Outcome(call.id, call.kind, call.out, code, stderr, seconds, rss)


def warm_up(env: dict, tmpdir: Path) -> None:
    """One import before any timed call, so byte-code and page caches are filled."""
    _, code, stderr, _ = spawn([sys.executable, "-c", "import qnetcap.cli"], env, tmpdir)
    if code != 0:
        raise RuntimeError(f"cannot import qnetcap.cli from {ROOT / 'src'}:\n{stderr}")


def setup(workload, workdir: Path, seed: int, env: dict) -> tuple[Path, dict]:
    """Write the inputs and warm the caches; returns (inputs dir, {file: sha256})."""
    inputs = workdir / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    files = workload.setup(inputs, seed)
    warm_up(env, workdir)
    return inputs, files


def passes_for(workload, seconds: int) -> int:
    """Fixed pass count: about ``seconds`` of calls at the recorded pass time,
    and enough calls for a tail percentile with TAIL_BEYOND beyond it."""
    least = -(-(TAIL_BEYOND + 1) // workload.calls_per_pass)
    return max(least, round(seconds / workload.nominal_pass_s))


def scale(times: list[float], probes: list[float]) -> list[float]:
    """Each call time divided by the local machine speed.

    On a shared host the speed of every process drifts by tens of percent
    over minutes. The local speed of call i is the median of the probes taken
    before calls i - SPEED_WINDOW .. i + SPEED_WINDOW, over PROBE_REF_S.
    """
    w = SPEED_WINDOW
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, i - w):i + w + 1])
        for i, t in enumerate(times)
    ]


def per_pass(times: list[float], sizes: list[int]) -> list[float]:
    """Summed call time of each pass."""
    sums, i = [], 0
    for n in sizes:
        sums.append(sum(times[i:i + n]))
        i += n
    return sums


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def load_reference(workload_name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload_name]


def judge_all(workload, outcomes: list[checks.Outcome]) -> tuple[dict, list[str]]:
    """Counts and notes for a list of call outcomes."""
    reference = load_reference(workload.name)
    oracles = {}
    for stem, net in getattr(workload, "networks", {}).items():
        oracles[f"analyze:{stem}"] = checks.Oracle.of(net)
    counts = {"attempted": 0, "failed": 0, "unexpected": 0, "byte_identical": 0}
    notes = []
    seen = set()
    for outcome in outcomes:
        verdict = checks.judge(outcome, reference.get(outcome.call_id), oracles.get(outcome.call_id))
        counts["attempted"] += 1
        counts["byte_identical"] += verdict.byte_identical
        if verdict.failed:
            counts["failed"] += 1
            counts["unexpected"] += not verdict.known
            label = "known failure" if verdict.known else "FAILED"
            line = f"{label}: {outcome.call_id}: {verdict.reason}"
            if line not in seen:
                seen.add(line)
                notes.append(line)
    return counts, notes


def probe(env: dict, tmpdir: Path) -> float:
    """Wall time of the speed probe, the yardstick of machine speed."""
    return spawn([sys.executable, *PROBE_ARGV], env, tmpdir)[0]


def measure(workload, seed: int, seconds: int, workdir: Path) -> tuple[dict, dict, list[str]]:
    env = child_env()
    setup_times, setup_probes, builds = [], [], set()
    for _ in range(SETUP_REPS):
        setup_probes.append(probe(env, workdir))
        t0 = time.perf_counter()
        inputs, files = setup(workload, workdir, seed, env)
        setup_times.append(time.perf_counter() - t0)
        builds.add(json.dumps(files, sort_keys=True))
    if len(builds) != 1:
        raise RuntimeError("the same seed built different inputs")
    rng = random.Random(seed)
    outcomes, probes, pass_sizes = [], [], []
    start = time.perf_counter()
    for p in range(passes_for(workload, seconds)):
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
        out = workdir / f"pass{p}"
        out.mkdir()
        calls = workload.ordered(inputs, out, rng)
        for call in calls:
            probes.append(probe(env, workdir))
            outcomes.append(run_call(call, env, workdir))
        pass_sizes.append(len(calls))
    counts, notes = judge_all(workload, outcomes)
    times = [o.seconds for o in outcomes]
    scaled = scale(times, probes)
    setup_speed = statistics.median(setup_probes) / PROBE_REF_S
    tail_s, tail_pct = tail(scaled)
    raw = {
        "pass_s": statistics.median(per_pass(times, pass_sizes)),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail(times)[0],
        "setup_s": statistics.median(setup_times),
    }
    metrics = {
        "pass_s": (statistics.median(per_pass(scaled, pass_sizes)), "s"),
        "call_p50_s": (statistics.median(scaled), "s"),
        "call_tail_s": (tail_s, "s"),
        "ok_rate": ((counts["attempted"] - counts["failed"]) / counts["attempted"], "ratio"),
        "peak_rss_mb": (max(o.rss_kb for o in outcomes) / 1024.0, "MiB"),
        "setup_s": (raw["setup_s"] / setup_speed, "s"),
    }
    notes = [
        f"passes: {len(pass_sizes)}, calls: {len(times)}",
        f"call_tail_s is the p{tail_pct:.1f} of {len(times)} calls ({TAIL_BEYOND} beyond it)",
        f"error_rate: {counts['failed']}/{counts['attempted']} = "
        f"{counts['failed'] / counts['attempted']:.4f} (failed calls / attempted calls)",
        f"outputs byte-identical to the reference: {counts['byte_identical']}/{counts['attempted']}",
        f"speed factor: median probe {statistics.median(probes):.4f} s over {len(probes)} "
        f"probes, reference {PROBE_REF_S} s; set-up {setup_speed:.4f} x reference",
        f"raw wall times: {json.dumps(raw)}",
        *input_notes(workload, seed, files),
        *notes,
    ]
    return metrics, counts, notes


def input_notes(workload, seed: int, files: dict) -> list[str]:
    notes = [f"seed {seed}; input sha256: {json.dumps(files, sort_keys=True)}"]
    if getattr(workload, "networks", None):
        notes.append(_second_seed_note(workload, seed))
    return notes


def _second_seed_note(workload, seed: int) -> str:
    """The generator with another seed must give other values but the same shape."""

    def shape(nets):
        return {k: (len(v["nodes"]), len(v["edges"]), v["users"], v["family"]) for k, v in nets.items()}

    def fibres(nets):
        return [e["fibre"] for v in nets.values() for e in v["edges"][:10]]

    other = hetero_networks(seed + 1)
    if shape(other) != shape(workload.networks):
        raise RuntimeError("hetero-analyze inputs change shape with the seed")
    if fibres(other) == fibres(workload.networks):
        raise RuntimeError("hetero-analyze inputs do not depend on the seed")
    return f"seed {seed + 1} gives other inputs of the same shape: {json.dumps(shape(other))}"


def machine_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qnetcap" / "cli.py").is_file():
        sys.stderr.write(f"no qnetcap sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    workload = WORKLOADS[args.workload]()
    base = ROOT / ".perfbench_run"
    workdir = base / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            metrics, counts, notes = tracing.traced_run(workload, args.seed, args.seconds, workdir)
        else:
            metrics, counts, notes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(f"workload {workload.name}, trace {args.trace}, machine {json.dumps(machine_facts())}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    result = {
        "correct": counts["unexpected"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
