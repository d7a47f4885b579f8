"""Record the reference results that ``run.py`` checks outputs against.

    python3 perfbench/record.py

Runs every call of every workload once through the CLI and writes
``perfbench/reference.json``: for each call that succeeds, the sha256 of its
output bytes and a digest of its content (see ``checks.digest``); for each
call that fails, its exit code and message. hetero-analyze outputs depend on
the seed, so for them only the exit code is stored and ``checks.Oracle``
supplies the expected numbers.

Re-record only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS, HeteroAnalyze, sha256_file

RECORD_SEED = 1


def failure_message(stderr: str) -> str:
    """Last stderr line; for a traceback only the exception type, which is stable."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "Traceback (most recent call last)" in stderr:
        return last.split(":", 1)[0]
    return last


def record_workload(workload, workdir) -> dict:
    env = run.child_env()
    inputs, _ = run.setup(workload, workdir, RECORD_SEED, env)
    out = workdir / "out"
    out.mkdir()
    entries = {}
    for group in workload.groups(inputs, out):
        for call in group:
            outcome = run.run_call(call, env, workdir)
            if outcome.exit != 0 or "Traceback" in outcome.stderr:
                entries[call.id] = {"exit": outcome.exit, "message": failure_message(outcome.stderr)}
            elif isinstance(workload, HeteroAnalyze):
                entries[call.id] = {"exit": 0, "oracle": True}
            else:
                entries[call.id] = {
                    "exit": 0,
                    "sha256": sha256_file(call.out),
                    "digest": checks.digest(call.kind, call.out),
                }
            print(f"{outcome.seconds:7.3f}s exit {outcome.exit} {call.id}", file=sys.stderr)
    return entries


def main() -> int:
    reference = {}
    base = run.ROOT / ".perfbench_run" / "record"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, cls in WORKLOADS.items():
            workdir = base / name
            workdir.mkdir(parents=True)
            reference[name] = record_workload(cls(), workdir)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
