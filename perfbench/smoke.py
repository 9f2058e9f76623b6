"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, checks that each
result names exactly the metrics of BENCHMARK.json with their units, that the
tracing wrappers are gone after a traced run, that the stalled replication
of mc-rank2-n1e3 shows as a capped solve, that the command line prints the
result as its last line, and that the benchmark refuses to run without the
package sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spans import installed_wrappers

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_result(result: dict, detail: dict, section: str) -> None:
    assert result["correct"], detail["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (section, sorted(set(got) ^ set(expected)))
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), (name, m)


def bindings() -> dict:
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "chitomo" or name.startswith("chitomo.")
        for attr, obj in vars(module).items()
        if callable(obj)
    }


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.make_workloads())
    before = bindings()
    for name in run.make_workloads(tiny=True):
        result, detail = run.run_workload(name, seed=3, seconds=0.0, trace=False, tiny=True)
        check_result(result, detail, "end_to_end")
        assert result["metrics"]["setup_s"]["value"] > 0.0
        result, detail = run.run_workload(name, seed=3, seconds=0.0, trace=True, tiny=True)
        check_result(result, detail, "per_layer")
        assert installed_wrappers() == [], installed_wrappers()
        assert bindings() == before, "a traced binding was not restored"
        metrics = result["metrics"]
        assert metrics["ml_engine.solve_likelihood.calls"]["value"] >= 1
        if name == "mc-rank2-n1e3":
            assert metrics["ml_engine.capped_solves"]["value"] >= 1, metrics["ml_engine.capped_solves"]
        print(f"smoke: {name} ok", flush=True)

    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-roundtrip", "--seed", "5", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"], last
    print("smoke: command line ok", flush=True)

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    print("smoke: refuses to run without sources ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
