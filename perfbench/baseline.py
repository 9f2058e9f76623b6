"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads mc-rank4,...] [--trace 0|1] [--out FILE]

Each run is ``run.py`` in its own interpreter with the run length of
BENCHMARK.json.  For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the quartile spread as a share
of the median, and flags a spread above a third of the metric's bound.  With
``--out`` the summary, the raw values and the machine are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run([sys.executable] + cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["steady"] = spread < bound / 3.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    report: dict = {"run_seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        raw: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seed_list(args.seeds):
            result, detail = run_once(workload, seed, args.trace)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "tasks": detail["tasks"],
                         "tail_percentile": detail.get("tail_percentile"), "errors": detail["errors"]})
            report["machine"] = detail["machine"]
            print(json.dumps(runs[-1]), flush=True)
            for name, m in result["metrics"].items():
                raw.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {name: {"unit": units[name], **summarize(v, bounds.get(name))} for name, v in raw.items()}
        for name, s in summary.items():
            flag = "" if s.get("steady", True) else "  SPREAD ABOVE BOUND/3"
            print(f"{workload:15s} {name:42s} median {s['median']:.6g} {s['unit']:10s} spread {s['spread']:.4f}{flag}",
                  flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": summary, "values": raw}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
