"""chitomo benchmark: closed-loop CLI tasks, end to end or traced per layer.

    python3 perfbench/run.py --workload mc-rank4 --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the workload untraced for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs every task twice,
untraced and with every public function of the traced modules wrapped (see
spans.py), and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries sample counts, wall-clock values,
check messages and the machine.  Scratch files go to ``.perfbench/`` under
the root; the spans of traced runs and a log of results stay there.

Times are reported in reference seconds.  On a shared 2-vCPU virtual machine
(Xeon, 2.1 GHz) the same work ran up to 1.9x slower from one run to the next,
and speed changed within a run from one second to the next.  So a fixed
calibration kernel (numpy and
interpreter work of the kind chitomo does) is timed before and after every
task and, in untraced runs, every PROBE_PERIOD_S during it from a SIGALRM
handler; the probes' own time is taken out of the task's wall time, and the
result is scaled by CAL_REF_S over the mean probe time.  On repeated
identical tasks this cut the spread of 20 s means from 15 % to 3 %.
"""

from __future__ import annotations

import os

# Serial run: pin the BLAS pool before numpy is imported (an explicit setting
# in the environment wins).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Nominal time of calibration_kernel() on the reference machine (2-vCPU
# Xeon at 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS on one thread).
CAL_REF_S = 1.4e-3
PROBE_PERIOD_S = 0.05

if not (SRC / "chitomo" / "__init__.py").is_file():
    sys.exit(f"perfbench: no chitomo package under {SRC}; run from the repository root")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import chitomo.cli  # noqa: E402,F401  (tasks call it through sys.modules)
from spans import Tracer, installed_wrappers  # noqa: E402
from workloads import CheckFailed, make_workloads  # noqa: E402

_CAL_RNG = np.random.default_rng(12345)
_CAL_OPS = _CAL_RNG.standard_normal((20, 4, 4)) + 1j * _CAL_RNG.standard_normal((20, 4, 4))
_CAL_C = _CAL_RNG.standard_normal((4, 4)) + 0j
_CAL_F = _CAL_RNG.standard_normal((32, 32))
_CAL_F = _CAL_F @ _CAL_F.T + 32.0 * np.eye(32)
_CAL_G = _CAL_RNG.standard_normal(32)


def calibration_kernel() -> float:
    """Fixed work shaped like chitomo's: small einsums, a 32x32 solve, a 4x4
    eigendecomposition and a short interpreted loop."""
    acc = 0.0
    for _ in range(30):
        lam = np.einsum("mij,ir,jr->m", _CAL_OPS, _CAL_C.conj(), _CAL_C).real
        acc += float(np.linalg.solve(_CAL_F, _CAL_G)[0])
        acc += float(np.linalg.eigvalsh(_CAL_OPS[0] + _CAL_OPS[0].conj().T)[0])
        for row in range(16):
            acc += math.sqrt(abs(lam[row]) + row)
    return acc


def calibrate() -> float:
    """Median of three timed calibration kernels, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Machine speed around and during each timed task.

    ``during()`` wraps a task; with ``interior`` set, a SIGALRM handler times
    one calibration kernel every PROBE_PERIOD_S.  ``finish()`` then returns the
    task's speed factor: the mean kernel time
    (probes before and after the task included, preemption outliers above
    three times the median dropped) over CAL_REF_S.
    """

    def __init__(self, interior: bool) -> None:
        self.interior = interior
        self.samples: list[float] = []
        self._last = calibrate()

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def during(self):
        self.samples = []
        if not self.interior:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def finish(self) -> float:
        before, self._last = self._last, calibrate()
        probes = [before, self._last] + self.samples
        cut = 3.0 * statistics.median(probes)
        return statistics.mean(p for p in probes if p < cut) / CAL_REF_S


def tail(values, pct: float) -> tuple[float, float]:
    """The ``pct`` percentile, or the highest lower percentile of LADDER that
    has at least ten samples beyond it; the maximum when none has."""
    v = np.asarray(values, dtype=float)
    for p in [pct] + [p for p in LADDER if p < pct]:
        q = float(np.percentile(v, p))
        if p < 100.0 and int(np.sum(v > q)) >= 10:
            return p, q
    return 100.0, float(v.max())


def run_task(task, task_dir: Path, probe: SpeedProbe) -> tuple[float, list[int], Path, list[str]]:
    """Write the task's configs, run its commands in process, return the wall
    time of the commands (probes excluded), their exit codes, the output
    directory and the exceptions that escaped ``main`` (exit code -1)."""
    out = task_dir / "out"
    out.mkdir(parents=True)
    argvs = []
    for j, (command, config) in enumerate(task.steps):
        argv = [command, "--out", str(out), "--threads", "1"]
        if config is not None:
            path = task_dir / f"config{j}.json"
            path.write_text(json.dumps(config).replace("{out}", str(out)))
            argv += ["--config", str(path)]
        argvs.append(argv)
    sink = io.StringIO()
    cli = sys.modules["chitomo.cli"]
    codes, crashes = [], []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        with probe.during():
            for argv in argvs:
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # a crash is a failed task, not the end of the run
                    codes.append(-1)
                    crashes.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed - sum(probe.samples), codes, out, crashes


class Run:
    """One benchmark run: every task executed, its checks and what it wrote."""

    def __init__(self, workload, seed: int, work: Path, probe: SpeedProbe) -> None:
        self.workload, self.seed, self.work, self.probe = workload, seed, work, probe
        self.executed: list[dict] = []
        self.errors: list[str] = []
        self.hashes: dict[str, dict] = {}
        self.bytes_written = 0

    def execute(self, index: int, label: str) -> dict:
        """Run, time and check one task; compare its files with any earlier
        task of the same key."""
        task = self.workload.task(self.seed, index)
        task_dir = self.work / f"{label}{index}"
        seconds, codes, out, crashes = run_task(task, task_dir, self.probe)
        rec = {"index": index, "seconds": seconds, "ref_seconds": seconds / self.probe.finish(),
               "units": task.units, "failed_units": task.units, "solves": 0, "outcome": None, "hard": bool(crashes)}
        self.errors.extend(f"task {index}: {c}" for c in crashes)
        try:
            outcome = self.workload.check(task, out, codes)
            rec.update(failed_units=outcome.failed_units, solves=outcome.solves, outcome=outcome)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.errors.append(f"task {index}: {type(exc).__name__}: {exc}")
            rec["hard"] = True
        files = sorted(out.iterdir())
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        self.bytes_written += sum(p.stat().st_size for p in files)
        if self.hashes.setdefault(task.key, hashes) != hashes:
            self.errors.append(f"task {index}: outputs differ from an earlier task with the same config and seed")
            rec["hard"] = True
        shutil.rmtree(task_dir)
        self.executed.append(rec)
        return rec

    def summary(self, records: list[dict]) -> dict:
        outcomes = [r["outcome"] for r in records if r["outcome"] is not None]
        units = sum(r["units"] for r in records)
        failed_units = sum(r["failed_units"] for r in records)
        message = self.workload.check_run(outcomes) if outcomes else None
        if message:
            # A pooled statistical check covers every replication of the run.
            # It can fail by chance, so it is not a hard error.
            failed_units = units
        return {"units": units, "failed_units": failed_units, "run_check": message}


def setup_seconds(workload) -> tuple[float, float]:
    """A fresh interpreter importing chitomo.cli and building the workload's
    truth and protocol: median over SETUP_REPEATS of (reference, wall) seconds."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport chitomo.cli\n" + workload.setup_code
    ref, wall = [], []
    probe = SpeedProbe(interior=False)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        ref.append(wall[-1] / probe.finish())
    return statistics.median(ref), statistics.median(wall)


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        info["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = "unknown"
    return info


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timing(records: list[dict], key: str, tail_pct: float) -> dict:
    seconds = [r[key] for r in records]
    pct, tail_s = tail(seconds, tail_pct)
    return {"reconstructions_per_s": sum(r["solves"] for r in records) / sum(seconds),
            "task_p50_ms": 1e3 * statistics.median(seconds), "task_tail_ms": 1e3 * tail_s, "tail_percentile": pct}


def untraced_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Closed loop until ``seconds`` have elapsed (at least one task), then
    task 0 once more to check determinism unless a task already repeated it."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(run.execute(len(records), "task"))
    wall_s = time.perf_counter() - start
    if len({run.workload.task(run.seed, r["index"]).key for r in records}) == len(records):
        run.execute(0, "repeat")
    counts = run.summary(records)
    tail_pct = run.workload.tail_pct
    ref, wall = timing(records, "ref_seconds", tail_pct), timing(records, "seconds", tail_pct)
    setup_ref, setup_wall = setup_seconds(run.workload)
    metrics = {
        "reconstructions_per_s": metric(ref["reconstructions_per_s"], "1/s"),
        "task_p50_ms": metric(ref["task_p50_ms"], "ms"),
        "task_tail_ms": metric(ref["task_tail_ms"], "ms"),
        "ok_fraction": metric(1.0 - counts["failed_units"] / counts["units"], "ratio"),
        "setup_s": metric(setup_ref, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"tasks": len(records), "tail_percentile": ref["tail_percentile"], **counts, "measured_s": wall_s,
              "wall": {"reconstructions_per_s": wall["reconstructions_per_s"], "task_p50_ms": wall["task_p50_ms"],
                       "task_tail_ms": wall["task_tail_ms"], "setup_s": setup_wall}}
    return metrics, detail


# Per-layer metrics that are a span total per traced task: name -> (span, field, unit).
PER_TASK_SPANS = {
    "ml_engine.solve_likelihood.calls": ("ml_engine.solve_likelihood", "calls", "count/task"),
    "ml_engine.solve_likelihood.self_s": ("ml_engine.solve_likelihood", "self_s", "s/task"),
    "ml_engine.information_matrix.s": ("ml_engine.information_matrix", "s", "s/task"),
    "ml_engine.log_likelihood.s": ("ml_engine.log_likelihood", "s", "s/task"),
    "waveplate.broadband_mixed_state.calls": ("waveplate.broadband_mixed_state", "calls", "count/task"),
    "waveplate.broadband_mixed_state.s": ("waveplate.broadband_mixed_state", "s", "s/task"),
    "waveplate.plate_choi_state.calls": ("waveplate.plate_choi_state", "calls", "count/task"),
    "waveplate.plate_choi_state.s": ("waveplate.plate_choi_state", "s", "s/task"),
    "harness.build_truth.calls": ("harness.build_truth", "calls", "count/task"),
    "harness.build_truth.s": ("harness.build_truth", "s", "s/task"),
    "protocols.bn_state_protocol.calls": ("protocols.bn_state_protocol", "calls", "count/task"),
    "protocols.bn_state_protocol.s": ("protocols.bn_state_protocol", "s", "s/task"),
    "protocols.generate_counts.calls": ("protocols.generate_counts", "calls", "count/task"),
    "protocols.generate_counts.s": ("protocols.generate_counts", "s", "s/task"),
    "protocols.process_protocol.s": ("protocols.process_protocol", "s", "s/task"),
    "protocols.auxiliary_rows.s": ("protocols.auxiliary_rows", "s", "s/task"),
    "quantum_core.fidelity.calls": ("quantum_core.fidelity", "calls", "count/task"),
    "quantum_core.fidelity.s": ("quantum_core.fidelity", "s", "s/task"),
    "quantum_core.von_neumann_entropy.s": ("quantum_core.von_neumann_entropy", "s", "s/task"),
    "harness.run_mc_campaign.self_s": ("harness.run_mc_campaign", "self_s", "s/task"),
    "harness.run_mixed_state_workflow.self_s": ("harness.run_mixed_state_workflow", "self_s", "s/task"),
    "cli.main.self_s": ("cli.main", "self_s", "s/task"),
    "cli.write_json.s": ("cli.write_json", "s", "s/task"),
    "cli.matrix_from_json.s": ("cli.matrix_from_json", "s", "s/task"),
}


def per_layer(run: Run, tracer: Tracer, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced tasks; times in reference seconds."""
    k = len(traced)
    scale = sum(r["ref_seconds"] for r in traced) / sum(r["seconds"] for r in traced)
    spans = tracer.summary()
    m = {}
    for name, (span, field, unit) in PER_TASK_SPANS.items():
        value = spans.get(span, {}).get(field, 0.0) / k
        m[name] = metric(value * scale if unit == "s/task" else value, unit)

    solve = spans.get("ml_engine.solve_likelihood", {"s": 0.0, "durations": []})
    durations_ms = 1e3 * scale * np.array(solve["durations"])
    iterations = np.array([s[1] for s in tracer.solves], dtype=float)
    runs = {r for r, _ in tracer.bn_calls}
    distinct = sum(len({args for r, args in tracer.bn_calls if r == run_id}) for run_id in runs)
    m.update({
        "ml_engine.solve_likelihood.p50_ms": metric(np.median(durations_ms) if durations_ms.size else 0.0, "ms"),
        "ml_engine.solve_likelihood.tail_ms": metric(tail(durations_ms, 99.9)[1] if durations_ms.size else 0.0, "ms"),
        "ml_engine.us_per_iteration": metric(1e6 * scale * solve["s"] / max(iterations.sum(), 1.0), "us"),
        "ml_engine.iterations.total": metric(iterations.sum() / k, "count/task"),
        "ml_engine.iterations.p50": metric(np.median(iterations) if iterations.size else 0.0, "count"),
        "ml_engine.iterations.max": metric(iterations.max() if iterations.size else 0.0, "count"),
        "ml_engine.capped_solves": metric(sum(s[3] for s in tracer.solves) / k, "count/task"),
        "ml_engine.converged_ratio": metric(sum(s[2] for s in tracer.solves) / max(len(tracer.solves), 1), "ratio"),
        "protocols.bn_state_protocol.distinct_ratio": metric(distinct / max(len(tracer.bn_calls), 1), "ratio"),
        "cli.bytes_written": metric(run.bytes_written / len(run.executed), "bytes/task"),
        "trace.overhead_fraction": metric(
            sum(r["ref_seconds"] for r in traced) / sum(r["ref_seconds"] for r in plain) - 1.0, "ratio"),
    })
    return m


def traced_run(run: Run, seconds: float, workload_name: str) -> tuple[dict, dict]:
    """Each task twice, untraced and traced, alternating which goes first,
    until ``seconds`` have elapsed; the traced copy must write the same bytes."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        index = len(traced)
        for with_spans in (False, True) if index % 2 == 0 else (True, False):
            if not with_spans:
                plain.append(run.execute(index, "plain"))
                continue
            tracer.run_id = index
            tracer.install()
            try:
                traced.append(run.execute(index, "traced"))
            finally:
                tracer.remove()
    left = installed_wrappers()
    if left:
        run.errors.append(f"span wrappers left installed: {left}")
    spans_path = WORK / f"spans-{workload_name}-seed{run.seed}.csv"
    tracer.write(spans_path)
    detail = {"tasks": len(traced), "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              **run.summary(plain)}
    return per_layer(run, tracer, plain, traced), detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload and return (result line, detail)."""
    workload = make_workloads(tiny)[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        # Interior probes would land inside spans, so traced runs probe only
        # between tasks.
        run = Run(workload, seed, work, SpeedProbe(interior=not trace))
        metrics, detail = traced_run(run, seconds, name) if trace else untraced_run(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not run.errors, "attempted": len(run.executed),
              "failed": sum(r["hard"] for r in run.executed), "metrics": metrics}
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), errors=run.errors[:20],
                  machine=machine())
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(WORK / "results.jsonl", "a") as log:
        log.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
