"""The benchmark's set-up code runs against the package as it is.

``perfbench/run.py`` times each workload's ``setup_code`` in a fresh
interpreter as the ``setup_s`` metric, so an API change that breaks that code
would otherwise show only when the benchmark runs.  These tests run the same
code the same way; they only read ``perfbench/workloads.py``.
"""

from __future__ import annotations

import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _setup_codes() -> dict[str, str]:
    # the workloads module, executed from its source (no bytecode is written
    # next to it), then its set-up codes; workloads sharing one run it once
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    names: dict[str, list[str]] = {}
    for name, workload in sorted(module.make_workloads().items()):
        names.setdefault(workload.setup_code, []).append(name)
    return {"+".join(group): code for code, group in names.items()}


SETUP_CODES = _setup_codes()


@pytest.mark.parametrize("workloads", sorted(SETUP_CODES))
def test_setup_code_runs_in_fresh_interpreter(workloads):
    # the prefix perfbench/run.py puts before every set-up code
    code = (
        f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\nimport chitomo.cli\n"
        + SETUP_CODES[workloads]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, timeout=120, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
