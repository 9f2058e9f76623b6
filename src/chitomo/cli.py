"""Command-line interface.

Subcommands: plate-chi, protocol-dump, gen-data, reconstruct, mc, scaling,
mixed-workflow, fit-retarder.  ``COMMANDS`` maps each one to its frozen
config class and its runner ``run(config, out_dir)``.  A command reads one
JSON config into that class (omitted keys take the class defaults; an
unknown key, such as the retired ``auxiliary_weight``, a wrongly typed field
or an event count outside 1..2**53 exits 2), echoes the resolved config and
its hash to stdout once the config has passed its checks, and writes
machine-readable outputs into --out; ``mc``, ``scaling`` and
``mixed-workflow`` also write the hash into their reports.  The auxiliary
rows weigh ``protocols.AUXILIARY_WEIGHT``, which ``data.json`` records.  JSON
files are written by ``write_json``.  A ``--config`` file, or an input file
that a config names (``data_path``, ``chi_path``), that is not the JSON
object the command reads exits 2, naming the file (and the field); so does a
``truth_choi`` or fit-retarder ``matrix`` that is not a finite, Hermitian,
PSD matrix of positive trace, and a ``data.json`` row whose exposure or
count is a string, a bool or null or whose is_auxiliary is not a bool.
One reader, ``_input_matrix``, reads every matrix of an input file.
``gen-data`` flags the rows after the protocol's own as ``is_auxiliary``;
``reconstruct`` checks the flags but fits every row alike.  Identical
config + seed gives byte-identical output files.  Every command runs in one
process; ``--threads`` is still accepted (>= 1) and changes nothing, because
the benchmark runner (``perfbench/run.py``) passes ``--threads 1`` to every
command it runs.

Exit codes: 0 full success, 1 a failed solve (a failed replication in
``mc`` or ``scaling``, a ``reconstruct`` or ``mixed-workflow`` solve stopped
at the iteration cap), 2 bad config or input, 3 refused precondition (e.g.
retarder fit on a mixed process).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    REPLICATION_FIELDS,
    CampaignConfig,
    EstimateTooMixedError,
    MixedWorkflowConfig,
    PlateSpec,
    ScalingConfig,
    TruthSpec,
    build_truth,
    run_mc_campaign,
    run_mixed_state_workflow,
    run_retarder_fit,
    run_scaling_study,
)
from .ml_engine import ReconstructionConfig, solve_likelihood
from .protocols import (
    AUXILIARY_WEIGHT,
    LAMBDA_DEFAULT_UM,
    Config,
    Measurements,
    ProcessProtocolName,
    check_event_count,
    process_datasets,
    process_protocol,
)
from .quantum_core import fidelity, hermitian_eig
from .waveplate import check_quartz_window, plate_choi_state


@dataclass(frozen=True)
class ProtocolDumpConfig(Config):
    protocol: ProcessProtocolName = "R4"
    central_lam_um: float = LAMBDA_DEFAULT_UM

    def __post_init__(self) -> None:
        super().__post_init__()
        # B4 builds its states at the wavelength, and every protocol records it
        try:
            check_quartz_window(np.array([self.central_lam_um]))
        except ValueError as exc:
            raise ValueError(f"central_lam_um: {exc}") from None


@dataclass(frozen=True)
class GenDataConfig(Config):
    truth: TruthSpec = field(default_factory=TruthSpec)
    protocol: ProcessProtocolName = "R4"
    n_events: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_event_count(self.n_events, "n_events")


@dataclass(frozen=True, kw_only=True)
class ReconstructConfig(ReconstructionConfig):
    """The solver controls plus the ``data.json`` to read."""

    data_path: str
    rank: int = 2


@dataclass(frozen=True)
class FitRetarderConfig(Config):
    chi_path: str
    lam_um: float = LAMBDA_DEFAULT_UM
    thickness_um: float = 25400.0
    min_dominant_share: float = 0.95

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("lam_um", "thickness_um"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0 < self.min_dominant_share <= 1:
            raise ValueError(
                f"min_dominant_share must be in (0, 1], got {self.min_dominant_share!r}"
            )


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_float_repr = float.__repr__


def _json_key(key: object) -> str:
    if type(key) is str:
        return _encode_str(key)
    if type(key) is int:
        return f'"{key!r}"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


@functools.cache
def _matrix_template(shape: tuple[int, int], newline: str) -> str:
    # the text of an array of this shape as rows of [re, im] pairs whose
    # lines start with newline, with a %s for each float
    rows, cols = shape
    if not rows:
        return "[]"
    row_line = newline + "  "
    pair_line = row_line + "  "
    value_line = pair_line + "  "
    pair = "[" + value_line + "%s," + value_line + "%s" + pair_line + "]"
    row = "[" + pair_line + ("," + pair_line).join([pair] * cols) + row_line + "]" if cols else "[]"
    return "[" + row_line + ("," + row_line).join([row] * rows) + newline + "]"


def _matrix_text(a: np.ndarray, newline: str, floats: dict) -> str:
    # a 2-D numeric array as rows of [re, im] pairs; floats maps the bit
    # pattern of each float already written in the document to its text
    if a.ndim != 2 or a.dtype.kind not in "biufc":
        raise TypeError("Object of type ndarray is not JSON serializable")
    parts = np.ascontiguousarray(a, dtype=complex).view(float).ravel()
    keys = parts.view(np.uint64).tolist()
    try:
        texts = tuple(map(floats.__getitem__, keys))
    except KeyError:  # a float this document has not written yet
        for key, value in zip(keys, parts.tolist()):
            if key not in floats:
                text = _float_repr(value)
                floats[key] = _FLOAT_NAMES.get(text, text)
        texts = tuple(map(floats.__getitem__, keys))
    return _matrix_template(a.shape, newline) % texts


def _json_text(obj: object, newline: str, floats: dict) -> str:
    # json.dumps(obj, sort_keys=True, indent=2) of a value whose lines start
    # with ``newline``, built by joins instead of json's chain of generators;
    # the checks run in the order of how often chitomo writes each type
    kind = type(obj)
    if kind is float:
        text = _float_repr(obj)
        return _FLOAT_NAMES.get(text, text)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return repr(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [_json_text(value, inner, floats) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_json_key(k) + ": " + _json_text(v, inner, floats) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is np.ndarray:
        return _matrix_text(obj, newline, floats)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, float):  # a numpy float, written as its float
        return _json_text(float(obj), newline, floats)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def write_json(path: Path, obj: dict) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline,
    byte for byte (tested), for the values chitomo writes: str or int keys,
    and str, int, bool, None, float (numpy floats too), list, tuple and dict
    values, and 2-D numeric numpy arrays, each written as the list of rows
    of ``[re, im]`` pairs of its entries taken as complex numbers; any other
    type (a 1-D, 3-D or object array too) raises TypeError.  An array is
    filled into a text template cached per shape and depth, and the text of
    its floats is computed once per distinct bit pattern in the document
    (so ``-0.0`` and ``0.0`` keep their own texts).  The join-based encoder
    takes about 40 % less time than json's indenting one, and unlike json
    it does not detect circular references."""
    path.write_text(_json_text(obj, "\n", {}) + "\n")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _load_config(args: argparse.Namespace, config_class: type[Config]) -> Config:
    data: dict = {}
    if args.config:
        data = _read_input(args.config, f"--config {args.config}")
    if args.seed is not None:
        data["seed"] = args.seed
    if "seed" not in {f.name for f in fields(config_class)}:
        data.pop("seed", None)  # every command accepts a seed; some use none
    return config_class.from_dict(data)


def _echo(command: str, config: dict, out_dir: Path) -> None:
    print(
        json.dumps(
            {
                "command": command,
                "config": config,
                "config_hash": config_hash(config),
                "out": str(out_dir),
                "version": __version__,
            },
            sort_keys=True,
        )
    )


def _read_input(path: str, source: str) -> dict:
    # the JSON object in the input file at path; source ("<config field>
    # <path>") names the file in every error
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{source} must hold a JSON object, got {type(payload).__name__}")
    return payload


def _input_field(payload: dict, key: str, source: str) -> object:
    if key not in payload:
        raise ValueError(f"{source} has no field {key!r}")
    return payload[key]


def _input_matrix(value: object, source: str, name: str, ndim: int = 2) -> np.ndarray:
    # value as an ndim-D complex array, from one np.array call: its entries
    # must be JSON numbers or bools (an integer within -2**63..2**64 - 1,
    # which numpy reads as a number and rounds to a float) and its last axis
    # [re, im] pairs; any other value exits naming the file and the field
    try:
        raw = np.array(value)
    except ValueError:  # ragged: an object array, rejected below
        raw = np.array(None)
    if raw.dtype.kind not in "biuf" or raw.shape[ndim:] != (2,):
        raise ValueError(f"{source}: {name} is not a matrix of [re, im] pairs")
    return raw.astype(float).view(complex)[..., 0]


def _check_choi(choi: np.ndarray, source: str, name: str) -> None:
    # a square Choi matrix read from an input file must be finite, Hermitian
    # within 1e-10, PSD by the rule of fidelity and of positive trace
    if not np.isfinite(choi).all():
        raise ValueError(f"{source}: {name} has non-finite entries")
    defect = np.max(np.abs(choi - choi.conj().T))
    if defect > 1e-10:
        raise ValueError(f"{source}: {name} is not Hermitian: defect {defect:.3e}")
    w_min = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]
    if w_min < -1e-10:
        raise ValueError(f"{source}: {name} is not PSD: min eigenvalue {w_min:.3e}")
    trace = choi.trace().real
    if not trace > 0:
        raise ValueError(f"{source}: {name} has trace {trace:.3e}, not a positive one")


def _input_truth(value: object, source: str, shape: tuple[int, int]) -> np.ndarray:
    # a data.json's truth_choi, of the data's shape
    truth = _input_matrix(value, source, "truth_choi")
    if truth.shape != shape:
        raise ValueError(f"{source}: truth_choi has shape {truth.shape}, the data's {shape}")
    _check_choi(truth, source, "truth_choi")
    return truth


def _write_chi(path: Path, matrix: np.ndarray, normalization: str) -> None:
    write_json(
        path,
        {
            "dim": int(matrix.shape[0]),
            "normalization": normalization,
            "matrix": matrix,
        },
    )


def cmd_plate_chi(config: PlateSpec, out_dir: Path) -> int:
    choi = plate_choi_state(config.plate(), config.profile)
    w, _ = hermitian_eig(choi)
    _write_chi(out_dir / "chi.json", choi, "choi")
    print("choi eigenvalues:", " ".join(f"{x:.6f}" for x in w))
    for row in choi:
        print("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return 0


def cmd_protocol_dump(config: ProtocolDumpConfig, out_dir: Path) -> int:
    proto = process_protocol(config.protocol, config.central_lam_um)
    # a process protocol measures the projectors of its input states
    states = [s.reshape(1, -1) for s in proto.input_states]
    write_json(
        out_dir / "protocol.json",
        {
            "protocol": config.protocol,
            "central_lam_um": config.central_lam_um,
            "input_states": states,
            "projectors": states,
            "rows": [
                {"operator": op, "exposure": t}
                for op, t in zip(proto.rows.operators, proto.rows.exposures.tolist())
            ],
        },
    )
    return 0


def _rows_to_json(data: Measurements, n_measured: int) -> list[dict]:
    # the columns as Python floats and ints, the rows from n_measured on
    # flagged auxiliary; counts are whole and far below 2**63, so the int64
    # cast truncates nothing
    counts = data.counts.astype(np.int64)
    columns = enumerate(zip(data.operators, data.exposures.tolist(), counts.tolist()))
    return [
        {"operator": op, "exposure": t, "count": k, "is_auxiliary": j >= n_measured}
        for j, (op, t, k) in columns
    ]


_ROW_FIELDS = ("operator", "exposure", "count", "is_auxiliary")


def _rows_from_json(rows: object, source: str) -> Measurements:
    # the rows of a data.json; every error names the file (source) and the
    # field.  is_auxiliary is checked, not kept: every row is fitted alike
    if not isinstance(rows, list):
        raise ValueError(f"{source}: rows must be a list of row objects, got {type(rows).__name__}")
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{source}: rows[{j}] must be a JSON object, got {type(row).__name__}")
        missing = [key for key in _ROW_FIELDS if key not in row]
        if missing:
            raise ValueError(f"{source}: rows[{j}] has no field {missing[0]!r}")
        for key in ("exposure", "count"):
            if type(row[key]) not in (int, float):
                raise ValueError(f"{source}: rows[{j}].{key} must be a number, got {type(row[key]).__name__}")
        if type(row["is_auxiliary"]) is not bool:
            kind = type(row["is_auxiliary"]).__name__
            raise ValueError(f"{source}: rows[{j}].is_auxiliary must be true or false, got {kind}")
    try:
        operators = _input_matrix([row["operator"] for row in rows], source, "rows", 3)
    except ValueError:
        # read alone, the first malformed operator names its row; operators
        # that each read are left to the record, which names their shapes
        operators = [
            _input_matrix(row["operator"], source, f"rows[{j}].operator") for j, row in enumerate(rows)
        ]
    try:
        return Measurements(operators, [row["exposure"] for row in rows], [row["count"] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{source}: rows: {exc}") from None


def cmd_gen_data(config: GenDataConfig, out_dir: Path) -> int:
    truth = build_truth(config.truth)
    proto = process_protocol(config.protocol, config.truth.lam0_um)
    data = process_datasets(proto, truth, config.n_events, [config.seed]).lanes(0)
    write_json(
        out_dir / "data.json",
        {
            "protocol": config.protocol,
            "dim": 4,
            "n_events": config.n_events,
            "seed": config.seed,
            "auxiliary_weight": AUXILIARY_WEIGHT,
            "truth_choi": truth,
            "rows": _rows_to_json(data, len(proto.rows.operators)),
        },
    )
    return 0


def cmd_reconstruct(config: ReconstructConfig, out_dir: Path) -> int:
    source = f"data_path {config.data_path}"
    payload = _read_input(config.data_path, source)
    data = _rows_from_json(_input_field(payload, "rows", source), source)
    truth = None
    if "truth_choi" in payload:
        truth = _input_truth(payload["truth_choi"], source, data.operators.shape[1:])
    res = solve_likelihood(data, config)
    _write_chi(out_dir / "estimate.json", res.estimate, "choi")
    summary = {
        "rank": res.rank,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "residual": res.residual,
        "log_likelihood": res.log_likelihood,
        "normalization_gap": res.normalization_gap,
        "tp_residual": res.tp_residual,
        "nu": res.nu,
        "info_spectrum": res.info_spectrum.tolist(),
    }
    if truth is not None:
        summary["fidelity_vs_truth"] = fidelity(truth, res.estimate)
    write_json(out_dir / "result.json", summary)
    return 0 if res.converged else 1


def _write_campaign(out_dir: Path, result) -> None:
    write_json(
        out_dir / "result.json",
        {
            "mean_loss": result.mean_loss,
            "failures": result.failures,
            "failure_reasons": {str(i): text for i, text in result.failure_reasons.items()},
            "n_failures": len(result.failures),
            "nu": result.nu,
            "info_modes_above_cut": result.info_modes_above_cut,
            "info_spectrum": result.info_spectrum.tolist(),
            "metadata": {**result.metadata, "config_hash": config_hash(result.metadata["config"])},
        },
    )
    lines = ["replication,fidelity"]
    for i, f in enumerate(result.fidelities):
        lines.append(f"{i},{repr(float(f))}")
    (out_dir / "fidelities.csv").write_text("\n".join(lines) + "\n")
    solve_fields = REPLICATION_FIELDS[1:]
    lines = [",".join(("replication", "seed", "fidelity", *solve_fields))]
    for i, (f, rep) in enumerate(zip(result.fidelities, result.replications)):
        # str(float) is repr(float)
        cells = (i, rep["seed"], float(f), *(rep[key] for key in solve_fields))
        lines.append(",".join(map(str, cells)))
    (out_dir / "replications.csv").write_text("\n".join(lines) + "\n")
    hist = result.histogram
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(hist["bin_left"], hist["bin_right"], hist["count"]):
        lines.append(f"{repr(float(left))},{repr(float(right))},{int(count)}")
    (out_dir / "histogram.csv").write_text("\n".join(lines) + "\n")


def cmd_mc(config: CampaignConfig, out_dir: Path) -> int:
    result = run_mc_campaign(config)
    _write_campaign(out_dir, result)
    return 0 if not result.failures else 1


def cmd_scaling(config: ScalingConfig, out_dir: Path) -> int:
    study = run_scaling_study(config)
    write_json(
        out_dir / "result.json",
        {
            **study,
            "per_rank": {str(k): v for k, v in study["per_rank"].items()},
            "config_hash": config_hash(config.to_dict()),
        },
    )
    lines = ["rank,n,mean_loss"]
    for rank in config.ranks:
        for n, loss in zip(config.n_list, study["per_rank"][rank]["mean_loss"]):
            lines.append(f"{rank},{n},{repr(float(loss))}")
    (out_dir / "scaling.csv").write_text("\n".join(lines) + "\n")
    failed = any(any(cell["n_failures"]) for cell in study["per_rank"].values())
    return 1 if failed else 0


def cmd_mixed_workflow(config: MixedWorkflowConfig, out_dir: Path) -> int:
    report = run_mixed_state_workflow(config)
    report["config_hash"] = config_hash(report["config"])
    write_json(out_dir / "result.json", report)
    capped = any(
        entry["stop_reason"] == "iteration_cap"
        for block in report["per_plate_count"].values()
        for entry in [block["stage1"], *block["stage2"]]
    )
    return 1 if capped else 0


def cmd_fit_retarder(config: FitRetarderConfig, out_dir: Path) -> int:
    source = f"chi_path {config.chi_path}"
    payload = _read_input(config.chi_path, source)
    choi = _input_matrix(_input_field(payload, "matrix", source), source, "matrix")
    if choi.shape != (4, 4):
        dims = "x".join(map(str, choi.shape))
        raise ValueError(
            f"chi_path {config.chi_path} holds a {dims} matrix; fit-retarder fits the "
            "4x4 Choi matrix of a one-qubit process"
        )
    _check_choi(choi, source, "matrix")
    report = run_retarder_fit(
        choi,
        lam_um=config.lam_um,
        thickness_um=config.thickness_um,
        min_dominant_share=config.min_dominant_share,
    )
    write_json(out_dir / "result.json", report)
    return 0


COMMANDS = {
    "plate-chi": (PlateSpec, cmd_plate_chi),
    "protocol-dump": (ProtocolDumpConfig, cmd_protocol_dump),
    "gen-data": (GenDataConfig, cmd_gen_data),
    "reconstruct": (ReconstructConfig, cmd_reconstruct),
    "mc": (CampaignConfig, cmd_mc),
    "scaling": (ScalingConfig, cmd_scaling),
    "mixed-workflow": (MixedWorkflowConfig, cmd_mixed_workflow),
    "fit-retarder": (FitRetarderConfig, cmd_fit_retarder),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # a constant of the program: built on the first call of main, then reused
    parser = argparse.ArgumentParser(
        prog="chitomo",
        description="Quantum process tomography of dispersive waveplates",
    )
    parser.add_argument("--version", action="version", version=f"chitomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="accepted (>= 1); no effect")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called repeatedly in one process.  Each call
    parses its own argv into a fresh namespace with the parser that the
    first call built."""
    args = _parser().parse_args(argv)
    config_class, run = COMMANDS[args.command]
    out_dir = Path(args.out)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        config = _load_config(args, config_class)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo(args.command, config.to_dict(), out_dir)
        return run(config, out_dir)
    except EstimateTooMixedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
