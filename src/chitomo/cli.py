"""Command-line interface.

Subcommands: plate-chi, protocol-dump, gen-data, reconstruct, mc, scaling,
mixed-workflow, fit-retarder.  ``COMMANDS`` maps each one to its frozen
config class and its runner.  A command reads one JSON config into that class
(omitted keys take the class defaults; an unknown key or a wrongly typed
field exits 2), echoes the resolved config and its hash to stdout once the
config has passed its checks, and writes machine-readable outputs into
--out.  Identical config + seed gives byte-identical output files.

Exit codes: 0 full success, 2 bad config or input, 3 refused precondition
(e.g. retarder fit on a mixed process).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
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
    LAMBDA_DEFAULT_UM,
    Config,
    ExperimentPlan,
    Measurements,
    auxiliary_rows,
    generate_counts,
    process_protocol,
)
from .quantum_core import fidelity, hermitian_eig


@dataclass(frozen=True)
class ProtocolDumpConfig(Config):
    protocol: str = "R4"
    central_lam_um: float = LAMBDA_DEFAULT_UM


@dataclass(frozen=True)
class GenDataConfig(Config):
    truth: TruthSpec = field(default_factory=TruthSpec)
    protocol: str = "R4"
    n_events: int = 10_000
    seed: int = 0
    auxiliary_weight: float = ExperimentPlan.auxiliary_weight


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


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _load_config(args: argparse.Namespace, config_class: type[Config]) -> Config:
    data: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
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


def _write_chi(path: Path, matrix: np.ndarray, normalization: str) -> None:
    write_json(
        path,
        {
            "dim": int(matrix.shape[0]),
            "normalization": normalization,
            "matrix": matrix_to_json(matrix),
        },
    )


def cmd_plate_chi(config: PlateSpec, out_dir: Path, threads: int) -> int:
    choi = build_truth(TruthSpec(**config.to_dict()))
    w, _ = hermitian_eig(choi)
    _write_chi(out_dir / "chi.json", choi, "choi")
    print("choi eigenvalues:", " ".join(f"{x:.6f}" for x in w))
    for row in choi:
        print("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return 0


def cmd_protocol_dump(config: ProtocolDumpConfig, out_dir: Path, threads: int) -> int:
    proto = process_protocol(config.protocol, config.central_lam_um)
    write_json(
        out_dir / "protocol.json",
        {
            "protocol": config.protocol,
            "central_lam_um": config.central_lam_um,
            "input_states": [matrix_to_json(s.reshape(1, -1)) for s in proto.input_states],
            "projectors": [matrix_to_json(s.reshape(1, -1)) for s in proto.projectors],
            "rows": [
                {"operator": matrix_to_json(op), "exposure": float(t)}
                for op, t in zip(proto.rows.operators, proto.rows.exposures)
            ],
        },
    )
    return 0


def _rows_to_json(data: Measurements) -> list[dict]:
    columns = zip(data.operators, data.exposures, data.counts, data.auxiliary)
    return [
        {
            "operator": matrix_to_json(op),
            "exposure": float(t),
            "count": int(k),
            "is_auxiliary": bool(a),
        }
        for op, t, k, a in columns
    ]


def _rows_from_json(rows: list[dict]) -> Measurements:
    return Measurements(
        [matrix_from_json(r["operator"]) for r in rows],
        [r["exposure"] for r in rows],
        [0 if r["count"] is None else r["count"] for r in rows],
        [r["is_auxiliary"] for r in rows],
    )


def cmd_gen_data(config: GenDataConfig, out_dir: Path, threads: int) -> int:
    truth = build_truth(config.truth)
    weight = config.auxiliary_weight
    proto = process_protocol(config.protocol, config.truth.lam0_um)
    data = generate_counts(
        proto.rows, truth, ExperimentPlan(config.n_events, config.seed, weight)
    )
    data = data + auxiliary_rows(proto.input_states, sum(data.exposures), weight)
    write_json(
        out_dir / "data.json",
        {
            "protocol": config.protocol,
            "dim": 4,
            "n_events": config.n_events,
            "seed": config.seed,
            "auxiliary_weight": float(weight),  # written as a float even when given as 5
            "truth_choi": matrix_to_json(truth),
            "rows": _rows_to_json(data),
        },
    )
    return 0


def cmd_reconstruct(config: ReconstructConfig, out_dir: Path, threads: int) -> int:
    payload = json.loads(Path(config.data_path).read_text())
    data = _rows_from_json(payload["rows"])
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
    if "truth_choi" in payload:
        truth = matrix_from_json(payload["truth_choi"])
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
            "metadata": {
                **result.metadata,
                "config_hash": config_hash(result.metadata["config"]),
            },
        },
    )
    lines = ["replication,fidelity"]
    for i, f in enumerate(result.fidelities):
        lines.append(f"{i},{repr(float(f))}")
    (out_dir / "fidelities.csv").write_text("\n".join(lines) + "\n")
    hist = result.histogram
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(hist["bin_left"], hist["bin_right"], hist["count"]):
        lines.append(f"{repr(float(left))},{repr(float(right))},{int(count)}")
    (out_dir / "histogram.csv").write_text("\n".join(lines) + "\n")


def cmd_mc(config: CampaignConfig, out_dir: Path, threads: int) -> int:
    result = run_mc_campaign(config, threads=threads)
    _write_campaign(out_dir, result)
    return 0 if not result.failures else 1


def cmd_scaling(config: ScalingConfig, out_dir: Path, threads: int) -> int:
    study = run_scaling_study(config, config.n_list, ranks=config.ranks, threads=threads)
    write_json(
        out_dir / "result.json",
        {**study, "per_rank": {str(k): v for k, v in study["per_rank"].items()},
         "config_hash": config_hash(config.to_dict())},
    )
    lines = ["rank,n,mean_loss"]
    for rank in config.ranks:
        for n, loss in zip(config.n_list, study["per_rank"][rank]["mean_loss"]):
            lines.append(f"{rank},{n},{repr(float(loss))}")
    (out_dir / "scaling.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_mixed_workflow(config: MixedWorkflowConfig, out_dir: Path, threads: int) -> int:
    report = run_mixed_state_workflow(config)
    report["config_hash"] = config_hash(config.to_dict())
    write_json(out_dir / "result.json", report)
    capped = any(
        entry["stop_reason"] == "iteration_cap"
        for block in report["per_plate_count"].values()
        for entry in [block["stage1"], *block["stage2"]]
    )
    return 1 if capped else 0


def cmd_fit_retarder(config: FitRetarderConfig, out_dir: Path, threads: int) -> int:
    payload = json.loads(Path(config.chi_path).read_text())
    choi = matrix_from_json(payload["matrix"])
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


def main(argv: list[str] | None = None) -> int:
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
        p.add_argument("--threads", type=int, default=1, help="worker processes")

    args = parser.parse_args(argv)
    config_class, run = COMMANDS[args.command]
    out_dir = Path(args.out)
    try:
        config = _load_config(args, config_class)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo(args.command, config.to_dict(), out_dir)
        return run(config, out_dir, args.threads)
    except EstimateTooMixedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
