"""Command-line interface.

Subcommands: plate-chi, protocol-dump, gen-data, reconstruct, mc, scaling,
mixed-workflow, fit-retarder.  Every command reads one JSON config (defaults
apply when omitted), echoes the resolved config and seed to stdout, and
writes machine-readable outputs into --out.  Identical config + seed gives
byte-identical output files.

Exit codes: 0 full success, 2 bad config or input, 3 refused precondition
(e.g. retarder fit on a mixed process).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    CampaignConfig,
    EstimateTooMixedError,
    MixedWorkflowConfig,
    build_truth,
    run_mc_campaign,
    run_mixed_state_workflow,
    run_retarder_fit,
    run_scaling_study,
    TruthSpec,
)
from .ml_engine import ReconstructionConfig, solve_likelihood
from .protocols import (
    LAMBDA_DEFAULT_UM,
    ExperimentPlan,
    Measurements,
    auxiliary_rows,
    generate_counts,
    process_protocol,
    require_integers,
)
from .quantum_core import fidelity, hermitian_eig

# plate-chi takes the plate fields of TruthSpec; it always computes a plate
PLATE_KEYS = {f.name for f in fields(TruthSpec)} - {"kind", "rank"}
SOLVER_KEYS = {"rank", "damping", "max_iterations", "convergence_tol"}


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


def _load_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _reject_unknown_keys(command: str, config: dict, known: set[str]) -> None:
    unknown = sorted(set(config) - known - {"seed"})
    if unknown:
        raise ValueError(f"{command}: unknown config key(s) {', '.join(map(repr, unknown))}")


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


def cmd_plate_chi(config: dict, out_dir: Path) -> int:
    _reject_unknown_keys("plate-chi", config, PLATE_KEYS)
    choi = build_truth(TruthSpec(**{k: v for k, v in config.items() if k in PLATE_KEYS}))
    w, _ = hermitian_eig(choi)
    _write_chi(out_dir / "chi.json", choi, "choi")
    print("choi eigenvalues:", " ".join(f"{x:.6f}" for x in w))
    for row in choi:
        print("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return 0


def cmd_protocol_dump(config: dict, out_dir: Path) -> int:
    _reject_unknown_keys("protocol-dump", config, {"protocol", "central_lam_um"})
    name = config.get("protocol", "R4")
    lam = config.get("central_lam_um", LAMBDA_DEFAULT_UM)
    proto = process_protocol(name, lam)
    write_json(
        out_dir / "protocol.json",
        {
            "protocol": name,
            "central_lam_um": lam,
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


def cmd_gen_data(config: dict, out_dir: Path) -> int:
    _reject_unknown_keys(
        "gen-data", config, {"truth", "protocol", "n_events", "auxiliary_weight"}
    )
    n_events = config.get("n_events", 10_000)
    require_integers(n_events=n_events)
    truth_spec = TruthSpec(**config.get("truth", {}))
    truth = build_truth(truth_spec)
    protocol = config.get("protocol", "R4")
    seed = int(config.get("seed", 0))
    weight = float(config.get("auxiliary_weight", 10.0))
    proto = process_protocol(protocol, truth_spec.lam0_um)
    data = generate_counts(
        proto.rows, truth, ExperimentPlan(n_total=n_events, seed=seed, auxiliary_weight=weight)
    )
    data = data + auxiliary_rows(proto.input_states, sum(data.exposures), weight)
    write_json(
        out_dir / "data.json",
        {
            "protocol": protocol,
            "dim": 4,
            "n_events": n_events,
            "seed": seed,
            "auxiliary_weight": weight,
            "truth_choi": matrix_to_json(truth),
            "rows": _rows_to_json(data),
        },
    )
    return 0


def cmd_reconstruct(config: dict, out_dir: Path) -> int:
    _reject_unknown_keys("reconstruct", config, {"data_path", *SOLVER_KEYS})
    solver = ReconstructionConfig(
        **{"rank": 2, **{k: v for k, v in config.items() if k in SOLVER_KEYS}}
    )
    data_path = config.get("data_path")
    if not data_path:
        raise ValueError("reconstruct needs 'data_path' in the config")
    payload = json.loads(Path(data_path).read_text())
    data = _rows_from_json(payload["rows"])
    res = solve_likelihood(data, solver)
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


def cmd_mc(config: dict, out_dir: Path, threads: int) -> int:
    campaign = CampaignConfig.from_dict(config) if config else CampaignConfig()
    result = run_mc_campaign(campaign, threads=threads)
    _write_campaign(out_dir, result)
    return 0 if not result.failures else 1


def cmd_scaling(config: dict, out_dir: Path, threads: int) -> int:
    n_list = [int(n) for n in config.get("n_list", [10**3, 10**4, 10**5, 10**6])]
    ranks = tuple(int(r) for r in config.get("ranks", (2, 4)))
    base_cfg = {k: v for k, v in config.items() if k not in ("n_list", "ranks")}
    base = CampaignConfig.from_dict(base_cfg) if base_cfg else CampaignConfig()
    study = run_scaling_study(base, n_list, ranks=ranks, threads=threads)
    resolved = {**base.to_dict(), "n_list": n_list, "ranks": list(ranks)}
    write_json(
        out_dir / "result.json",
        {**study, "per_rank": {str(k): v for k, v in study["per_rank"].items()},
         "config_hash": config_hash(resolved)},
    )
    lines = ["rank,n,mean_loss"]
    for rank in ranks:
        for n, loss in zip(n_list, study["per_rank"][rank]["mean_loss"]):
            lines.append(f"{rank},{n},{repr(float(loss))}")
    (out_dir / "scaling.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_mixed_workflow(config: dict, out_dir: Path) -> int:
    workflow = MixedWorkflowConfig.from_dict(config) if config else MixedWorkflowConfig()
    report = run_mixed_state_workflow(workflow)
    report["config_hash"] = config_hash(workflow.to_dict())
    write_json(out_dir / "result.json", report)
    capped = any(
        entry["stop_reason"] == "iteration_cap"
        for block in report["per_plate_count"].values()
        for entry in [block["stage1"], *block["stage2"]]
    )
    return 1 if capped else 0


def cmd_fit_retarder(config: dict, out_dir: Path) -> int:
    _reject_unknown_keys(
        "fit-retarder", config, {"chi_path", "lam_um", "thickness_um", "min_dominant_share"}
    )
    chi_path = config.get("chi_path")
    if not chi_path:
        raise ValueError("fit-retarder needs 'chi_path' in the config")
    payload = json.loads(Path(chi_path).read_text())
    choi = matrix_from_json(payload["matrix"])
    report = run_retarder_fit(
        choi,
        lam_um=float(config.get("lam_um", LAMBDA_DEFAULT_UM)),
        thickness_um=float(config.get("thickness_um", 25400.0)),
        min_dominant_share=float(config.get("min_dominant_share", 0.95)),
    )
    write_json(out_dir / "result.json", report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chitomo",
        description="Quantum process tomography of dispersive waveplates",
    )
    parser.add_argument("--version", action="version", version=f"chitomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        "plate-chi",
        "protocol-dump",
        "gen-data",
        "reconstruct",
        "mc",
        "scaling",
        "mixed-workflow",
        "fit-retarder",
    ]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker processes")

    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        config = _load_config(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo(args.command, config, out_dir)
        if args.command == "plate-chi":
            return cmd_plate_chi(config, out_dir)
        if args.command == "protocol-dump":
            return cmd_protocol_dump(config, out_dir)
        if args.command == "gen-data":
            return cmd_gen_data(config, out_dir)
        if args.command == "reconstruct":
            return cmd_reconstruct(config, out_dir)
        if args.command == "mc":
            return cmd_mc(config, out_dir, args.threads)
        if args.command == "scaling":
            return cmd_scaling(config, out_dir, args.threads)
        if args.command == "mixed-workflow":
            return cmd_mixed_workflow(config, out_dir)
        if args.command == "fit-retarder":
            return cmd_fit_retarder(config, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except EstimateTooMixedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
