import enum
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chitomo import cli, harness, protocols
from chitomo.cli import COMMANDS, config_hash, main, matrix_from_json
from chitomo.harness import CampaignConfig, ScalingConfig, TruthSpec, build_truth
from chitomo.ml_engine import ReconstructionConfig, solve_likelihood
from chitomo.protocols import Measurements, auxiliary_rows, process_protocol
from chitomo.quantum_core import fidelity
from conftest import REF_PLATE_CHOI
from process_oracles import derive_seed, generate_counts, json_lists, matrix_to_json


MC_OUTPUTS = ("result.json", "fidelities.csv", "histogram.csv", "replications.csv")


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestWriteJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {"x": [float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300, 5e-324, 1e16]},
            {3: "c", 10: "j", -1: None, 2**70: [1, -2, 0]},
            {"flags": [True, False, None], "bool": True, "none": None},
            {"tuple": (1, (2.0, "x"), ()), "list": [], "dict": {}, "nested": {"a": {"b": [[]]}}},
            {"ünïcødé ☃": "𝄞 \"quoted\" \\ \n\t\x00\x7f é", "": ""},
            {"numpy": [np.float64(0.1), np.float64("nan"), np.float64("-inf")],
             "gap": np.float64(-0.0)},
            {"deep": [[[[1.5, {"k": [2.5e-8, (3, "s")]}]]]]},
        ],
    )
    def test_bytes_equal_json_dumps(self, tmp_path, obj):
        cli.write_json(tmp_path / "out.json", obj)
        assert (tmp_path / "out.json").read_bytes() == dumps(obj).encode()

    @pytest.mark.parametrize(
        "obj",
        [
            # the float texts are memoized by bit pattern: -0.0 next to 0.0,
            # NaN and the infinities keep their own texts
            {"m": np.array([[0.0, -0.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), np.nan, -np.inf]])},
            {"m": np.array([[complex(np.inf, -0.0), complex(np.nan, np.inf)]]),
             "n": np.array([[complex(-0.0, 0.0), 0.0]])},
            {"tiny": np.array([[5e-324, -5e-324], [1e300, 2.5e-8]])},
            # real, integer and bool dtypes are written as complex entries
            {"real": np.array([[0.1, -2.0], [3.0, 1e16]]), "int": np.array([[1, -2, 3]]),
             "bool": np.array([[True], [False]]), "f32": np.array([[0.1]], dtype=np.float32)},
            # (1, d), non-square, empty and non-contiguous shapes
            {"row": np.arange(4.0).reshape(1, -1) * (1 + 1j), "wide": np.ones((2, 3)) * 1j,
             "tall": np.eye(3, 2), "empty": np.zeros((0, 3)), "hollow": np.zeros((2, 0)),
             "strided": (np.arange(16.0).reshape(4, 4) + 1j)[::2, ::-1], "t": np.eye(2, 3).T},
            # matrices at several depths, values repeated across them
            {"a": np.eye(2) / 3, "b": [np.eye(2) / 3, {"c": [[np.full((2, 2), 1 / 3j)]]}],
             "d": ({"e": -np.eye(2) / 3, "f": 1 / 3},)},
        ],
    )
    def test_array_bytes_equal_json_dumps(self, tmp_path, obj):
        cli.write_json(tmp_path / "out.json", obj)
        assert (tmp_path / "out.json").read_bytes() == dumps(json_lists(obj)).encode()

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({2.5: 1}, "keys must be str or int, not float"),
            ({True: "t"}, "keys must be str or int, not bool"),
            ({None: 1}, "keys must be str or int, not NoneType"),
            ({(1, 2): 3}, "keys must be str or int, not tuple"),
            ({np.int64(1): 2}, "keys must be str or int, not int64"),
            ({"a": np.int64(3)}, "Object of type int64 is not JSON serializable"),
            ({"a": [1.0, np.bool_(True)]}, "Object of type bool is not JSON serializable"),
            ({"a": [1, enum.IntEnum("E", "A B").B]}, "Object of type E is not JSON serializable"),
            ({"a": {"b": object()}}, "Object of type object is not JSON serializable"),
            ({"a": 1, "b": [2, {"c": np.float32(1.5)}]},
             "Object of type float32 is not JSON serializable"),
            # an array is written only when it is a 2-D numeric matrix
            ({"a": np.zeros(3)}, "Object of type ndarray is not JSON serializable"),
            ({"a": [np.zeros((2, 2, 2))]}, "Object of type ndarray is not JSON serializable"),
            ({"a": np.array(1.0)}, "Object of type ndarray is not JSON serializable"),
            ({"a": np.array([[1.0, "x"]], dtype=object)},
             "Object of type ndarray is not JSON serializable"),
            ({"a": np.array([["x"]])}, "Object of type ndarray is not JSON serializable"),
        ],
    )
    def test_other_types_raise(self, tmp_path, obj, message):
        # str and int keys only; no int subclass and no numpy integer value
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cli.write_json(tmp_path / "out.json", obj)

    def test_every_command_output_equals_json_dumps(self, tmp_path, monkeypatch):
        # every JSON file of every command, against json.dumps of the object
        # the command wrote, its arrays taken through matrix_to_json
        written = []
        write_json = cli.write_json

        def recording_write_json(path, obj):
            written.append((path, obj))
            write_json(path, obj)

        monkeypatch.setattr(cli, "write_json", recording_write_json)
        quick = {"replications": 3, "seed": 4}
        configs = {
            "plate-chi": {"knots": 201},
            "protocol-dump": {"protocol": "B4"},
            "gen-data": {"n_events": 2000, "seed": 11, "truth": {"knots": 201}},
            "reconstruct": {"data_path": str(tmp_path / "gen-data" / "data.json")},
            "mc": {**quick, "n_events": 1500},
            "scaling": {**quick, "n_list": [1000, 2000, 4000], "ranks": [2]},
            "mixed-workflow": {"knots": 201, "span": 15.0, "n_events": 5000, "seed": 2},
            "fit-retarder": {"chi_path": str(tmp_path / "plate-chi" / "chi.json")},
        }
        assert list(configs) == list(COMMANDS)
        for command, config in configs.items():
            cfg = write_config(tmp_path / f"{command}.json", config)
            main([command, "--config", cfg, "--out", str(tmp_path / command)])
        assert len(written) == len(configs)
        for path, obj in written:
            assert path.read_bytes() == dumps(json_lists(obj)).encode(), path


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


class TestPlateChi:
    def test_default_reproduces_reference(self, tmp_path, capsys):
        assert main(["plate-chi", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "choi eigenvalues:" in out
        payload = json.loads((tmp_path / "chi.json").read_text())
        assert payload["dim"] == 4
        assert payload["normalization"] == "choi"
        choi = matrix_from_json(payload["matrix"])
        assert np.max(np.abs(choi - REF_PLATE_CHOI)) < 5e-3

    def test_custom_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"thickness_um": 312.7, "lam0_um": 1.0, "knots": 201}
        )
        assert main(["plate-chi", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_profile_built_once_per_command(self, tmp_path, monkeypatch):
        # the spec checks its spectrum and keeps it; the command and the
        # truth build use the kept one
        calls = []
        build = harness.sinc2_profile
        monkeypatch.setattr(harness, "sinc2_profile", lambda *a: calls.append(a) or build(*a))
        plate = write_config(tmp_path / "plate.json", {"knots": 201})
        gen = write_config(tmp_path / "gen.json", {"n_events": 2000, "truth": {"knots": 201}})
        for command, cfg in (("plate-chi", plate), ("gen-data", gen)):
            calls.clear()
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
            assert len(calls) == 1, command


class TestProtocolDump:
    def test_dump_structure(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"protocol": "J4"})
        assert main(["protocol-dump", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "protocol.json").read_text())
        assert payload["protocol"] == "J4"
        assert len(payload["rows"]) == 16
        op = matrix_from_json(payload["rows"][0]["operator"])
        assert op.shape == (4, 4)


class TestGenDataReconstruct:
    def test_round_trip_matches_in_memory_pipeline(self, tmp_path):
        gen_cfg = write_config(
            tmp_path / "gen.json",
            {"protocol": "R4", "n_events": 5000, "seed": 321, "truth": {}},
        )
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        rec_cfg = write_config(
            tmp_path / "rec.json", {"data_path": str(tmp_path / "data.json"), "rank": 2}
        )
        assert main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())

        truth = build_truth(TruthSpec())
        proto = process_protocol("R4")
        data = generate_counts(proto.rows, truth, 5000, 321)
        rows = data + auxiliary_rows(proto.input_states, sum(data.exposures), 10.0)
        res = solve_likelihood(rows, ReconstructionConfig(rank=2))
        expected = fidelity(truth, res.estimate)
        assert result["fidelity_vs_truth"] == pytest.approx(expected, abs=1e-13)
        assert result["converged"]
        assert result["stop_reason"] == res.stop_reason

        estimate = matrix_from_json(
            json.loads((tmp_path / "estimate.json").read_text())["matrix"]
        )
        assert np.max(np.abs(estimate - res.estimate)) < 1e-13

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda rows: [{**r, "exposure": [r["exposure"]] * 2} for r in rows], "exposures"),
            (lambda rows: [{**rows[0], "operator": [[[1.0, 0.0]]]}, *rows[1:]], "operators"),
            (lambda rows: [{**rows[0], "exposure": None}, *rows[1:]], "exposures"),
        ],
        ids=["exposure-lists", "mixed-dimension", "null-exposure"],
    )
    def test_malformed_data_exits_2(self, tmp_path, capsys, corrupt, message):
        gen_cfg = write_config(tmp_path / "gen.json", {"n_events": 500, "truth": {"knots": 21}})
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "data.json").read_text())
        payload["rows"] = corrupt(payload["rows"])
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        rec_cfg = write_config(tmp_path / "rec.json", {"data_path": str(tmp_path / "bad.json")})
        assert main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "rec" / "result.json").exists()

    def test_no_observed_counts_exits_2(self, tmp_path, capsys):
        # the lone solve's set-up error, as the command prints it
        gen_cfg = write_config(tmp_path / "gen.json", {"n_events": 500, "truth": {"knots": 21}})
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "data.json").read_text())
        payload["rows"] = [{**row, "count": 0} for row in payload["rows"]]
        (tmp_path / "zero.json").write_text(json.dumps(payload))
        rec_cfg = write_config(tmp_path / "rec.json", {"data_path": str(tmp_path / "zero.json")})
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", rec_cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no observed counts\n"
        assert not (out / "estimate.json").exists()
        assert not (out / "result.json").exists()

    def test_reconstruct_needs_data_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "rec.json", {"rank": 2})
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "data_path" in capsys.readouterr().err


class TestMcCommand:
    CONFIG = {"replications": 4, "n_events": 1500, "scenario": "cli-test"}

    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", self.CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", cfg, "--seed", "9", "--out", str(out_a)]) == 0
        assert main(["mc", "--config", cfg, "--seed", "9", "--out", str(out_b)]) == 0
        for name in MC_OUTPUTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_result_metadata_and_csv(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", self.CONFIG)
        assert main(["mc", "--config", cfg, "--seed", "10", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["metadata"]["seed"] == 10
        assert "config_hash" in result["metadata"]
        lines = (tmp_path / "fidelities.csv").read_text().strip().splitlines()
        assert lines[0] == "replication,fidelity"
        assert len(lines) == 5
        hist = (tmp_path / "histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in hist[1:]]
        assert sum(counts) == 4 - result["n_failures"]
        assert result["failure_reasons"] == {}

    def test_failure_reasons_written(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", {**self.CONFIG, "max_iterations": 2})
        assert main(["mc", "--config", cfg, "--seed", "10", "--out", str(tmp_path)]) == 1
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["failures"] == [0, 1, 2, 3]
        assert sorted(result["failure_reasons"]) == ["0", "1", "2", "3"]
        assert "iteration_cap" in result["failure_reasons"]["0"]

    def test_threads_flag_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", self.CONFIG)
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        assert main(["mc", "--config", cfg, "--seed", "3", "--out", str(out_a)]) == 0
        assert (
            main(["mc", "--config", cfg, "--seed", "3", "--out", str(out_b), "--threads", "2"])
            == 0
        )
        for name in MC_OUTPUTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_replications_csv(self, tmp_path):
        # rows are written in index order; --threads 2 is accepted and changes nothing
        cfg = write_config(tmp_path / "mc.json", self.CONFIG)
        args = ["mc", "--config", cfg, "--seed", "9", "--out", str(tmp_path), "--threads", "2"]
        assert main(args) == 0
        lines = (tmp_path / "replications.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "replication,seed,fidelity,iterations,stop_reason,residual,"
            "scoring_steps,rejected_steps"
        )
        fidelities = (tmp_path / "fidelities.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 1 + self.CONFIG["replications"]
        for i, (line, fid_line) in enumerate(zip(lines[1:], fidelities)):
            index, seed, fid, iterations, stop_reason, residual, *steps = line.split(",")
            assert int(index) == i
            assert int(seed) == derive_seed(9, i)
            assert f"{index},{fid}" == fid_line
            assert int(iterations) >= 1
            assert stop_reason in ("residual", "stationary")
            assert float(residual) < 1e-6
            # a converged stop takes no step in its last iteration
            scoring, rejected = map(int, steps)
            assert scoring <= int(iterations) - 1
            assert min(scoring, rejected) >= 0

    def test_step_counts_deterministic(self, tmp_path):
        # the step columns repeat byte for byte, and --threads 2 leaves them alone
        cfg = write_config(tmp_path / "mc.json", {**self.CONFIG, "n_events": 500})
        texts = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            args = ["mc", "--config", cfg, "--seed", "77", "--out", str(out), "--threads", threads]
            assert main(args) == 0
            texts.append((out / "replications.csv").read_text())
        assert texts[0] == texts[1] == texts[2]
        rows = [line.split(",") for line in texts[0].strip().splitlines()[1:]]
        assert sum(int(row[6]) for row in rows) > 0  # scoring steps were counted

    def test_replications_csv_of_failed_and_capped_solves(self, tmp_path, monkeypatch):
        # the second replication's count set and the auxiliary rows hold no
        # counts: lane 1 of the campaign's batch fails its set-up, with the
        # text of its own solve, and its solve's cells stay empty
        aux, synthesize = protocols.auxiliary_rows, protocols.generate_counts_batch

        def no_auxiliary_counts(*args):
            rows = aux(*args)
            return Measurements(rows.operators, rows.exposures, None, rows.auxiliary)

        def no_counts_in_set_1(rows, truth, n_total, seeds):
            sets = synthesize(rows, truth, n_total, seeds)
            counts = sets.counts.copy()
            counts[1] = 0.0
            return Measurements(sets.operators, sets.exposures, counts, sets.auxiliary)

        monkeypatch.setattr(protocols, "auxiliary_rows", no_auxiliary_counts)
        monkeypatch.setattr(protocols, "generate_counts_batch", no_counts_in_set_1)
        cfg = write_config(tmp_path / "mc.json", {**self.CONFIG, "max_iterations": 2})
        assert main(["mc", "--config", cfg, "--seed", "9", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "replications.csv").read_text().strip().splitlines()
        assert lines[2] == f"1,{derive_seed(9, 1)},nan,,,,,"
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["failure_reasons"]["1"] == "ValueError: no observed counts"
        index, _, fid, iterations, stop_reason, _, scoring, _ = lines[1].split(",")
        assert (iterations, stop_reason) == ("2", "iteration_cap")
        assert 0.0 <= float(fid) <= 1.0
        assert int(scoring) == 2  # this capped solve steps in each of its iterations


class TestScalingCommand:
    def test_quick_grid(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.json",
            {
                "replications": 4,
                "scenario": "cli-scaling",
                "seed": 1,
                "n_list": [1000, 10000, 100000],
                "ranks": [2],
            },
        )
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["per_rank"]["2"]["slope"] < 0
        assert result["per_rank"]["2"]["n_failures"] == [0, 0, 0]
        lines = (tmp_path / "scaling.csv").read_text().strip().splitlines()
        assert lines[0] == "rank,n,mean_loss"
        assert len(lines) == 4

    def test_failed_replications_exit_1(self, tmp_path):
        # one iteration caps every solve: each cell's mean loss is NaN, and
        # the failures are counted per cell instead of exiting 0
        cfg = write_config(
            tmp_path / "s.json",
            {"replications": 2, "n_list": [1000, 2000, 3000], "ranks": [2], "max_iterations": 1},
        )
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 1
        cell = json.loads((tmp_path / "result.json").read_text())["per_rank"]["2"]
        assert cell["n_failures"] == [2, 2, 2]
        assert all(math.isnan(loss) for loss in cell["mean_loss"])

    def test_hash_of_resolved_config(self, tmp_path):
        # spelling out a default must not change the hash
        grid = {"replications": 2, "seed": 1, "n_list": [1000, 2000, 4000], "ranks": [2]}
        hashes = []
        explicit = {"protocol": "R4", "max_iterations": 20000}
        for name, extra in (("bare", {}), ("explicit", explicit)):
            cfg = write_config(tmp_path / f"{name}.json", {**grid, **extra})
            assert main(["scaling", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            hashes.append(json.loads((tmp_path / name / "result.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]
        # the campaign's fields but the two that each cell sets
        campaign = CampaignConfig.from_dict({"seed": 1, "replications": 2}).to_dict()
        del campaign["n_events"], campaign["reconstruction_rank"]
        resolved = {**campaign, "n_list": [1000, 2000, 4000], "ranks": [2]}
        assert hashes[0] == config_hash(resolved)
        assert hashes[0] == config_hash(ScalingConfig.from_dict(grid).to_dict())


class TestMixedWorkflowCommand:
    def test_quick_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "w.json", {"knots": 201, "span": 15.0, "n_events": 5000, "seed": 2}
        )
        assert main(["mixed-workflow", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "result.json").read_text())
        assert set(report["per_plate_count"]) == {"1", "2"}

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"subsets": [[0, 1]]}, "subsets[0]"),
            ({"subsets": [[1, 9]]}, "subsets[0]"),
            ({"component_lams_um": []}, "component_lams_um"),
            ({"component_lams_um": [1.0] * 1000, "subsets": [[1]]}, "component_lams_um"),
        ],
        ids=["index-zero", "index-past-end", "no-components", "1000-components"],
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, config, field):
        cfg = write_config(tmp_path / "w.json", config)
        assert main(["mixed-workflow", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "result.json").exists()

    def test_capped_solve_exits_1(self, tmp_path, monkeypatch):
        import dataclasses

        import chitomo.harness as harness

        real = harness.solve_likelihood_batch
        batches = []
        calls = []

        def capped_second_component(data, config):
            results = real(data, config)
            batches.append((len(data.exposures), config.rank))
            calls.extend(results.iterations.tolist())
            if len(batches) == 2:
                # lane 1 of the component batch: the second 1-plate component
                converged, stop_reason = results.converged.copy(), results.stop_reason.copy()
                converged[1], stop_reason[1] = False, "iteration_cap"
                results = dataclasses.replace(
                    results, converged=converged, stop_reason=stop_reason
                )
            return results

        monkeypatch.setattr(harness, "solve_likelihood_batch", capped_second_component)
        cfg = write_config(
            tmp_path / "w.json", {"knots": 201, "span": 15.0, "n_events": 5000, "seed": 2}
        )
        assert main(["mixed-workflow", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "result.json").read_text())
        stage2 = report["per_plate_count"]["1"]["stage2"]
        assert stage2[1]["stop_reason"] == "iteration_cap"
        # calls holds the 2 broadband lanes, then the 14 component lanes
        assert stage2[1]["iterations"] == calls[3]
        assert len(calls) == 16
        assert batches == [(2, 2), (14, 1)]


    @pytest.mark.parametrize("count_set, lane", [(3, 2), (8, 1)], ids=["component", "broadband"])
    def test_count_set_without_counts_exits_2(self, tmp_path, capsys, monkeypatch, count_set, lane):
        # count set 3 is lane 2 of the component batch, count set 8 (the
        # 2-plate broadband set) lane 1 of the broadband batch
        real = harness.generate_counts_batch

        def zeroed(rows, truths, n_total, seeds):
            sets = real(rows, truths, n_total, seeds)
            counts = sets.counts.copy()
            counts[count_set] = 0.0
            return type(sets)(sets.operators, sets.exposures, counts, sets.auxiliary)

        monkeypatch.setattr(harness, "generate_counts_batch", zeroed)
        cfg = write_config(
            tmp_path / "w.json", {"knots": 201, "span": 15.0, "n_events": 5000, "seed": 2}
        )
        assert main(["mixed-workflow", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: lane {lane}: no observed counts\n"
        assert not (tmp_path / "result.json").exists()


class TestFitRetarderCommand:
    def test_refusal_on_mixed_process(self, tmp_path, capsys):
        assert main(["plate-chi", "--out", str(tmp_path)]) == 0
        cfg = write_config(
            tmp_path / "f.json",
            {"chi_path": str(tmp_path / "chi.json"), "lam_um": 1.1509, "thickness_um": 5024.0},
        )
        assert main(["fit-retarder", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_choi_matrix_not_4x4_exits_2(self, tmp_path, capsys, dim):
        chi = tmp_path / "chi.json"
        write_config(chi, {"dim": dim, "normalization": "choi",
                           "matrix": matrix_to_json(np.eye(dim) / dim)})
        cfg = write_config(tmp_path / "f.json", {"chi_path": str(chi)})
        out = tmp_path / "out"
        assert main(["fit-retarder", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: chi_path {chi} holds a {dim}x{dim} matrix")
        assert "4x4 Choi matrix" in err
        assert not (out / "result.json").exists()

    def test_fit_on_nearly_unitary_process(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"thickness_um": 25.0, "fwhm_um": 0.0008, "lam0_um": 1.0, "knots": 201},
        )
        assert main(["plate-chi", "--config", cfg, "--out", str(tmp_path)]) == 0
        fit_cfg = write_config(
            tmp_path / "f.json",
            {"chi_path": str(tmp_path / "chi.json"), "lam_um": 1.0, "thickness_um": 25.0},
        )
        assert main(["fit-retarder", "--config", fit_cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "result.json").read_text())
        assert report["dominant_share"] > 0.999
        n_o, n_e = __import__("chitomo.waveplate", fromlist=["quartz_indices"]).quartz_indices(1.0)
        assert report["birefringence"] == pytest.approx(n_e - n_o, abs=1e-4)


class TestErrorPaths:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mc", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["plate-chi", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", " is not JSON: Expecting property name"),
         ("", " is not JSON: Expecting value"),
         ("[1, 2]", " must hold a JSON object, got list")],
    )
    def test_config_errors_name_the_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --config {cfg}{message}")
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"replications": 0})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"replicas": 5})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "replicas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("plate-chi", {"thicknes_um": 312.7}, "thicknes_um"),
            ("protocol-dump", {"protocol": "J4", "central_lam": 1.0}, "central_lam"),
            ("gen-data", {"protocol": "R4", "n_event": 500}, "n_event"),
            ("reconstruct", {"data_path": "data.json", "rnak": 2}, "rnak"),
            ("fit-retarder", {"chi_path": "chi.json", "lam": 1.0}, "lam"),
            ("mc", {"replications": 2, "replicas": 5}, "replicas"),
            ("scaling", {"n_lists": [1000, 2000, 4000]}, "n_lists"),
            ("mixed-workflow", {"knot": 201}, "knot"),
            ("gen-data", {"truth": {"thicknes_um": 312.7}}, "thicknes_um"),
            ("mc", {"truth": {"kind": "identity", "rnak": 1}}, "rnak"),
            # keys the solver no longer takes
            ("reconstruct", {"data_path": "data.json", "convergence_tol": 1e-9},
             "convergence_tol"),
            ("mc", {"replications": 2, "damping": 0.5}, "damping"),
            ("scaling", {"damping": 0.5}, "damping"),
            # the auxiliary rows always weigh protocols.AUXILIARY_WEIGHT
            ("gen-data", {"auxiliary_weight": 10}, "auxiliary_weight"),
            ("gen-data", {"auxiliary_weight": "10"}, "auxiliary_weight"),
            ("mc", {"replications": 2, "auxiliary_weight": 10.0}, "auxiliary_weight"),
            ("scaling", {"auxiliary_weight": -1}, "auxiliary_weight"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("mc", {"replications": 2, "reconstruction_rank": 2.0}, "reconstruction_rank"),
            ("mc", {"replications": 2, "max_iterations": 50.5}, "max_iterations"),
            ("mc", {"replications": 2, "n_events": True}, "n_events"),
            ("reconstruct", {"data_path": "data.json", "rank": 2.5}, "rank"),
            ("reconstruct", {"data_path": "data.json", "max_iterations": 3.9}, "max_iterations"),
            ("plate-chi", {"knots": 801.5}, "knots"),
            ("gen-data", {"n_events": True}, "n_events"),
            ("gen-data", {"n_events": 500, "truth": {"rank": 1.0}}, "rank"),
            ("gen-data", {"n_events": 500, "seed": 1.9}, "seed"),
            ("mc", {"replications": 2, "seed": 1.5}, "seed"),
            ("scaling", {"replications": 2, "ranks": [2.7]}, "ranks[0]"),
            ("scaling", {"replications": 2, "n_list": [1000, 2000.5, 4000]}, "n_list[1]"),
            ("mixed-workflow", {"n_events": 5000.5}, "n_events"),
            ("mixed-workflow", {"knots": 201.0}, "knots"),
            ("mixed-workflow", {"measurement_orientations": 36.0}, "measurement_orientations"),
        ],
    )
    def test_non_integer_field_exits_2(self, tmp_path, capsys, command, config, field):
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be an integer")

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("protocol-dump", {"central_lam_um": "abc"}, "central_lam_um must be a number"),
            ("mixed-workflow", {"component_lams_um": [1.0, "x"], "subsets": [[1, 2]]},
             "component_lams_um[1] must be a number"),
            ("scaling", {"ranks": 2}, "ranks must be a list"),
            ("mc", {"truth": 5}, "truth must be a JSON object"),
            ("mc", {"seed": -1}, "seed must be a non-negative integer"),
            ("gen-data", {"seed": -3}, "seed must be a non-negative integer"),
            ("mc", {"n_events": 0}, "n_events must be >= 1"),
            # every scaling cell sets its own sample size and rank
            ("scaling", {"n_events": 7, "reconstruction_rank": 3},
             "unknown config key(s) 'n_events', 'reconstruction_rank' for ScalingConfig"),
            ("scaling", {"ranks": [5]}, "ranks[0] must be in 1..4"),
            ("scaling", {"ranks": [2, 0]}, "ranks[1] must be in 1..4"),
            ("scaling", {"ranks": []}, "ranks must not be empty"),
            # a repeated rank would run its study twice and write its rows twice
            ("scaling", {"ranks": [2, 2], "n_list": [200, 400, 800], "replications": 3},
             "ranks[1] repeats rank 2"),
            ("scaling", {"ranks": [4, 2, 4]}, "ranks[2] repeats rank 4"),
            ("scaling", {"n_list": [1000, 2000]}, "n_list must hold at least 3 sample sizes"),
            ("scaling", {"n_list": [1000, 0, 4000]}, "n_list[1] must be >= 1"),
            ("mc", {"truth": {"rank": -1}}, "rank must be in 1..4 or null, got -1"),
            ("mc", {"truth": {"rank": 9}}, "rank must be in 1..4 or null, got 9"),
            ("gen-data", {"truth": {"rank": 0}}, "rank must be in 1..4 or null, got 0"),
            ("mc", {"truth": {"kind": "foo"}}, "kind must be one of plate, identity, got 'foo'"),
            ("mc", {"protocol": "X4"}, "protocol must be one of J4, R4, B4, got 'X4'"),
            ("scaling", {"protocol": "j4"}, "protocol must be one of J4, R4, B4, got 'j4'"),
            ("gen-data", {"protocol": 4}, "protocol must be one of J4, R4, B4, got 4"),
            ("protocol-dump", {"protocol": "B36"}, "protocol must be one of J4, R4, B4"),
            # value checks of the plan, the solver, the plate and its
            # spectrum, made before the echo
            ("gen-data", {"n_events": 0}, "n_events must be >= 1, got 0"),
            ("plate-chi", {"knots": 4}, "knots must be odd and >= 3, got 4"),
            ("plate-chi", {"fwhm_um": 0}, "span and fwhm must be positive"),
            ("gen-data", {"truth": {"fwhm_um": -0.01}}, "span and fwhm must be positive"),
            ("mc", {"truth": {"knots": 4}}, "knots must be odd and >= 3, got 4"),
            ("gen-data", {"truth": {"thickness_um": -5}},
             "thickness must be finite and >= 0, got -5"),
            ("plate-chi", {"lam0_um": 5.0},
             "wavelength 4.68 um outside quartz dispersion window"),
            ("mc", {"truth": {"lam0_um": 5.0}},
             "wavelength 4.68 um outside quartz dispersion window"),
            ("mc", {"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
            ("mixed-workflow", {"knots": 4}, "knots must be odd and >= 3, got 4"),
            ("mixed-workflow", {"n_events": 0}, "n_events must be >= 1, got 0"),
            # an event count past 2**53 is a rejected config, not an
            # overflow during the synthesis
            ("gen-data", {"n_events": 10**400}, "n_events must be <= 2**53, got 1000"),
            ("gen-data", {"n_events": 2**53 + 1}, "n_events must be <= 2**53, got 9007199254740993"),
            ("mc", {"n_events": 10**400}, "n_events must be <= 2**53, got 1000"),
            ("mc", {"n_events": 2**53 + 1}, "n_events must be <= 2**53, got 9007199254740993"),
            ("mixed-workflow", {"n_events": 10**400}, "n_events must be <= 2**53, got 1000"),
            ("mixed-workflow", {"n_events": 2**53 + 1},
             "n_events must be <= 2**53, got 9007199254740993"),
            ("scaling", {"n_list": [1000, 10000, 10**400]}, "n_list[2] must be <= 2**53, got 1000"),
            ("scaling", {"n_list": [1000, 10000, 2**53 + 1]},
             "n_list[2] must be <= 2**53, got 9007199254740993"),
            ("mixed-workflow", {"measurement_orientations": 3},
             "need at least 4 orientations, got 3"),
            ("mixed-workflow", {"component_rank": 3}, "component_rank must be in 1..2"),
            ("mixed-workflow", {"broadband_rank": 0}, "broadband_rank must be in 1..2"),
            ("mixed-workflow", {"fwhm_um": 0}, "span and fwhm must be positive"),
            ("mixed-workflow", {"component_lams_um": [5.0], "subsets": [[1]]},
             "wavelength 5.0 um outside quartz dispersion window"),
            # the measurement protocol's completeness and the thick plate's
            # spectrum, checked when the config is built
            ("mixed-workflow", {"measurement_orientations": 4},
             "B4 with plate retardance 8.6262 rad is tomographically incomplete"),
            ("mixed-workflow", {"measurement_plate_um": 1e-6},
             "B36 with plate retardance 0.0000 rad is tomographically incomplete"),
            ("mixed-workflow", {"lam0_um": 2.9},
             "wavelength 3.0 um outside quartz dispersion window"),
            # json reads NaN, +-Infinity and integers beyond the float range
            # into float fields; none means them
            ("gen-data", {"truth": {"fwhm_um": math.inf}}, "fwhm_um must be a finite number, got inf"),
            ("mc", {"truth": {"span": math.nan}}, "span must be a finite number, got nan"),
            ("mc", {"truth": {"lam0_um": -math.inf}}, "lam0_um must be a finite number, got -inf"),
            ("plate-chi", {"fwhm_um": 10**400}, "fwhm_um must be a finite number, got 1000"),
            ("plate-chi", {"span": 10**400}, "span must be a finite number, got 1000"),
            ("plate-chi", {"thickness_um": 10**400}, "thickness_um must be a finite number, got 1000"),
            ("plate-chi", {"alpha_deg": -10**400}, "alpha_deg must be a finite number, got -1000"),
            ("gen-data", {"truth": {"thickness_um": 10**400}},
             "thickness_um must be a finite number, got 1000"),
            ("mixed-workflow", {"component_lams_um": [1.0, 10**400], "subsets": [[1, 2]]},
             "component_lams_um[1] must be a finite number, got 1000"),
            ("fit-retarder", {"chi_path": "chi.json", "lam_um": 10**400},
             "lam_um must be a finite number, got 1000"),
            ("fit-retarder", {"chi_path": "chi.json", "min_dominant_share": math.nan},
             "min_dominant_share must be a finite number, got nan"),
            ("plate-chi", {"thickness_um": math.inf}, "thickness_um must be a finite number, got inf"),
            ("gen-data", {"truth": {"alpha_deg": math.nan}}, "alpha_deg must be a finite number"),
            ("mixed-workflow", {"component_lams_um": [1.0, math.nan], "subsets": [[1, 2]]},
             "component_lams_um[1] must be a finite number, got nan"),
        ],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, command, config, message):
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config_class, config",
        [
            (cli.GenDataConfig, {"n_events": 2**53}),
            (CampaignConfig, {"n_events": 2**53}),
            (harness.MixedWorkflowConfig, {"n_events": 2**53}),
            (ScalingConfig, {"n_list": [1000, 10000, 2**53]}),
        ],
    )
    def test_event_count_of_2_53_accepted(self, config_class, config):
        config_class.from_dict(config)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        assert main(["mc", "--threads", threads, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --threads must be >= 1, got {threads}")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_misspelled_key_rejected_before_echo(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", {"no_such_key": 1})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'no_such_key'" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_seed_flag_accepted(self, tmp_path, capsys, monkeypatch, command):
        config_class, _ = COMMANDS[command]
        seen = []
        monkeypatch.setitem(
            COMMANDS,
            command,
            (config_class, lambda config, out: seen.append(config) or 0),
        )
        required = {"data_path": "data.json", "chi_path": "chi.json"}
        names = {f.name for f in fields(config_class)}
        cfg = write_config(tmp_path / "c.json", {k: v for k, v in required.items() if k in names})
        assert main([command, "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
        assert len(seen) == 1 and isinstance(seen[0], config_class)
        echo = json.loads(capsys.readouterr().out)
        assert echo["config"] == json.loads(json.dumps(seen[0].to_dict()))
        assert echo["config"].get("seed", 3) == 3

    @pytest.mark.parametrize(
        "command, config, hash_of",
        [
            ("mc", {"replications": 2, "n_events": 500}, lambda r: r["metadata"]["config_hash"]),
            ("scaling", {"replications": 2, "n_list": [1000, 2000, 4000], "ranks": [2]},
             lambda r: r["config_hash"]),
            ("mixed-workflow", {"knots": 201, "span": 15.0, "n_events": 5000},
             lambda r: r["config_hash"]),
        ],
    )
    def test_echoed_hash_matches_result(self, tmp_path, capsys, command, config, hash_of):
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--seed", "4", "--out", str(tmp_path)]) == 0
        echo = json.loads(capsys.readouterr().out.splitlines()[0])
        result = json.loads((tmp_path / "result.json").read_text())
        assert echo["config_hash"] == hash_of(result)
        assert echo["config_hash"] == config_hash(echo["config"])

    def test_seed_key_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"protocol": "J4", "seed": 3})
        assert main(["protocol-dump", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["plate-chi", "--seed", "3", "--out", str(tmp_path)]) == 0

    def test_echo_line_contains_resolved_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "mc.json", {"replications": 2, "n_events": 500})
        main(["mc", "--config", cfg, "--seed", "77", "--out", str(tmp_path)])
        echo = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echo["config"]["seed"] == 77
        assert echo["command"] == "mc"


GOOD_ROW = {"operator": [[[1.0, 0.0]]], "exposure": 1.0, "count": 3, "is_auxiliary": False}


def reconstructible_rows() -> list[dict]:
    # the rows of a data.json that reconstructs: R4 counts of the identity
    # channel and their auxiliary rows
    proto = process_protocol("R4")
    data = generate_counts(proto.rows, build_truth(TruthSpec(kind="identity")), 2000, 1)
    return json_lists(cli._rows_to_json(data + auxiliary_rows(proto.input_states, sum(data.exposures), 10.0)))


ROWS_4X4 = reconstructible_rows()


def with_field(j: int, key: str, value) -> list[dict]:
    # ROWS_4X4 with field key of row j replaced by value(old value)
    return [{**row, key: value(row[key])} if i == j else row for i, row in enumerate(ROWS_4X4)]


def with_entry(j: int, value) -> list[dict]:
    # ROWS_4X4 with the real part of entry (1, 2) of row j's operator replaced
    rows = json.loads(json.dumps(ROWS_4X4))
    rows[j]["operator"][1][2][0] = value
    return rows


class TestMalformedInputFiles:
    """An input file that is not the JSON object its command reads exits 2,
    naming the file and the field."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"protocol": "R4"}, " has no field 'rows'"),
            ({"rows": [{k: v for k, v in GOOD_ROW.items() if k != "count"}]},
             ": rows[0] has no field 'count'"),
            ({"rows": [GOOD_ROW, "row"]}, ": rows[1] must be a JSON object, got str"),
            ({"rows": "rows"}, ": rows must be a list of row objects, got str"),
            ([GOOD_ROW], " must hold a JSON object, got list"),
            ({"rows": [{**GOOD_ROW, "operator": [1.0, 2.0]}]},
             ": rows[0].operator is not a matrix of [re, im] pairs"),
            # a number given as a string, or a bool, is not read as a number,
            # and is_auxiliary must be true or false
            ({"rows": [{**GOOD_ROW, "exposure": "x"}]}, ": rows[0].exposure must be a number, got str"),
            ({"rows": with_field(3, "exposure", str)}, ": rows[3].exposure must be a number, got str"),
            ({"rows": with_field(3, "exposure", lambda _: True)},
             ": rows[3].exposure must be a number, got bool"),
            ({"rows": with_field(3, "count", str)}, ": rows[3].count must be a number, got str"),
            ({"rows": with_field(3, "count", lambda _: False)}, ": rows[3].count must be a number, got bool"),
            ({"rows": with_field(3, "is_auxiliary", lambda _: "no")},
             ": rows[3].is_auxiliary must be true or false, got str"),
            ({"rows": with_field(19, "is_auxiliary", lambda _: 1)},
             ": rows[19].is_auxiliary must be true or false, got int"),
            ({"rows": with_field(0, "is_auxiliary", lambda _: None)},
             ": rows[0].is_auxiliary must be true or false, got NoneType"),
            # non-square operators get the message of the row-by-row read
            ({"rows": [{**row, "operator": [r[:3] for r in row["operator"]]} for row in ROWS_4X4]},
             ": rows: operators must have shape (m, d, d), got (20, 4, 3)"),
            ({"rows": [GOOD_ROW], "truth_choi": [["a"]]},
             ": truth_choi is not a matrix of [re, im] pairs"),
            # a truth that does not fit the data is rejected before the solve
            ({"rows": ROWS_4X4, "truth_choi": matrix_to_json(np.eye(2) / 2)},
             ": truth_choi has shape (2, 2), the data's (4, 4)"),
            ({"rows": ROWS_4X4, "truth_choi": matrix_to_json(np.diag([-1.0, 1.0, 1.0, 0.0]))},
             ": truth_choi is not PSD: min eigenvalue -1.000e+00"),
            ({"rows": ROWS_4X4, "truth_choi": matrix_to_json(np.full((4, 4), np.nan))},
             ": truth_choi has non-finite entries"),
            ({"rows": ROWS_4X4, "truth_choi": matrix_to_json(np.triu(np.ones((4, 4))) / 4)},
             ": truth_choi is not Hermitian: defect 2.500e-01"),
            ({"rows": ROWS_4X4, "truth_choi": matrix_to_json(np.zeros((4, 4)))},
             ": truth_choi has trace 0.000e+00, not a positive one"),
            # an integer beyond the float range, in a matrix, an operator
            # read row by row, an exposure or a count
            ({"rows": ROWS_4X4, "truth_choi": [[[10**400, 0]] * 4] * 4},
             ": truth_choi is not a matrix of [re, im] pairs (int too large to convert to float)"),
            ({"rows": with_entry(2, 10**400)},
             ": rows[2].operator is not a matrix of [re, im] pairs (int too large to convert to float)"),
            ({"rows": with_field(3, "exposure", lambda _: 10**400)},
             ": rows: int too large to convert to float"),
            ({"rows": with_field(3, "count", lambda _: 10**400)},
             ": rows: int too large to convert to float"),
        ],
    )
    def test_reconstruct(self, tmp_path, capsys, payload, message):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        cfg = write_config(tmp_path / "r.json", {"data_path": str(data)})
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: data_path {data}{message}")
        assert not (out / "estimate.json").exists()
        assert not (out / "result.json").exists()

    def test_reconstructible_rows_reconstruct(self, tmp_path):
        # the rows of the truth_choi cases above pass every check without a
        # truth
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"rows": ROWS_4X4}))
        cfg = write_config(tmp_path / "r.json", {"data_path": str(data)})
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_null_count_reads_as_zero(self, tmp_path):
        results = []
        for count in (None, 0):
            data = tmp_path / f"{count}.json"
            data.write_text(json.dumps({"rows": with_field(3, "count", lambda _: count)}))
            cfg = write_config(tmp_path / "r.json", {"data_path": str(data)})
            assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / str(count))]) == 0
            results.append((tmp_path / str(count) / "result.json").read_bytes())
        assert results[0] == results[1]


def with_operator(j: int, change) -> list[dict]:
    # ROWS_4X4 with row j's operator replaced by change(operator)
    return [{**row, "operator": change(row["operator"])} if i == j else row for i, row in enumerate(ROWS_4X4)]


def special_float_rows() -> list[dict]:
    # 3x3 operators holding -0.0 next to 0.0, the smallest subnormal, the
    # infinities, NaN and 1e300
    ops = np.linspace(-1.0, 1.0, 90).reshape(5, 3, 3, 2) / 7
    ops[0, 0, 0] = [-0.0, 0.0]
    ops[0, 0, 1] = [5e-324, -np.inf]
    ops[0, 1, 1] = [np.nan, 1e300]
    ops[4, 2, 2] = [np.inf, -5e-324]
    return [{"operator": op.tolist(), "exposure": 1.0, "count": 2, "is_auxiliary": False} for op in ops]


def per_row_message(rows: list[dict]) -> str:
    # the message of the row-by-row read at the first operator it rejects
    for j, row in enumerate(rows):
        try:
            matrix_from_json(row["operator"])
        except (TypeError, ValueError) as exc:
            return f"rows[{j}].operator is not a matrix of [re, im] pairs ({exc})"
    raise AssertionError("every operator reads")


class TestOperatorRead:
    """reconstruct reads every row's operator with one np.array call when all
    of them are d x d matrices of JSON numbers or bools; any other input is
    read row by row, with that read's messages."""

    @pytest.mark.parametrize(
        "rows",
        [
            ROWS_4X4,
            with_entry(2, True),  # a bool entry, read as 1.0 as before
            with_entry(2, 7),
            with_entry(2, -0.0),
            with_entry(2, 2**63 + 1),  # an int beyond int64, rounded as complex() rounds it
            with_operator(5, lambda op: [[[int(re), True] for re, im in row] for row in op]),
            special_float_rows(),
        ],
        ids=["data", "bool", "int", "minus-zero", "big-int", "int-and-bool-operator", "special-floats"],
    )
    def test_one_array_equals_per_row(self, rows):
        payload = json.loads(json.dumps(rows))
        assert cli._stacked_operators(payload) is not None
        read = cli._rows_from_json(payload, "data").operators
        expected = np.array([matrix_from_json(row["operator"]) for row in payload])
        assert read.dtype == expected.dtype == complex
        assert read.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (with_entry(2, "0.5"), None),
            (with_entry(2, None), None),
            (with_operator(2, lambda op: [[[*pair, 0.0] for pair in row] for row in op]), None),
            ([{**row, "operator": [[[*pair, 0.0] for pair in r] for r in row["operator"]]} for row in ROWS_4X4],
             None),
            ([{**row, "operator": [[pair[:1] for pair in r] for r in row["operator"]]} for row in ROWS_4X4],
             None),
            (with_operator(2, lambda op: [op[0][:3], *op[1:]]), None),
            (with_operator(2, lambda op: op[:3]), "rows: operators must all have the same shape (d, d)"),
            (with_operator(2, lambda op: [[[1.0, 0.0]]]), "rows: operators must all have the same shape (d, d)"),
            ([], "rows: operators must have shape (m, d, d), got (0,)"),
        ],
        ids=["string-entry", "null-entry", "3-element-pair", "3-element-pairs-everywhere",
             "1-element-pairs-everywhere", "ragged-row", "3x4-operator", "1x1-operator", "no-rows"],
    )
    def test_other_input_read_row_by_row(self, tmp_path, capsys, rows, message):
        # an operator the per-row read rejects gets its message
        assert cli._stacked_operators(rows) is None
        message = message or per_row_message(rows)
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"rows": rows}))
        cfg = write_config(tmp_path / "r.json", {"data_path": str(data)})
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: data_path {data}: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"dim": 4, "normalization": "choi"}, " has no field 'matrix'"),
            ([[1.0, 0.0]], " must hold a JSON object, got list"),
            ({"matrix": [[1.0, 0.0]]}, ": matrix is not a matrix of [re, im] pairs"),
            # the 4x4 matrix gets the checks of a truth_choi, before the fit
            ({"matrix": matrix_to_json(np.zeros((4, 4)))},
             ": matrix has trace 0.000e+00, not a positive one"),
            ({"matrix": matrix_to_json(np.full((4, 4), np.nan))}, ": matrix has non-finite entries"),
            ({"matrix": matrix_to_json(np.triu(np.ones((4, 4))) / 4)},
             ": matrix is not Hermitian: defect 2.500e-01"),
            ({"matrix": matrix_to_json(-np.eye(4) / 4)},
             ": matrix is not PSD: min eigenvalue -2.500e-01"),
            ({"matrix": [[[10**400, 0]] + [[0.0, 0.0]] * 3] * 4},
             ": matrix is not a matrix of [re, im] pairs (int too large to convert to float)"),
        ],
    )
    def test_fit_retarder(self, tmp_path, capsys, payload, message):
        chi = tmp_path / "chi.json"
        chi.write_text(json.dumps(payload))
        cfg = write_config(tmp_path / "f.json", {"chi_path": str(chi)})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning on the way to the message
            assert main(["fit-retarder", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: chi_path {chi}{message}")
        assert not (out / "result.json").exists()

    def test_not_json(self, tmp_path, capsys):
        chi = tmp_path / "chi.json"
        chi.write_text("{matrix")
        cfg = write_config(tmp_path / "f.json", {"chi_path": str(chi)})
        assert main(["fit-retarder", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: chi_path {chi} is not JSON: ")


class TestRepeatedMain:
    """main builds its parser once per process; every call parses its own
    argv, and nothing a config decides outlives the call."""

    GEN = {"seed": 9, "n_events": 500, "truth": {"knots": 21}}

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_seed_flag_does_not_stick(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "gen.json", self.GEN)
        assert main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9

    def test_argparse_rejection_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--no-such-flag", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        cfg = write_config(tmp_path / "gen.json", self.GEN)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["command"] == "gen-data" and echo["config"]["seed"] == 9
        assert (tmp_path / "data.json").exists()

    def test_chain_equals_fresh_interpreter(self, tmp_path, capsys):
        def chain(out: Path, run) -> None:
            out.mkdir()
            plate = write_config(out / "plate.json", {"knots": 201})
            gen = write_config(
                out / "gen.json", {"n_events": 2000, "seed": 11, "truth": {"knots": 201}}
            )
            rec = write_config(out / "rec.json", {"data_path": str(out / "data.json")})
            for command, cfg in (("plate-chi", plate), ("gen-data", gen), ("reconstruct", rec)):
                assert run([command, "--config", cfg, "--out", str(out)]) == 0

        def fresh(argv: list[str]) -> int:
            src = str(Path(cli.__file__).resolve().parents[1])
            path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
            env = {**os.environ, "PYTHONPATH": path}
            return subprocess.run(
                [sys.executable, "-m", "chitomo.cli", *argv], env=env, capture_output=True
            ).returncode

        chain(tmp_path / "in_process", main)
        chain(tmp_path / "fresh", fresh)
        for name in ("chi.json", "data.json", "estimate.json", "result.json"):
            in_process = (tmp_path / "in_process" / name).read_bytes()
            assert in_process == (tmp_path / "fresh" / name).read_bytes(), name


def test_package_needs_only_numpy(tmp_path):
    # a fresh interpreter imports the package and runs a command without
    # loading the test-only dependencies
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\n"
        "import chitomo, chitomo.cli\n"
        f"assert chitomo.cli.main(['plate-chi', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted({n.split('.')[0] for n in sys.modules}"
        " & {'mpmath', 'scipy', 'pytest', 'hypothesis'}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "chi.json").exists()


def _readme_schema_bullets() -> dict[str, str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- (?=`)", schema, flags=re.M)[1:]
    return {re.match(r"`([a-z-]+)`", b).group(1): b for b in bullets}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_schema_lists_every_field(command):
    bullet = _readme_schema_bullets()[command]
    config_class, _ = COMMANDS[command]
    missing = [f.name for f in fields(config_class) if f"`{f.name}`" not in bullet]
    assert missing == []
