import json
import math

import numpy as np
import pytest

from chitomo import harness
from chitomo.harness import (
    CampaignConfig,
    EstimateTooMixedError,
    MixedWorkflowConfig,
    TruthSpec,
    build_truth,
    derive_seed,
    run_mc_campaign,
    run_mixed_state_workflow,
    run_retarder_fit,
    run_scaling_study,
)
from chitomo.protocols import ExperimentPlan
from chitomo.quantum_core import vectorize
from chitomo.waveplate import (
    WaveplateSpec,
    broadband_mixed_state,
    monochromatic_states,
    plate_choi_state,
    plate_unitary,
    sinc2_profile,
)
from process_oracles import (
    bootstrap_ratio_lower_bound,
    component_sums_per_subset,
    generate_counts_per_set,
    su2_from_retarder,
)

QUICK = {"replications": 6, "n_events": 2000, "scenario": "test"}


class TestSeedsAndTruth:
    def test_derive_seed_deterministic_and_distinct(self):
        a = [derive_seed(7, i) for i in range(50)]
        b = [derive_seed(7, i) for i in range(50)]
        assert a == b
        assert len(set(a)) == 50
        assert derive_seed(8, 0) != derive_seed(7, 0)

    def test_identity_truth(self):
        rho = build_truth(TruthSpec(kind="identity"))
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(rho, np.outer(phi, phi), atol=1e-15)

    def test_plate_truth_matches_direct_construction(self):
        spec = TruthSpec()
        rho = build_truth(spec)
        direct = plate_choi_state(
            WaveplateSpec(5024.0, np.pi / 4), sinc2_profile(1.1509, 0.008, 801, 40.0)
        )
        np.testing.assert_allclose(rho, direct, atol=1e-15)

    def test_rank_truncation(self):
        rho = build_truth(TruthSpec(rank=1))
        w = np.linalg.eigvalsh(rho)[::-1]
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="truth kind"):
            build_truth(TruthSpec(kind="mystery"))


class TestMcCampaign:
    def test_structure_and_histogram(self):
        config = CampaignConfig.from_dict({**QUICK, "seed": 5})
        result = run_mc_campaign(config)
        assert result.fidelities.shape == (6,)
        ok = ~np.isnan(result.fidelities)
        assert np.all(result.fidelities[ok] >= 0) and np.all(result.fidelities[ok] <= 1)
        assert sum(result.histogram["count"]) == 6 - len(result.failures)
        assert result.metadata["seed"] == 5
        assert result.nu == 8
        assert result.info_spectrum.size == 16

    def test_deterministic(self):
        config = CampaignConfig.from_dict({**QUICK, "seed": 11})
        a = run_mc_campaign(config)
        b = run_mc_campaign(config)
        assert np.array_equal(a.fidelities, b.fidelities)
        assert a.mean_loss == b.mean_loss

    def test_threads_do_not_change_results(self):
        config = CampaignConfig.from_dict({**QUICK, "seed": 13})
        serial = run_mc_campaign(config, threads=1)
        parallel = run_mc_campaign(config, threads=2)
        assert np.array_equal(serial.fidelities, parallel.fidelities)

    def test_pool_sized_to_its_chunks(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        config = CampaignConfig.from_dict({**QUICK, "replications": 3, "seed": 13})
        pooled = run_mc_campaign(config, threads=8)
        assert sizes == [3]
        assert np.array_equal(pooled.fidelities, run_mc_campaign(config).fidelities)

    def test_failure_reasons_kept(self):
        config = CampaignConfig.from_dict(
            {**QUICK, "replications": 2, "seed": 5, "max_iterations": 2}
        )
        result = run_mc_campaign(config)
        assert result.failures == [0, 1]
        assert sorted(result.failure_reasons) == [0, 1]
        for text in result.failure_reasons.values():
            assert text.startswith("not converged: iteration_cap after 2 iterations")
        assert math.isnan(result.mean_loss)
        assert sum(result.histogram["count"]) == 0

    def test_config_round_trip(self):
        config = CampaignConfig.from_dict({**QUICK, "seed": 2})
        again = CampaignConfig.from_dict(config.to_dict())
        assert again == config

    def test_validation(self):
        with pytest.raises(ValueError, match="replications"):
            CampaignConfig(replications=0)
        with pytest.raises(ValueError, match="rank"):
            CampaignConfig(reconstruction_rank=5)
        with pytest.raises(ValueError, match="n_events must be >= 1"):
            CampaignConfig(n_events=0)


class TestScalingStudy:
    def test_slopes_negative_and_reported(self):
        base = CampaignConfig.from_dict({**QUICK, "replications": 8, "seed": 3})
        study = run_scaling_study(base, [10**3, 10**4, 10**5], ranks=(2,))
        out = study["per_rank"][2]
        assert len(out["mean_loss"]) == 3
        assert out["mean_loss"][0] > out["mean_loss"][-1]
        assert out["slope"] < -0.5

    def test_needs_three_points(self):
        base = CampaignConfig.from_dict(QUICK)
        with pytest.raises(ValueError, match="3"):
            run_scaling_study(base, [10, 100])


class TestBootstrap:
    def test_identical_samples_bracket_one(self, rng):
        x = rng.uniform(1.0, 2.0, 100)
        bound = bootstrap_ratio_lower_bound(x, x, seed=1)
        assert 0.8 < bound <= 1.05

    def test_separated_samples(self, rng):
        num = rng.uniform(9.0, 11.0, 200)
        den = rng.uniform(0.9, 1.1, 200)
        assert bootstrap_ratio_lower_bound(num, den, seed=1) > 8.0


@pytest.fixture(scope="module")
def report():
    config = MixedWorkflowConfig(knots=401, span=20.0, n_events=20_000, seed=4)
    return run_mixed_state_workflow(config)


class TestMixedWorkflow:

    def test_stage_structure(self, report):
        for n_plates in (1, 2):
            block = report["per_plate_count"][n_plates]
            assert set(block) == {"stage1", "stage2", "stage3"}
            assert len(block["stage2"]) == 7
            assert len(block["stage3"]) == 6

    def test_stage1_quality(self, report):
        for n_plates in (1, 2):
            stage1 = report["per_plate_count"][n_plates]["stage1"]
            assert stage1["reconstruction_fidelity"] > 0.99
            assert 0.0 < stage1["truth_entropy_bits"] <= 1.0

    def test_component_reconstructions_near_pure_truth(self, report):
        for entry in report["per_plate_count"][1]["stage2"]:
            assert entry["fidelity_vs_pure_truth"] > 0.995

    def test_full_subset_tracks_broadband(self, report):
        stage3 = {tuple(e["subset"]): e for e in report["per_plate_count"][1]["stage3"]}
        assert stage3[(1, 2, 3, 4, 5, 6, 7)]["fidelity_vs_broadband"] > 0.99
        assert (
            stage3[(2, 3, 7)]["fidelity_vs_broadband"]
            < stage3[(2, 4, 6)]["fidelity_vs_broadband"]
        )

    def test_config_round_trip(self):
        config = MixedWorkflowConfig(knots=401)
        assert MixedWorkflowConfig.from_dict(config.to_dict()) == config

    def test_solver_status_recorded(self, report):
        for n_plates in (1, 2):
            block = report["per_plate_count"][n_plates]
            for entry in [block["stage1"], *block["stage2"]]:
                assert entry["stop_reason"] in ("residual", "stationary")
                assert 1 <= entry["iterations"] <= 500
            # the rank-1 component solves start at the data's linear
            # inversion; from a fixed start they took about 21 iterations
            for entry in block["stage2"]:
                assert entry["iterations"] <= 8

    def test_protocol_built_once(self, monkeypatch):
        import chitomo.harness as harness

        calls = []
        real = harness.bn_state_protocol

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "bn_state_protocol", counting)
        run_mixed_state_workflow(MixedWorkflowConfig(knots=201, span=15.0, n_events=5000))
        assert len(calls) == 1

    def test_report_equals_per_set_path(self, monkeypatch):
        # the stacked truths, count synthesis and component sums give the
        # report of one generate_counts call per count set, separate
        # broadband and monochromatic calls per plate count and one sum per
        # subset, compared exactly
        config = MixedWorkflowConfig(seed=9)
        stacked = run_mixed_state_workflow(config)

        def per_set_counts(rows, truths, n_total, seeds):
            return [
                generate_counts_per_set(rows, truth, ExperimentPlan(n_total, seed))
                for truth, seed in zip(truths, seeds)
            ]

        def separate_truths(input_state, plates, profile, wavelengths):
            counts = range(1, len(plates) + 1)
            return (
                np.stack([broadband_mixed_state(input_state, plates[:n], profile) for n in counts]),
                np.stack([monochromatic_states(input_state, plates[:n], wavelengths) for n in counts]),
            )

        monkeypatch.setattr(harness, "generate_counts_batch", per_set_counts)
        monkeypatch.setattr(harness, "plate_count_states", separate_truths)
        monkeypatch.setattr(harness, "component_sum_states", component_sums_per_subset)
        per_set = run_mixed_state_workflow(config)
        assert json.dumps(per_set, sort_keys=True) == json.dumps(stacked, sort_keys=True)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # checked when the config is built, before any output exists
            ({"measurement_orientations": 4}, r"B4 with plate retardance .* incomplete"),
            ({"measurement_plate_um": 1e-6}, r"B36 with plate retardance 0\.0000 rad"),
            ({"lam0_um": 2.9}, r"wavelength 3\.0\d* um outside quartz dispersion window"),
            ({"component_lams_um": ()}, "component_lams_um must not be empty"),
            ({"subsets": ((0, 1),)}, r"subsets\[0\]: index 0 outside 1\.\.7"),
            ({"subsets": ((1, 2), (1, 9))}, r"subsets\[1\]: index 9 outside 1\.\.7"),
            ({"subsets": ((),)}, r"subsets\[0\] must not be empty"),
            ({"subsets": ((1.5,),)}, r"subsets\[0\]: index 1\.5 is not an integer"),
            ({"component_lams_um": (1.0, 1.002), "subsets": ((1, 3),)}, r"outside 1\.\.2"),
            # 1000 components would give the 1-plate component 999 the seed
            # key 2000 of the 2-plate broadband counts
            ({"component_lams_um": (1.0,) * 1000, "subsets": ((1,),)}, r"component_lams_um holds 1000"),
        ],
    )
    def test_invalid_config_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            MixedWorkflowConfig(**overrides)

    def test_thin_plate_checks_only_central_wavelength(self):
        # a thin plate acts at lam0 only, so a spectrum reaching past the
        # quartz window is accepted, as the run accepts it
        config = MixedWorkflowConfig(lam0_um=2.9, plate_thickness_um=500.0, knots=201)
        assert config.profile().wavelengths[-1] > 3.0


class TestRetarderFit:
    def test_synthetic_photoelastic_analog(self):
        # Forward-simulate a multi-order stress retarder and compare against
        # the fold-reduced truth (multi-order retardance is not recoverable).
        lam, thickness = 1.0, 25400.0
        alpha_true = np.deg2rad(91.0)
        delta_true = np.pi * 2.2e-3 * thickness / lam
        u = plate_unitary(delta_true, alpha_true)
        psi = vectorize(u) / np.sqrt(2)
        choi = np.outer(psi, psi.conj())

        delta_fold = delta_true % np.pi
        alpha_fold = alpha_true
        if delta_fold > np.pi / 2:
            delta_fold = np.pi - delta_fold
            alpha_fold = (alpha_true + np.pi / 2) % np.pi

        report = run_retarder_fit(choi, lam, thickness)
        assert not report["degenerate"]
        assert report["alpha_rad"] == pytest.approx(alpha_fold, abs=np.deg2rad(0.5))
        assert report["delta_rad"] == pytest.approx(delta_fold, abs=1e-9)
        dn_fold = delta_fold * lam / (np.pi * thickness)
        assert report["birefringence"] == pytest.approx(dn_fold, abs=5e-5)
        # the fitted pair reproduces the true SU(2) element up to sign
        m_fit = su2_from_retarder(report["delta_rad"], report["alpha_rad"]).matrix()
        m_true = np.conj(u)
        err = min(np.max(np.abs(m_fit - m_true)), np.max(np.abs(m_fit + m_true)))
        assert err < 1e-9

    def test_identity_process_is_degenerate(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        report = run_retarder_fit(np.outer(phi, phi), 1.0, 1000.0)
        assert report["degenerate"]
        assert report["delta_rad"] == 0.0

    def test_mixed_process_refused(self, plate_truth):
        with pytest.raises(EstimateTooMixedError, match="share"):
            run_retarder_fit(plate_truth, 1.1509, 5024.0)

    def test_share_threshold_respected(self, plate_truth):
        report = run_retarder_fit(plate_truth, 1.1509, 5024.0, min_dominant_share=0.8)
        assert report["dominant_share"] == pytest.approx(0.84212, abs=5e-3)
        assert report["mixedness"] > 0.1
