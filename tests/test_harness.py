import dataclasses
import json
import math

import numpy as np
import pytest

from chitomo import harness, ml_engine, protocols
from chitomo.harness import (
    CampaignConfig,
    CampaignResult,
    EstimateTooMixedError,
    MixedWorkflowConfig,
    ScalingConfig,
    TruthSpec,
    build_truth,
    derive_seeds,
    run_mc_campaign,
    run_mixed_state_workflow,
    run_retarder_fit,
    run_scaling_study,
)
from chitomo.protocols import Measurements
from chitomo.quantum_core import fidelity, vectorize, von_neumann_entropy
from chitomo.waveplate import (
    WaveplateSpec,
    broadband_mixed_state,
    plate_choi_state,
    plate_unitary,
    sinc2_profile,
)
from process_oracles import (
    bootstrap_ratio_lower_bound,
    component_sums_per_subset,
    derive_seed,
    generate_counts_per_set,
    monochromatic_states,
    plate_choi_state_per_knot,
    replications_one_by_one,
    su2_from_retarder,
)

# a scaling study's cells set their own n_events
QUICK_SCALING = {"replications": 6, "scenario": "test"}
QUICK = {**QUICK_SCALING, "n_events": 2000}


class TestSeedsAndTruth:
    def test_derive_seed_deterministic_and_distinct(self):
        a = [derive_seed(7, i) for i in range(50)]
        b = [derive_seed(7, i) for i in range(50)]
        assert a == b
        assert len(set(a)) == 50
        assert derive_seed(8, 0) != derive_seed(7, 0)

    @pytest.mark.parametrize(
        "campaign_seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**200]
    )
    def test_derive_seeds_equal_seed_sequence(self, campaign_seed):
        # one to seven seed words (past the pool of 4 from 2**128 on) and
        # one- and two-word keys: every derived integer is numpy's, to the bit
        keys = [0, *range(1000, 2008), 2**40]
        expected = [
            int(
                np.random.SeedSequence(campaign_seed, spawn_key=(key,)).generate_state(
                    1, np.uint64
                )[0]
            )
            for key in keys
        ]
        assert derive_seeds(campaign_seed, keys) == expected
        assert [derive_seed(campaign_seed, key) for key in (0, 1500, 2**40)] == [
            expected[0], expected[501], expected[-1]
        ]
        assert all(type(seed) is int for seed in derive_seeds(campaign_seed, keys))

    def test_derive_seeds_rejects_negative_values(self):
        with pytest.raises(ValueError):
            derive_seeds(-1, [0])
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds(1, [0, -3])
        assert derive_seeds(5, []) == []

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

    def test_rank_truncated_truth_equals_per_knot_oracle(self):
        spec = TruthSpec(rank=1, knots=201)
        want = harness._truncate_rank(plate_choi_state_per_knot(spec.plate(), spec.profile), 1)
        assert build_truth(spec).tobytes() == want.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^kind must be one of plate, identity, got 'myst"):
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

    def test_modes_above_cut_use_the_solver_cutoff(self, monkeypatch):
        # one definition of F's range for the solver and the campaign, at
        # 1e-8 times the largest eigenvalue
        assert harness.EIGEN_CUTOFF is ml_engine.EIGEN_CUTOFF == 1e-8
        for seed, rank in ((5, 1), (5, 2), (7, 4)):
            config = CampaignConfig.from_dict({**QUICK, "seed": seed, "reconstruction_rank": rank})
            result = run_mc_campaign(config)
            spectrum = result.info_spectrum
            assert result.info_modes_above_cut == int(np.sum(spectrum > 1e-8 * spectrum[0]))
            if rank < 4:  # an adequate model: nu data modes and 4 pinned by the auxiliary rows
                assert result.info_modes_above_cut == result.nu + 4
        monkeypatch.setattr(harness, "EIGEN_CUTOFF", 0.5)
        assert run_mc_campaign(config).info_modes_above_cut == 1

    def test_deterministic(self):
        config = CampaignConfig.from_dict({**QUICK, "seed": 11})
        a = run_mc_campaign(config)
        b = run_mc_campaign(config)
        assert np.array_equal(a.fidelities, b.fidelities)
        assert a.mean_loss == b.mean_loss

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


# the campaigns whose every output the batched path must reproduce: the
# first 40 replications of the acceptance cell (rank 2, n=1e3) and of the
# rank-4 campaign, the J4 and B4 protocols, identity and rank-1 truths, and
# solves capped at 2 iterations
ORACLE_CAMPAIGNS = {
    "acceptance-cell": {"seed": 17260451438471865157, "n_events": 1000, "replications": 40},
    "rank-4": {"seed": 987654321, "reconstruction_rank": 4, "replications": 40},
    "J4": {**QUICK, "protocol": "J4", "seed": 21},
    "B4": {**QUICK, "protocol": "B4", "seed": 22},
    "identity": {**QUICK, "truth": {"kind": "identity"}, "seed": 23},
    "rank-1": {**QUICK, "truth": {"rank": 1, "knots": 201}, "seed": 24},
    "capped": {**QUICK, "max_iterations": 2, "seed": 25},
}


def one_by_one(config: CampaignConfig, monkeypatch) -> CampaignResult:
    # the campaign with each replication synthesized and solved on its own
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_solve_replications", replications_one_by_one)
        return run_mc_campaign(config)


def assert_same_bits(result: CampaignResult, oracle: CampaignResult) -> None:
    for f in dataclasses.fields(CampaignResult):
        got, want = getattr(result, f.name), getattr(oracle, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert repr(got) == repr(want), f.name  # repr is exact for floats


class TestReplicationsAsOneBatch:
    """A campaign synthesizes its count sets, builds its auxiliary rows,
    solves and scores once, as one batch; every output bit stays that of
    one replication at a time."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CAMPAIGNS))
    def test_equals_one_by_one(self, monkeypatch, name):
        config = CampaignConfig.from_dict(ORACLE_CAMPAIGNS[name])
        result = run_mc_campaign(config)
        assert_same_bits(result, one_by_one(config, monkeypatch))
        if name == "capped":
            assert result.failures == list(range(config.replications))

    def test_one_synthesis_solve_and_scoring_per_campaign(self, monkeypatch):
        calls = {"batch": [], "aux": 0, "solve": [], "fidelity": []}
        batch, aux, solve, score = (
            protocols.generate_counts_batch,
            protocols.auxiliary_rows,
            harness.solve_likelihood_batch,
            harness.fidelity,
        )

        def counting_batch(rows, truths, n_total, seeds):
            calls["batch"].append((np.ndim(truths), list(seeds)))
            return batch(rows, truths, n_total, seeds)

        def counting_aux(*args):
            calls["aux"] += 1
            return aux(*args)

        def counting_solve(data, config):
            calls["solve"].append(len(data.exposures))
            return solve(data, config)

        def counting_fidelity(rho0, rho):
            calls["fidelity"].append(np.shape(rho))
            return score(rho0, rho)

        def no_lone_solve(data, config):
            raise AssertionError("a replication was solved alone")

        monkeypatch.setattr(protocols, "generate_counts_batch", counting_batch)
        monkeypatch.setattr(protocols, "auxiliary_rows", counting_aux)
        monkeypatch.setattr(harness, "solve_likelihood_batch", counting_solve)
        monkeypatch.setattr(harness, "fidelity", counting_fidelity)
        monkeypatch.setattr(ml_engine, "solve_likelihood", no_lone_solve)
        config = CampaignConfig.from_dict({**QUICK, "seed": 8})
        run_mc_campaign(config)
        assert calls == {
            "batch": [(2, derive_seeds(8, range(6)))],
            "aux": 1,
            "solve": [6],
            "fidelity": [(6, 4, 4)],
        }
        # a scaling study runs one campaign, and so one batch, per cell
        calls["solve"].clear()
        study = ScalingConfig.from_dict(
            {**QUICK_SCALING, "replications": 3, "n_list": [1000, 2000, 4000], "ranks": [2, 1]}
        )
        run_scaling_study(study)
        assert calls["solve"] == [3] * 6

    def test_non_finite_truth_fails_every_replication_alike(self, monkeypatch):
        monkeypatch.setattr(harness, "build_truth", lambda spec: np.full((4, 4), np.nan, complex))
        config = CampaignConfig.from_dict({**QUICK, "seed": 9})
        result = run_mc_campaign(config)
        text = "ValueError: total expected rate nan is not usable"
        assert result.failure_reasons == {i: text for i in range(6)}
        assert np.isnan(result.fidelities).all()
        assert_same_bits(result, one_by_one(config, monkeypatch))

    def test_replication_without_counts_fails_alone_in_the_one_solve(self, monkeypatch):
        # replication 3's count set has no counts: its lane leaves the
        # campaign's one batch at the set-up with the text of its own solve,
        # nothing is solved alone, and the other replications keep their
        # bits
        config = CampaignConfig.from_dict({**QUICK, "seed": 12})
        aux, synthesize = protocols.auxiliary_rows, protocols.generate_counts_batch

        def no_auxiliary_counts(*args):
            rows = aux(*args)
            return dataclasses.replace(rows, counts=np.zeros_like(rows.counts))

        def no_counts_in_set_3(rows, truth, n_total, seeds):
            sets = synthesize(rows, truth, n_total, seeds)
            counts = sets.counts.copy()
            counts[3] = 0.0
            return dataclasses.replace(sets, counts=counts)

        monkeypatch.setattr(protocols, "auxiliary_rows", no_auxiliary_counts)
        clean = run_mc_campaign(config)
        assert not clean.failures
        calls = {"solve": [], "fidelity": []}
        solve, score = harness.solve_likelihood_batch, harness.fidelity

        def counting_solve(data, solver):
            calls["solve"].append(len(data.exposures))
            return solve(data, solver)

        def counting_fidelity(rho0, rho):
            calls["fidelity"].append(np.shape(rho))
            return score(rho0, rho)

        def no_lone_solve(data, solver):
            raise AssertionError("a replication was solved alone")

        monkeypatch.setattr(protocols, "generate_counts_batch", no_counts_in_set_3)
        monkeypatch.setattr(harness, "solve_likelihood_batch", counting_solve)
        monkeypatch.setattr(harness, "fidelity", counting_fidelity)
        monkeypatch.setattr(ml_engine, "solve_likelihood", no_lone_solve)
        result = run_mc_campaign(config)
        assert calls == {"solve": [6], "fidelity": [(5, 4, 4)]}
        assert result.failure_reasons == {3: "ValueError: no observed counts"}
        assert math.isnan(result.fidelities[3])
        seed = clean.replications[3]["seed"]
        assert result.replications[3] == {**dict.fromkeys(harness.REPLICATION_FIELDS), "seed": seed}
        others = [0, 1, 2, 4, 5]
        assert result.fidelities[others].tobytes() == clean.fidelities[others].tobytes()
        assert [result.replications[i] for i in others] == [clean.replications[i] for i in others]

    @pytest.mark.parametrize("rank, nu", [(1, 3), (2, 8)])
    def test_failed_replication_0_keeps_nu(self, monkeypatch, rank, nu):
        # replication 0's count set and the auxiliary rows hold no counts:
        # its solve raises, so the campaign has no spectrum to report, but
        # nu is the model's parameter count whichever replications failed
        config = CampaignConfig.from_dict({**QUICK, "seed": 12, "reconstruction_rank": rank})
        aux, synthesize = protocols.auxiliary_rows, protocols.generate_counts_batch

        def no_auxiliary_counts(*args):
            rows = aux(*args)
            return dataclasses.replace(rows, counts=np.zeros_like(rows.counts))

        def no_counts_in_set_0(rows, truth, n_total, seeds):
            sets = synthesize(rows, truth, n_total, seeds)
            counts = sets.counts.copy()
            counts[0] = 0.0
            return dataclasses.replace(sets, counts=counts)

        monkeypatch.setattr(protocols, "auxiliary_rows", no_auxiliary_counts)
        clean = run_mc_campaign(config)
        monkeypatch.setattr(protocols, "generate_counts_batch", no_counts_in_set_0)
        result = run_mc_campaign(config)
        assert result.failure_reasons == {0: "ValueError: no observed counts"}
        assert len(result.failures) == 1
        assert result.nu == clean.nu == nu
        assert result.info_spectrum.size == 0 and result.info_modes_above_cut == 0
        assert clean.info_spectrum.size == 8 * rank


class TestScalingStudy:
    def test_slopes_negative_and_reported(self):
        config = ScalingConfig.from_dict(
            {**QUICK_SCALING, "replications": 8, "seed": 3, "n_list": [10**3, 10**4, 10**5],
             "ranks": [2]}
        )
        study = run_scaling_study(config)
        out = study["per_rank"][2]
        assert len(out["mean_loss"]) == 3
        assert out["mean_loss"][0] > out["mean_loss"][-1]
        assert out["slope"] < -0.5

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3 sample sizes, got 2"):
            ScalingConfig.from_dict({**QUICK_SCALING, "n_list": [10, 100]})


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
        # the stacked layers give the report of one generate_counts call per
        # count set, separate broadband and monochromatic calls per plate
        # count, one sum per subset, and one fidelity, von_neumann_entropy
        # and component_sum_states call per plate count, compared exactly
        stacked_layers = (
            "plate_count_states", "generate_counts_batch", "component_sum_states",
            "fidelity", "von_neumann_entropy",
        )
        calls = []
        for name in stacked_layers:
            real = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args)
            )
        config = MixedWorkflowConfig(seed=9)
        assert calls == ["plate_count_states"]  # the truths are built with the config
        stacked = run_mixed_state_workflow(config)
        assert sorted(calls) == sorted(stacked_layers)  # each layer runs once
        monkeypatch.undo()

        def per_set_counts(rows, truths, n_total, seeds):
            sets = [
                generate_counts_per_set(rows, truth, n_total, seed)
                for truth, seed in zip(truths, seeds)
            ]
            return Measurements(
                rows.operators,
                [data.exposures for data in sets],
                [data.counts for data in sets],
                rows.auxiliary,
            )

        def separate_truths(input_state, plates, profile, wavelengths):
            counts = range(1, len(plates) + 1)
            return (
                np.stack([broadband_mixed_state(input_state, plates[:n], profile) for n in counts]),
                np.stack([monochromatic_states(input_state, plates[:n], wavelengths) for n in counts]),
            )

        n_components = len(config.component_lams_um)
        n_subsets = len(config.subsets)

        def sums_per_plate_count(states, weights, subsets):
            # plate count i's subsets index the block i of the estimates
            mixtures = []
            for i in range(len(subsets) // n_subsets):
                block = slice(i * n_components, (i + 1) * n_components)
                own = [
                    [j - i * n_components for j in subset]
                    for subset in subsets[i * n_subsets : (i + 1) * n_subsets]
                ]
                mixtures.append(component_sums_per_subset(states[block], weights[block], own))
            return np.concatenate(mixtures)

        def per_plate_count(func):
            # one call on each plate count's row of the stacks
            return lambda *stacks: np.stack([func(*rows) for rows in zip(*stacks)])

        monkeypatch.setattr(harness, "generate_counts_batch", per_set_counts)
        monkeypatch.setattr(harness, "plate_count_states", separate_truths)
        monkeypatch.setattr(harness, "component_sum_states", sums_per_plate_count)
        monkeypatch.setattr(harness, "fidelity", per_plate_count(fidelity))
        monkeypatch.setattr(harness, "von_neumann_entropy", per_plate_count(von_neumann_entropy))
        per_set = run_mixed_state_workflow(MixedWorkflowConfig(seed=9))
        assert json.dumps(per_set, sort_keys=True) == json.dumps(stacked, sort_keys=True)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # checked when the config is built, before any output exists
            ({"measurement_orientations": 4}, r"B4 with plate retardance .* incomplete"),
            ({"measurement_plate_um": 1e-6}, r"B36 with plate retardance 0\.0000 rad"),
            ({"lam0_um": 2.9}, r"wavelength 3\.0\d* um outside quartz dispersion window"),
            # a thin plate's components are checked as a thick plate's
            (
                {"plate_thickness_um": 500.0, "component_lams_um": (1.0, 3.5), "subsets": ((1, 2),)},
                r"wavelength 3\.5 um outside quartz dispersion window",
            ),
            (
                {"component_lams_um": (1.0, 0.15), "subsets": ((1, 2),)},
                r"wavelength 0\.15 um outside quartz dispersion window",
            ),
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
        assert config.profile.wavelengths[-1] > 3.0


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

        report = run_retarder_fit(choi, lam, thickness, 0.95)
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
        report = run_retarder_fit(np.outer(phi, phi), 1.0, 1000.0, 0.95)
        assert report["degenerate"]
        assert report["delta_rad"] == 0.0

    def test_mixed_process_refused(self, plate_truth):
        with pytest.raises(EstimateTooMixedError, match="share"):
            run_retarder_fit(plate_truth, 1.1509, 5024.0, 0.95)

    def test_share_threshold_respected(self, plate_truth):
        report = run_retarder_fit(plate_truth, 1.1509, 5024.0, min_dominant_share=0.8)
        assert report["dominant_share"] == pytest.approx(0.84212, abs=5e-3)
        assert report["mixedness"] > 0.1
