import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo import ml_engine
from chitomo.harness import TruthSpec, build_truth, derive_seeds
from chitomo.ml_engine import (
    ReconstructionConfig,
    _fisher,
    _initial_point,
    _tangent_layout,
    _perturbation,
    _surrogate,
    solve_likelihood,
    solve_likelihood_batch,
)
from chitomo.protocols import (
    IncompleteProtocolError,
    Measurements,
    auxiliary_rows,
    bn_state_protocol,
    generate_counts_batch,
    process_datasets,
    process_protocol,
)
from chitomo.quantum_core import fidelity
from process_oracles import (
    each_lane,
    each_result,
    expected_rates,
    fisher_matrices,
    generate_counts,
    log_likelihood,
    newton_step,
    real_embedding,
    saturated_log_likelihood,
)
from random_ops import random_density_matrix, random_unitary
from chitomo.waveplate import WaveplateSpec, broadband_mixed_state, sinc2_profile


def purify(rho, rank):
    w, u = np.linalg.eigh(rho)
    w, u = w[::-1][:rank], u[:, ::-1][:, :rank]
    return u * np.sqrt(np.clip(w, 0, None))


def noiseless_counts(rows, truth, n):
    """Rows with exposures scaled to n expected events and the expected
    (non-integer) counts in place of observed ones."""
    rates = np.array([np.real(np.trace(op @ truth)) for op in rows.operators])
    t = n / rates.sum()
    return Measurements(rows.operators, np.full(len(rates), t), rates * t), t


def noiseless_rows(protocol, truth, n=10**4):
    data, t = noiseless_counts(protocol.rows, truth, n)
    aux = auxiliary_rows(protocol.input_states, 16 * t)
    return data + replace(aux, counts=aux.exposures / 2.0)


def poisson_rows(protocol, truth, n=10**4, seed=0, aux_scale=1.0):
    # aux_scale multiplies the auxiliary rows' exposure, AUXILIARY_WEIGHT
    # times the measured rows' total
    data = generate_counts(protocol.rows, truth, n, seed)
    return data + auxiliary_rows(protocol.input_states, aux_scale * sum(data.exposures))


class TestExpectedRates:
    def test_projector_onto_itself(self, rng):
        psi = random_density_matrix(4, rng, rank=1)
        c = purify(psi, 1)
        rows = Measurements([psi], [1.0])
        assert expected_rates(c, rows)[0] == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_scaling(self, rng):
        c = purify(random_density_matrix(4, rng), 2)
        rows = Measurements([random_density_matrix(4, rng) for _ in range(3)], np.ones(3))
        assert_allclose(expected_rates(1.7 * c, rows), 1.7**2 * expected_rates(c, rows))

    def test_matches_trace_oracle(self, rng):
        rho = random_density_matrix(4, rng, rank=3)
        c = purify(rho, 3)
        ops = [random_density_matrix(4, rng) for _ in range(5)]
        rows = Measurements(ops, np.ones(5))
        oracle = [np.real(np.trace(op @ rho)) for op in ops]
        assert_allclose(expected_rates(c, rows), oracle, atol=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="dim"):
            expected_rates(
                purify(random_density_matrix(2, rng), 1), Measurements([np.eye(4)], [1.0])
            )


def surrogate(c, rows):
    # the solver's likelihood surrogate at c, one lane
    k, t = rows.counts[None], rows.exposures[None]
    return _surrogate(expected_rates(c, rows)[None], k, t, np.where(k > 0, k, 1.0))[0]


class TestLogLikelihood:
    """The oracle's textbook Poisson log-likelihood and the solver's
    surrogate, which is it minus the saturated model's value."""

    def test_zero_rate_with_counts_is_failure(self):
        rows = Measurements([np.diag([1.0, 0.0])], [1.0], [5])
        c = np.array([[0.0], [1.0]], dtype=complex)
        assert log_likelihood(c, rows) == -np.inf
        assert surrogate(c, rows) == -np.inf

    def test_empty_row_changes_nothing(self):
        c = np.array([[0.0], [1.0]], dtype=complex)
        base = Measurements([np.diag([0.0, 1.0])], [2.0], [3])
        extra = base + Measurements([np.diag([1.0, 0.0])], [2.0], [0])
        assert log_likelihood(c, extra) == pytest.approx(log_likelihood(c, base))
        assert surrogate(c, extra) == surrogate(c, base)

    def test_saturated_model_shift(self):
        # rate 1, exposure 2, count 3: 3 ln(2/3) - (2 - 3) against
        # 3 ln 2 - 2 - ln 3!, their gap 3 ln 3 - 3 - ln 3!
        c = np.array([[0.0], [1.0]], dtype=complex)
        rows = Measurements([np.diag([0.0, 1.0])], [2.0], [3])
        assert surrogate(c, rows) == pytest.approx(3 * math.log(2 / 3) + 1, rel=1e-15)
        assert saturated_log_likelihood(rows.counts) == pytest.approx(
            3 * math.log(3) - 3 - math.lgamma(4.0), rel=1e-15
        )
        assert surrogate(c, rows) == pytest.approx(
            log_likelihood(c, rows) - saturated_log_likelihood(rows.counts), rel=1e-14
        )

    def test_gradient_against_finite_differences(self, rng, plate_truth):
        proto = process_protocol("R4")
        rows = poisson_rows(proto, plate_truth, seed=11)
        c = purify(random_density_matrix(4, rng), 2)
        # keep the point on the data's normalization scale so the likelihood
        # stays O(n) and central differences are not drowned by roundoff
        counts = rows.counts.sum()
        c *= np.sqrt(counts / np.dot(expected_rates(c, rows), rows.exposures))
        i_mat, j_mat = fisher_matrices(c, rows)
        grad = 2.0 * (j_mat - i_mat) @ c
        eps = 1e-6
        for idx in [(0, 0), (2, 1), (3, 0)]:
            for part, expected in ((1.0, grad[idx].real), (1j, grad[idx].imag)):
                dc = np.zeros_like(c)
                dc[idx] = part * eps
                num = (log_likelihood(c + dc, rows) - log_likelihood(c - dc, rows)) / (2 * eps)
                assert num == pytest.approx(expected, rel=1e-4, abs=1e-5)


class TestFisherMatrices:
    def test_single_row(self, rng):
        op = random_density_matrix(4, rng)
        rows = Measurements([op], [1.0], [1])
        i_mat, _ = fisher_matrices(purify(random_density_matrix(4, rng), 2), rows)
        assert_allclose(i_mat, op, atol=1e-15)

    def test_exact_counts_give_equal_matrices(self, plate_truth):
        proto = process_protocol("J4")
        rows = noiseless_rows(proto, plate_truth)
        c = purify(plate_truth, 2)
        c *= np.sqrt(rows.counts.sum() / np.dot(expected_rates(c, rows), rows.exposures))
        i_mat, j_mat = fisher_matrices(c, rows)
        assert np.max(np.abs(i_mat - j_mat)) < 1e-9 * np.max(np.abs(i_mat))

    def test_positive_definite_for_j4_with_aux(self, plate_truth):
        proto = process_protocol("J4")
        rows = poisson_rows(proto, plate_truth, seed=2)
        i_mat, _ = fisher_matrices(purify(plate_truth, 2), rows)
        assert np.linalg.eigvalsh(i_mat).min() > 0


def fisher_at(c, rows):
    lam = expected_rates(c, rows)
    return _fisher(c[None], _tangent_layout(rows.operators), rows.exposures[None], lam[None])[0]


class TestInformationMatrix:
    def test_psd_and_sorted(self, rng, plate_truth):
        proto = process_protocol("R4")
        rows = poisson_rows(proto, plate_truth, seed=5)
        c = purify(random_density_matrix(4, rng), 2)
        w = np.linalg.eigvalsh(fisher_at(c, rows))
        assert w.min() > -1e-8 * w.max()
        spec = solve_likelihood(rows, ReconstructionConfig(rank=2)).info_spectrum
        assert spec.size == 16
        assert np.all(np.diff(spec) <= 0)

    def test_rank_bound_one_per_row(self, rng):
        ops = [random_density_matrix(4, rng) for _ in range(3)]
        rows = Measurements(ops, np.ones(3), np.ones(3))
        c = purify(random_density_matrix(4, rng), 2)
        w = np.linalg.eigvalsh(fisher_at(c, rows))
        assert np.sum(w > 1e-12 * w.max()) <= len(rows.operators)

    def test_linear_in_exposure(self, rng):
        ops = [random_density_matrix(4, rng) for _ in range(4)]
        c = purify(random_density_matrix(4, rng), 2)
        h1 = fisher_at(c, Measurements(ops, np.full(4, 1.0), np.ones(4)))
        h2 = fisher_at(c, Measurements(ops, np.full(4, 2.0), np.ones(4)))
        assert_allclose(h2, 2 * h1, atol=1e-12)

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("protocol", ["J4", "R4", "B4"])
    def test_reported_spectrum_splits_into_pinned_data_and_gauge_modes(self, protocol, rank, n):
        """With the plate truth at the model rank, the 2*d*r reported
        eigenvalues are nu data modes plus the s^2 = 4 modes pinned by the
        auxiliary rows above 1e-8 times the largest, and r^2 gauge nulls."""
        truth = build_truth(TruthSpec(rank=rank))
        proto = process_protocol(protocol)
        for seed in range(20):
            res = solve_likelihood(
                poisson_rows(proto, truth, n=n, seed=seed), ReconstructionConfig(rank=rank)
            )
            spec = res.info_spectrum
            assert spec.size == 2 * 4 * rank
            assert np.all(np.diff(spec) <= 0)
            above = int(np.sum(spec > 1e-8 * spec[0]))
            assert (above, spec.size - above) == (res.nu + 4, rank**2), (seed, res.stop_reason)


class TestSolveLikelihood:
    def test_fixed_point_of_exact_counts(self, plate_truth):
        proto = process_protocol("R4")
        rows = noiseless_rows(proto, plate_truth)
        c = purify(plate_truth, 2)
        c *= np.sqrt(rows.counts.sum() / np.dot(expected_rates(c, rows), rows.exposures))
        i_mat, j_mat = fisher_matrices(c, rows)
        step = np.linalg.solve(i_mat, j_mat @ c)
        assert np.max(np.abs(step - c)) < 1e-12 * np.max(np.abs(c))

    def test_noiseless_rank2_recovers_truth(self, plate_truth):
        proto = process_protocol("J4")
        res = solve_likelihood(noiseless_rows(proto, plate_truth), ReconstructionConfig(rank=2))
        assert res.converged
        assert fidelity(res.estimate, plate_truth) >= 1 - 1e-6

    def test_noiseless_identity_recovers_maximally_entangled(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        identity_choi = np.outer(phi, phi)
        proto = process_protocol("R4")
        res = solve_likelihood(noiseless_rows(proto, identity_choi), ReconstructionConfig(rank=1))
        assert fidelity(res.estimate, identity_choi) >= 1 - 1e-6

    def test_poisson_reconstruction_quality(self, plate_truth):
        proto = process_protocol("R4")
        res = solve_likelihood(poisson_rows(proto, plate_truth, seed=42), ReconstructionConfig(rank=2))
        assert res.converged
        assert fidelity(res.estimate, plate_truth) > 0.99
        assert res.nu == 8
        assert res.tp_residual < 0.05

    def test_normalization_identity_at_convergence(self, plate_truth):
        proto = process_protocol("J4")
        res = solve_likelihood(poisson_rows(proto, plate_truth, seed=8), ReconstructionConfig(rank=2))
        assert res.normalization_gap < 1e-8

    def test_gauge_invariance(self, rng, plate_truth):
        proto = process_protocol("R4")
        rows = poisson_rows(proto, plate_truth, seed=3)
        c = purify(plate_truth, 2)
        counts = rows.counts.sum()
        c *= np.sqrt(counts / np.dot(expected_rates(c, rows), rows.exposures))
        u = random_unitary(2, rng)
        mixed = c @ u
        assert_allclose(mixed @ mixed.conj().T, c @ c.conj().T, atol=1e-10)
        assert_allclose(expected_rates(mixed, rows), expected_rates(c, rows), atol=1e-9)
        assert log_likelihood(mixed, rows) == pytest.approx(
            log_likelihood(c, rows), rel=1e-12, abs=1e-6
        )

    def test_tp_residual_shrinks_with_aux_weight(self, plate_truth):
        proto = process_protocol("R4")
        residuals = []
        for aux_scale in (0.1, 1.0, 10.0):
            rows = poisson_rows(proto, plate_truth, seed=6, aux_scale=aux_scale)
            res = solve_likelihood(rows, ReconstructionConfig(rank=2))
            residuals.append(res.tp_residual)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_incomplete_protocol_raises(self, plate_truth):
        proto = process_protocol("J4")
        rows = poisson_rows(proto, plate_truth, seed=0)
        rows = Measurements(rows.operators[:4], rows.exposures[:4], rows.counts[:4])
        with pytest.raises(IncompleteProtocolError, match="singular"):
            solve_likelihood(rows, ReconstructionConfig(rank=2))

    def test_rank_validation(self, plate_truth):
        proto = process_protocol("J4")
        rows = poisson_rows(proto, plate_truth, seed=0)
        with pytest.raises(ValueError, match="rank"):
            solve_likelihood(rows, ReconstructionConfig(rank=5))
        with pytest.raises(ValueError, match="rank"):
            ReconstructionConfig(rank=0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 1, got 0"):
            ReconstructionConfig(rank=2, max_iterations=0)
        assert [f.name for f in dataclasses.fields(ReconstructionConfig)] == [
            "rank", "max_iterations"
        ]

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"rank": 2.0}, "rank"),
            ({"rank": True}, "rank"),
            ({"rank": 2, "max_iterations": 50.5}, "max_iterations"),
        ],
    )
    def test_integer_fields(self, fields, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ReconstructionConfig(**fields)

    def test_deterministic_for_fixed_inputs(self, plate_truth):
        proto = process_protocol("R4")
        rows = poisson_rows(proto, plate_truth, seed=21)
        a = solve_likelihood(rows, ReconstructionConfig(rank=2))
        b = solve_likelihood(rows, ReconstructionConfig(rank=2))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.iterations == b.iterations


def initial_point(rows, rank):
    """The batched start of one dataset."""
    ops_flat = rows.operators.reshape(len(rows.operators), -1)
    return _initial_point(ops_flat, rows.exposures[None], rows.counts[None], rank)[0]


def start_columns(rows, rank):
    """The start without its seeded perturbation: column norms squared are
    the floored, trace-normalized eigenvalues of the linear-inversion
    estimate."""
    c0 = initial_point(rows, rank) - _perturbation(rows.operators.shape[1], rank)
    return c0, np.sum(np.abs(c0) ** 2, axis=0)


class TestInitialPoint:
    """The solve starts from the rank-r truncation of the weighted
    linear-inversion estimate, so noiseless data start at the truth."""

    @pytest.mark.parametrize(
        "rho",
        [
            np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]),
            np.diag([0.9, 0.1]).astype(complex),
            np.eye(2, dtype=complex) / 2,
        ],
        ids=["generic", "diagonal", "maximally-mixed"],
    )
    def test_noiseless_full_rank_state_starts_at_truth(self, rho):
        rows, _ = noiseless_counts(bn_state_protocol(36, 312.7, 1.0), rho, 10**5)
        c0 = initial_point(rows, 2)
        # the truth up to the seeded perturbation of 1e-3 per entry
        assert np.max(np.abs(c0 @ c0.conj().T - rho)) < 5e-3
        res = solve_likelihood(rows, ReconstructionConfig(rank=2))
        assert res.stop_reason == "residual"
        # the third iterate is within 1.6e-9 (Fisher scoring's within 6e-10)
        assert res.iterations <= 4

    @pytest.mark.parametrize("protocol", ["J4", "R4", "B4"])
    def test_noiseless_process_starts_at_truth(self, plate_truth, protocol):
        rows = noiseless_rows(process_protocol(protocol), plate_truth)
        c0, norms = start_columns(rows, 2)
        assert_allclose(c0 @ c0.conj().T, plate_truth, atol=1e-6)
        assert_allclose(norms, [0.84212, 0.15788], atol=1e-5)
        res = solve_likelihood(rows, ReconstructionConfig(rank=2))
        assert res.stop_reason == "residual"
        assert res.iterations <= 5
        assert fidelity(res.estimate, plate_truth) >= 1 - 1e-9

    @pytest.mark.parametrize("protocol", ["J4", "R4", "B4"])
    def test_over_rank_start_floors_eigenvalues(self, plate_truth, protocol):
        # rank 4 on the rank-2 plate: the two empty directions start at the
        # floor, 1e-3 times the largest eigenvalue
        rows = noiseless_rows(process_protocol(protocol), plate_truth)
        _, norms = start_columns(rows, 4)
        assert norms.sum() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(norms[2:], 1e-3 * norms[0], rtol=1e-6)
        res = solve_likelihood(rows, ReconstructionConfig(rank=4))
        assert res.converged
        assert fidelity(res.estimate, plate_truth) >= 1 - 1e-3

    PHI = np.array([1, 0, 0, 1]) / np.sqrt(2)
    IDENTITY_CHOI = np.outer(PHI, PHI).astype(complex)

    @pytest.mark.parametrize("protocol", ["J4", "R4", "B4"])
    def test_identity_channel_at_rank_4(self, protocol):
        rows = noiseless_rows(process_protocol(protocol), self.IDENTITY_CHOI)
        c0, norms = start_columns(rows, 4)
        assert_allclose(norms[1:], 1e-3 * norms[0], rtol=1e-6)
        assert abs(c0[:, 0] @ self.PHI) ** 2 == pytest.approx(norms[0], rel=1e-6)
        res = solve_likelihood(rows, ReconstructionConfig(rank=4))
        assert res.converged
        assert fidelity(res.estimate, self.IDENTITY_CHOI) >= 1 - 1e-6

    def test_rows_with_zero_counts(self):
        # J4 on the identity channel: |H> in, |V> out never clicks
        rows = poisson_rows(process_protocol("J4"), self.IDENTITY_CHOI, n=1000, seed=3)
        assert np.sum(rows.counts == 0) >= 2
        c0, norms = start_columns(rows, 4)
        assert np.all(np.isfinite(c0))
        assert norms.min() >= 1e-3 * norms.max() * (1 - 1e-9)
        res = solve_likelihood(rows, ReconstructionConfig(rank=4))
        assert res.converged
        assert fidelity(res.estimate, self.IDENTITY_CHOI) > 0.99

    def test_rank_deficient_design_gets_minimum_norm_start(self):
        # two Pauli-Z projectors see only the diagonal: the start has no
        # coherence, and the solve still runs (I = identity is regular)
        rows = Measurements([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [1.0, 1.0], [30, 70])
        c0, norms = start_columns(rows, 2)
        rho0 = c0 @ c0.conj().T
        assert_allclose(rho0, np.diag([0.3, 0.7]), atol=1e-8)
        res = solve_likelihood(rows, ReconstructionConfig(rank=2))
        assert res.converged
        assert_allclose(np.diag(res.estimate).real, [0.3, 0.7], atol=1e-6)


# Campaign seed of the acceptance scaling study's rank-2, n=1e3 cell:
# SeedSequence(20_250_303, spawn_key=(0, 0)).
ACCEPTANCE_RANK2_N1E3_SEED = 17260451438471865157


@pytest.fixture(scope="module")
def campaign_rows():
    """Rows of replication ``index`` of an ``mc`` campaign (R4 unless
    ``protocol`` says otherwise) on the default plate truth, built exactly as
    ``run_mc_campaign`` builds them; a list or range of indices gives a batch
    with a lane per replication."""
    truth = build_truth(TruthSpec())

    def rows(campaign_seed, index, n, protocol="R4"):
        seeds = derive_seeds(campaign_seed, np.ravel(index).tolist())
        data = process_datasets(process_protocol(protocol), truth, n, seeds)
        return data if np.ndim(index) else data.lanes(0)

    return rows


def batch_of(*datasets):
    """The data sets, each of one lane, as the lanes of one record over the
    first one's operators."""
    return Measurements(
        datasets[0].operators,
        [data.exposures for data in datasets],
        [data.counts for data in datasets],
    )


class TestStoppingRule:
    """Solves whose residual stalls at float resolution above the residual
    tolerance end on the Newton decrement and the gain of the step after it
    instead of the cap, and not before the residual is close to it: a
    decrement threshold scaled by the likelihood's constant offset would
    stop near residual 1e-5."""

    def assert_converged(self, res, reasons=("stationary",)):
        assert res.converged
        assert res.iterations <= 500
        assert res.stop_reason in reasons
        assert res.residual < 1e-7

    def test_acceptance_cell_replication_7(self, campaign_rows):
        # Fisher scoring stalled here and stopped stationary; the Newton
        # step reaches the residual tolerance at iteration 9
        rows = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, 7, 1000)
        self.assert_converged(
            solve_likelihood(rows, ReconstructionConfig(rank=2)), reasons=("residual",)
        )

    @pytest.mark.parametrize("index", range(20))
    def test_small_n_campaign_seed_77(self, campaign_rows, index):
        res = solve_likelihood(campaign_rows(77, index, 500), ReconstructionConfig(rank=2))
        self.assert_converged(res, reasons=("residual", "stationary"))

    def test_over_rank_boundary_case(self, campaign_rows):
        # rank 4 on a rank-2 truth: F is singular beyond the gauge directions,
        # and the curvature of the empty columns comes from J - I
        rows = campaign_rows(16606320171885100882, 4, 10**4)
        self.assert_converged(
            solve_likelihood(rows, ReconstructionConfig(rank=4)), reasons=("residual",)
        )

    @pytest.mark.parametrize(
        "seed, index", [(568423245587548860, 1), (7144279438593301514, 0)]
    )
    def test_rank_4_boundary_lanes_converge(self, campaign_rows, seed, index):
        # R4, rank 4 on the rank-2 plate, n=1e4: a column c_k of c tends to
        # zero, the gradient along it shrinks like |c_k| and F's curvature
        # like |c_k|^2, so a decrement and steps solved with F alone took
        # each lane to the 20000-iteration cap at residual 1.5e-9.  The
        # curvature -2 (J - I)_- along that column is O(1): both lanes stop
        # on the residual at iteration 9
        res = solve_likelihood(campaign_rows(seed, index, 10**4), ReconstructionConfig(rank=4))
        assert res.converged
        assert res.iterations <= 20

    def test_capped_j4_lane_converges(self, campaign_rows):
        # J4, rank 2, n=1e3, replication 0 of campaign seed 11 (derived seed
        # 16347841621347268350).  Fisher scoring cycled near residual 1.4e-8
        # with its decrement above the threshold and stopped at the 2000
        # iteration cap at log-likelihood -6.372665607683155; the Newton
        # step stops stationary at iteration 51, 3.9e-8 higher
        rows = campaign_rows(11, 0, 1000, "J4")
        res = solve_likelihood(rows, ReconstructionConfig(rank=2, max_iterations=2000))
        assert res.converged
        assert res.log_likelihood >= -6.372665607683155 - 1e-9

    def test_slow_acceptance_replications_converge(self, campaign_rows):
        # replications 17, 89 and 151 of the acceptance rank-2 n=1e3 cell
        # took 264, 336 and 140 iterations of Fisher scoring; the Newton
        # step takes 9, 21 and 11
        data = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, [17, 89, 151], 1000)
        res = solve_likelihood_batch(data, ReconstructionConfig(rank=2))
        assert res.converged.all()
        assert res.iterations.max() <= 50

    def test_rank_4_lanes_stop_at_the_maximum(self, monkeypatch, campaign_rows):
        # R4, rank 4, n=1e4: no converged lane is more than 1e-7 below a
        # deep re-solve with tolerances tightened 1e3-fold and more.  The
        # decrement over F's range above 1e-8 times its largest eigenvalue
        # stopped 14 of these 50 lanes (64 of 200) more than 1e-7 short, by
        # up to 9.0e-6
        data = campaign_rows(987654321, range(50), 10**4)
        res = solve_likelihood_batch(data, ReconstructionConfig(rank=4))
        monkeypatch.setattr(ml_engine, "_DECREMENT_TOL", 1e-13)
        monkeypatch.setattr(ml_engine, "_GAIN_TOL", 1e-14)
        monkeypatch.setattr(ml_engine, "_RESIDUAL_TOL", 1e-12)
        deep = solve_likelihood_batch(data, ReconstructionConfig(rank=4, max_iterations=2000))
        assert res.converged.all()
        assert np.max(deep.log_likelihood - res.log_likelihood) < 1e-7

    def test_iteration_cap_is_reported(self, plate_truth):
        rows = poisson_rows(process_protocol("R4"), plate_truth, seed=42)
        res = solve_likelihood(rows, ReconstructionConfig(rank=2, max_iterations=3))
        assert not res.converged
        assert res.stop_reason == "iteration_cap"
        assert res.iterations == 3

    @pytest.mark.parametrize(
        "seed, index, n, rank, protocol",
        [
            (ACCEPTANCE_RANK2_N1E3_SEED, 7, 1000, 2, "R4"),
            (16606320171885100882, 4, 10**4, 4, "R4"),
            # starts at residual 0.044, far from the maximum
            (77, 48, 500, 2, "R4"),
            # rank 1 on the rank-2 plate, the inadequate model
            (11, 138, 10**4, 1, "J4"),
        ],
    )
    def test_accepted_steps_never_decrease_likelihood(
        self, campaign_rows, seed, index, n, rank, protocol
    ):
        # the solve capped after N iterations holds the N-th accepted iterate;
        # the tolerance is the float resolution of the full likelihood
        rows = campaign_rows(seed, index, n, protocol)
        final = solve_likelihood(rows, ReconstructionConfig(rank=rank))
        lls = [
            solve_likelihood(rows, ReconstructionConfig(rank=rank, max_iterations=cap)).log_likelihood
            for cap in range(1, final.iterations + 1)
        ]
        assert lls[-1] == final.log_likelihood
        assert min(np.diff(lls)) >= -1e-8


class TestDataStartOnTheAcceptanceCell:
    def test_replication_63_reaches_the_higher_maximum(self, campaign_rows):
        # from a fixed start at c0[i % d, i] = 1/sqrt(r) this solve stopped
        # at a lower stationary point: full Poisson log-likelihood -76.9524,
        # loss 0.1432 against 0.1154.  The result's value is the full one
        # minus the saturated model's
        rows = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, 63, 1000)
        res = solve_likelihood(rows, ReconstructionConfig(rank=2))
        assert res.stop_reason == "stationary"
        assert res.log_likelihood >= -76.8807 - saturated_log_likelihood(rows.counts)

    def test_median_iterations_of_first_20_replications(self, campaign_rows):
        # the fixed start took a median of 22; the median, not the total,
        # because a few long solves set the total
        iterations = [
            solve_likelihood(
                campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, i, 1000), ReconstructionConfig(rank=2)
            ).iterations
            for i in range(20)
        ]
        assert np.median(iterations) <= 16


def solver_point(rows, rank, iterations):
    """The purified estimate of a solve capped after ``iterations``, scaled
    to the data's normalization as the solver's iterate is."""
    res = solve_likelihood(rows, ReconstructionConfig(rank=rank, max_iterations=iterations))
    c = purify(res.estimate, rank)
    return c * np.sqrt(rows.counts.sum() / np.dot(expected_rates(c, rows), rows.exposures))


class TestNewtonSystem:
    """Each iteration solves ``(H + mu R) delta = grad`` with the curvature
    ``H = F + D+``: the Fisher matrix plus the likelihood's
    second-derivative term ``-2 tr(delta^+ (J - I) delta)`` clipped to the
    negative part of ``J - I``.  At rank 3 and 4 R4, J4 and B4 have fewer
    rows (20) than parameters (24, 32), so F is singular beyond its gauge
    directions."""

    MUS = (1e-3, 1.0, 1e3)  # the solver's starting mu and two raised ones

    def solver_system(self, c, rows):
        lam = expected_rates(c, rows)
        i_mat, j_mat = fisher_matrices(c, rows)
        return (
            x[0]
            for x in ml_engine._newton_system(
                c[None], ((j_mat - i_mat) @ c)[None], (j_mat - i_mat)[None],
                _tangent_layout(rows.operators), rows.exposures[None], lam[None],
            )
        )

    @pytest.mark.parametrize(
        "protocol, rank", [("R4", 2), ("R4", 3), ("R4", 4), ("J4", 3), ("J4", 4), ("B4", 4)]
    )
    def test_matches_the_oracle(self, campaign_rows, protocol, rank):
        for rows in each_lane(campaign_rows(987654321, range(4), 10**4, protocol)):
            for iterations in (1, 3):
                c = solver_point(rows, rank, iterations)
                _, curvature, twice_decrement, steps = newton_step(c, rows, self.MUS)
                h, grad, ridge = self.solver_system(c, rows)
                assert_allclose(h, curvature, rtol=0, atol=1e-13 * np.abs(curvature).max())
                assert ridge == pytest.approx(np.trace(curvature) / len(curvature), rel=1e-13)
                x = ml_engine._damped_solve(h[None], grad[None], np.array([1e-12 * ridge]))[0]
                assert grad @ x == pytest.approx(twice_decrement, rel=1e-7)
                for mu, step in zip(self.MUS, steps):
                    x = ml_engine._damped_solve(h[None], grad[None], np.array([mu * ridge]))[0]
                    solver_step = (x[: 4 * rank] + 1j * x[4 * rank :]).reshape(rank, 4).T
                    assert np.linalg.norm(solver_step - step) <= 1e-9 * np.linalg.norm(step)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_curvature_is_the_clipped_observed_information(self, campaign_rows, rank):
        # minus the Hessian of the log-likelihood, by central differences of
        # its gradient 2 (J - I) c, is the observed Fisher term plus the
        # whole second-derivative term; H keeps that term's positive part
        rows = campaign_rows(987654321, 0, 10**4)
        c = solver_point(rows, rank, 2)
        n = 8 * rank

        def gradient(x):
            delta = (x[: n // 2] + 1j * x[n // 2 :]).reshape(rank, 4).T
            i_mat, j_mat = fisher_matrices(c + delta, rows)
            g = ((j_mat - i_mat) @ (c + delta)).T.ravel()
            return 2.0 * np.concatenate([g.real, g.imag])

        step = 1e-6 * np.abs(c).max()
        hessian = np.stack([
            (gradient(step * e) - gradient(-step * e)) / (2 * step) for e in np.eye(n)
        ], axis=1)
        lam = expected_rates(c, rows)
        observed = _fisher(
            c[None], _tangent_layout(rows.operators), (rows.counts / lam)[None], lam[None]
        )[0]
        i_mat, j_mat = fisher_matrices(c, rows)
        observed += real_embedding(-2.0 * (j_mat - i_mat), rank)
        assert_allclose(-hessian, observed, rtol=0, atol=1e-6 * np.abs(observed).max())
        fisher, curvature, _, _ = newton_step(c, rows, ())
        # positive semidefinite to the round-off of H - F
        assert np.linalg.eigvalsh(curvature - fisher).min() >= -1e-15 * np.abs(fisher).max()
        assert_allclose(fisher, fisher_at(c, rows), rtol=0, atol=1e-12 * np.abs(fisher).max())

    @pytest.mark.parametrize("rank, start", [(3, 114), (4, 50)])
    def test_reported_spectrum_is_fishers(self, campaign_rows, rank, start):
        # stationary and residual stops alike report F's 2dr eigenvalues,
        # descending, its 2dr - 20 round-off ones among them; replication 120
        # stops stationary at rank 3, and 55 at rank 4
        data = campaign_rows(987654321, range(start, start + 12), 10**4)
        results = solve_likelihood_batch(data, ReconstructionConfig(rank=rank))
        assert set(results.stop_reason) == {"residual", "stationary"}
        assert results.info_spectrum.shape == (12, 8 * rank)
        for rows, res in zip(each_lane(data), each_result(results), strict=True):
            spec = res.info_spectrum
            assert spec.shape == (8 * rank,)
            assert np.all(np.diff(spec) <= 0)
            c = purify(res.estimate, rank)
            c *= np.sqrt(rows.counts.sum() / np.dot(expected_rates(c, rows), rows.exposures))
            fisher, _, _, _ = newton_step(c, rows, ())
            oracle = np.linalg.eigvalsh(fisher)[::-1]
            assert_allclose(spec, oracle, rtol=0, atol=1e-9 * spec[0])
            assert np.sum(spec > 1e-8 * spec[0]) <= 20

    def test_no_eigenproblem_wider_than_d_in_a_solve(self, monkeypatch, campaign_rows):
        # the iterations decompose only d x d matrices (I at the set-up, the
        # start, J - I); the one 2dr-wide eigenproblem is the spectrum's,
        # taken once for every lane in the results
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def recording(a, *args, real=real, name=name, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        data = campaign_rows(987654321, range(8), 10**4)
        states = generate_counts_batch(
            bn_state_protocol(36, 312.7, 1.0), [np.eye(2) / 2] * 2, 10**4, [1, 2]
        )
        # R4 processes: d = 4, 8r parameters; B36 states: d = 2, 8 parameters
        cases = [(data, rank, 4) for rank in (1, 2, 3, 4)]
        for rows, rank, d in cases + [(states, 2, 2)]:
            calls.clear()
            solve_likelihood_batch(rows, ReconstructionConfig(rank=rank))
            n_lanes, n = len(rows.counts), 2 * d * rank
            assert calls[-1] == ("eigvalsh", (n_lanes, n, n)), rank
            assert {shape[-1] for _, shape in calls[:-1]} == {d}, rank


def assert_same_result(alone, lane):
    """Every output of a lane solved inside a batch equals, to the bit, the
    same dataset solved alone."""
    assert alone.estimate.tobytes() == lane.estimate.tobytes()
    assert alone.info_spectrum.tobytes() == lane.info_spectrum.tobytes()
    for name in (
        "iterations", "stop_reason", "converged", "residual", "log_likelihood",
        "normalization_gap", "tp_residual", "nu",
        "scoring_steps", "rejected_steps",
    ):
        assert getattr(alone, name) == getattr(lane, name), name
    for f in dataclasses.fields(alone):  # and no field is left out
        a, b = getattr(alone, f.name), getattr(lane, f.name)
        assert type(a) is type(b), f.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


class TestBatchLanes:
    """A lane's result does not depend on the batch it is solved in."""

    def assert_lanes_independent(self, data, config):
        batch = solve_likelihood_batch(data, config)
        assert batch.estimate.shape == (len(data.exposures), *data.operators.shape[1:])
        for one, lane in zip(each_lane(data), each_result(batch), strict=True):
            assert_same_result(solve_likelihood(one, config), lane)
        return batch

    def test_mixed_workflow_batches(self, monkeypatch):
        import chitomo.harness as harness

        real = harness.solve_likelihood_batch
        batches = []

        def recording(data, config):
            results = real(data, config)
            batches.append((data, config, results))
            return results

        monkeypatch.setattr(harness, "solve_likelihood_batch", recording)
        harness.run_mixed_state_workflow(harness.MixedWorkflowConfig(seed=3))
        assert [(len(d.exposures), c.rank) for d, c, _ in batches] == [(2, 2), (14, 1)]
        for data, config, results in batches:
            for one, lane in zip(each_lane(data), each_result(results), strict=True):
                assert_same_result(solve_likelihood(one, config), lane)

    def test_acceptance_cell_first_10_replications(self, campaign_rows):
        data = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, range(10), 1000)
        self.assert_lanes_independent(data, ReconstructionConfig(rank=2))

    def test_acceptance_cell_as_one_batch_of_200(self, campaign_rows):
        # the whole acceptance mc cell (R4, n=1e3, rank 2) in one call: the
        # groundwork for solving a campaign's replications as one batch
        data = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, range(200), 1000)
        batch = self.assert_lanes_independent(data, ReconstructionConfig(rank=2))
        # lanes leave the batch at many different iterations, the cell's
        # slow solves last (replication 50 at 64)
        assert batch.iterations.max() >= 40
        assert len(set(batch.iterations)) >= 10

    def test_rank_4_lanes(self, campaign_rows):
        # R4 has 20 rows for the 32 parameters of rank 4; replication 55
        # stops stationary, the others on the residual
        data = campaign_rows(987654321, range(50, 62), 10**4)
        batch = self.assert_lanes_independent(data, ReconstructionConfig(rank=4))
        assert set(batch.stop_reason) == {"residual", "stationary"}

    def test_far_start_lane_scores_beside_the_others(self, campaign_rows):
        # replication 48 starts far from the maximum, at residual 0.044, and
        # takes a scoring step on its first iteration like the other lanes
        data = campaign_rows(77, range(44, 52), 500)
        self.assert_lanes_independent(data, ReconstructionConfig(rank=2))
        first = solve_likelihood(data.lanes(4), ReconstructionConfig(rank=2, max_iterations=1))
        assert first.residual > 0.04 and first.scoring_steps == 1

    def test_iteration_cap_hits_only_the_slow_lane(self, campaign_rows):
        # replication 50 takes 64 iterations without a cap; the others stop
        # within 10
        indices = [0, 1, 50, 2, 3]
        data = campaign_rows(ACCEPTANCE_RANK2_N1E3_SEED, indices, 1000)
        batch = self.assert_lanes_independent(
            data, ReconstructionConfig(rank=2, max_iterations=30)
        )
        assert (batch.stop_reason == "iteration_cap").tolist() == [
            False, False, True, False, False
        ]
        assert batch.iterations[2] == 30 and not batch.converged[2]

    def test_step_counts(self, campaign_rows):
        data = campaign_rows(77, range(44, 52), 500)
        capped = ReconstructionConfig(rank=2, max_iterations=3)
        for config in (ReconstructionConfig(rank=2), capped):
            for res in each_result(solve_likelihood_batch(data, config)):
                # at most one step per iteration, and none in a converged
                # stop's last
                assert 0 <= res.scoring_steps <= res.iterations - res.converged
                assert res.rejected_steps >= 0

    def test_lane_without_a_step(self, monkeypatch, campaign_rows):
        # one lane's eight Levenberg tries all fail in iteration 2 (its
        # surrogate reads -inf there): that iteration takes no step for it,
        # counts eight rejected tries, and the next one starts from its mu
        # raised eight times by 10; the other lanes step on and keep their
        # lone results
        data = campaign_rows(77, range(44, 52), 500)
        config = ReconstructionConfig(rank=2)
        target, forced = 4, 2
        tables, starts = [], []  # the solve's lanes, and their state at each iteration
        real_lanes, real_system = ml_engine._Lanes, ml_engine._newton_system
        real_surrogate = ml_engine._surrogate

        def lanes(**arrays):
            tables.append(real_lanes(**arrays))
            return tables[-1]

        def newton_system(*args):
            s = tables[0]
            starts.append({
                name: dict(zip(s.lane.tolist(), getattr(s, name).tolist()))
                for name in ("mu", "steps", "rejected")
            })
            return real_system(*args)

        def surrogate(lam, k, t, k_div):
            ll = real_surrogate(lam, k, t, k_div)
            if len(starts) == forced:
                ll[np.all(k == data.counts[target], axis=1)] = -np.inf
            return ll

        monkeypatch.setattr(ml_engine, "_Lanes", lanes)
        monkeypatch.setattr(ml_engine, "_newton_system", newton_system)
        monkeypatch.setattr(ml_engine, "_surrogate", surrogate)
        batch = solve_likelihood_batch(data, config)
        monkeypatch.undo()

        before, after = starts[forced - 1], starts[forced]
        assert after["steps"][target] == before["steps"][target]
        assert after["rejected"][target] == before["rejected"][target] + 8
        mu = before["mu"][target]
        for _ in range(8):
            mu *= 10.0
        assert after["mu"][target] == mu
        # the others took their steps in that iteration
        steps = after["steps"]
        assert all(steps[b] == before["steps"][b] + 1 for b in steps if b != target)
        for b, (one, lane) in enumerate(zip(each_lane(data), each_result(batch), strict=True)):
            if b != target:
                assert_same_result(solve_likelihood(one, config), lane)
        assert batch.converged[target]

    def failing_lanes(self, campaign_rows):
        # a solvable lane, a lane without counts, a lane with a singular I
        # (three exposed rows cannot make I = sum_j t_j Lambda_j full rank)
        # and a lane with both faults
        data = campaign_rows(77, 0, 500)
        t = np.where(np.arange(len(data.exposures)) < 3, data.exposures, 0.0)
        no_counts = np.zeros_like(data.counts)
        return (
            data,
            Measurements(data.operators, data.exposures, no_counts),
            Measurements(data.operators, t, data.counts),
            Measurements(data.operators, t, no_counts),
        )

    def test_set_up_raises_for_the_first_failing_lane(self, campaign_rows):
        # in lane order: IncompleteProtocolError for a singular I, also in a
        # lane that has no counts either, else ValueError for no counts; the
        # message names the lane in a batch of more than one, and a lone
        # solve raises the same without a lane number
        data, empty, singular, both = self.failing_lanes(campaign_rows)
        config = ReconstructionConfig(rank=2)
        incomplete = (
            r"information matrix I is singular \(eigenvalues \S+\.\.\S+\); "
            r"the protocol cannot identify rank 2$"
        )
        cases = [
            ((data, singular, data, empty), IncompleteProtocolError, "lane 1: " + incomplete),
            ((data, empty, data, singular), ValueError, "lane 1: no observed counts$"),
            ((data, data, both, empty), IncompleteProtocolError, "lane 2: " + incomplete),
            ((empty, both), ValueError, "lane 0: no observed counts$"),
            ((empty,), ValueError, "no observed counts$"),
            ((both,), IncompleteProtocolError, incomplete),
        ]
        for lanes, kind, message in cases:
            with pytest.raises(ValueError, match=f"^{message}") as caught:
                solve_likelihood_batch(batch_of(*lanes), config)
            assert caught.type is kind
            if len(lanes) == 1:
                with pytest.raises(kind, match=f"^{message}"):
                    solve_likelihood(lanes[0], config)
        with pytest.raises(ValueError, match="^solve_likelihood takes one data set, got 2 lanes"):
            solve_likelihood(batch_of(data, data), config)

    def test_set_up_raises_before_any_iteration(self, monkeypatch, campaign_rows):
        # the good lanes before a failing one take no start and no step
        data, empty, _, _ = self.failing_lanes(campaign_rows)

        def no_call(*args):
            raise AssertionError("a lane started or iterated before the set-up raised")

        monkeypatch.setattr(ml_engine, "_initial_point", no_call)
        monkeypatch.setattr(ml_engine, "_newton_system", no_call)
        with pytest.raises(ValueError, match="^lane 2: no observed counts$"):
            solve_likelihood_batch(batch_of(data, data, empty), ReconstructionConfig(rank=2))

    def test_non_finite_try_is_rejected(self, monkeypatch, campaign_rows):
        # a Levenberg try at a non-finite c has a NaN surrogate, which fails
        # the acceptance test: the lane keeps a finite c, so every estimate
        # a solve returns is a finite trace-1 PSD matrix that fidelity
        # scores
        data = campaign_rows(77, range(44, 52), 500)
        config = ReconstructionConfig(rank=2)
        target, calls = 4, []
        real_system = ml_engine._newton_system

        def non_finite_first_step(*args):
            h, grad, ridge = real_system(*args)
            calls.append(len(h))
            if len(calls) == 1:
                grad = grad.copy()
                grad[target] = np.inf
            return h, grad, ridge

        monkeypatch.setattr(ml_engine, "_newton_system", non_finite_first_step)
        with np.errstate(invalid="ignore", over="ignore"):
            batch = solve_likelihood_batch(data, config)
        monkeypatch.undo()
        assert calls[0] == 8
        lane = batch.lanes(target)
        assert lane.rejected_steps >= 8 and lane.converged
        assert np.isfinite(batch.estimate).all()
        scores = fidelity(build_truth(TruthSpec()), batch.estimate)
        assert np.all((scores > 0.5) & (scores <= 1.0))


class TestResultLogLikelihood:
    """A result's log_likelihood is the surrogate its solve maximized, at
    the c its lane stopped with: the log-likelihood ratio to the saturated
    model, <= 0, which is the oracle's full Poisson log-likelihood at that c
    minus the saturated model's value of the lane's counts."""

    def solve_recording_c(self, monkeypatch, data, config):
        # the c of every lane the results are made from
        recorded = []
        real = ml_engine._results

        def recording(ops, t, k, rank, end):
            recorded.append(end.c.copy())
            return real(ops, t, k, rank, end)

        monkeypatch.setattr(ml_engine, "_results", recording)
        results = solve_likelihood_batch(data, config)
        monkeypatch.setattr(ml_engine, "_results", real)
        [c] = recorded
        return results, c

    def assert_values(self, results, c, lanes):
        for res, lane_c, lane in zip(each_result(results), c, lanes, strict=True):
            assert type(res.log_likelihood) is float
            assert res.log_likelihood <= 0
            full = log_likelihood(lane_c, lane)
            constant = saturated_log_likelihood(lane.counts)
            # to the float resolution of the full form's parts
            mean = expected_rates(lane_c, lane) * lane.exposures
            k = lane.counts
            parts = np.concatenate([k * np.log(mean), mean, [math.lgamma(x + 1.0) for x in k]])
            scale = math.fsum(np.abs(parts).tolist())
            assert res.log_likelihood == pytest.approx(full - constant, rel=0, abs=1e-14 * scale)

    def test_alone_and_in_batches(self, monkeypatch, campaign_rows):
        config = ReconstructionConfig(rank=2)
        data = campaign_rows(77, range(44, 52), 500)
        batch, c = self.solve_recording_c(monkeypatch, data, config)
        self.assert_values(batch, c, each_lane(data))
        for one, lane in zip(each_lane(data), each_result(batch), strict=True):
            alone, c = self.solve_recording_c(monkeypatch, one, config)
            self.assert_values(alone, c, [one])
            assert alone.log_likelihood[0] == lane.log_likelihood
            assert np.isfinite(lane.log_likelihood)

    def test_state_rows(self, monkeypatch):
        # the d=2 solves of mixed-workflow: B36 rows, counts up to ~1e4
        rows = bn_state_protocol(36, 312.7, 1.0)
        truths = [np.diag([0.7, 0.3]).astype(complex), np.eye(2) / 2]
        data = generate_counts_batch(rows, truths, 10**5, [3, 3])
        batch, c = self.solve_recording_c(monkeypatch, data, ReconstructionConfig(rank=2))
        self.assert_values(batch, c, each_lane(data))
        assert batch.log_likelihood.tolist() == [
            solve_likelihood(one, ReconstructionConfig(rank=2)).log_likelihood
            for one in each_lane(data)
        ]

    def test_noiseless_pure_state_reaches_the_saturated_model(self, rng):
        # counts equal to the rates of a rank-1 model are the saturated model
        v = random_density_matrix(2, rng, rank=1)
        rows, _ = noiseless_counts(bn_state_protocol(8, 312.7, 1.0), v, 10**5)
        res = solve_likelihood(rows, ReconstructionConfig(rank=1))
        assert res.converged
        assert abs(res.log_likelihood) <= 1e-12 * rows.counts.sum()


class TestReconstructState:
    def test_pure_v_noiseless(self):
        v = np.diag([0.0, 1.0]).astype(complex)
        rows, _ = noiseless_counts(bn_state_protocol(36, 312.7, 1.0), v, 10**5)
        res = solve_likelihood(rows, ReconstructionConfig(rank=1))
        assert fidelity(res.estimate, v) >= 1 - 1e-8

    def test_maximally_mixed_poisson(self):
        truth = np.eye(2) / 2
        data = generate_counts(bn_state_protocol(36, 312.7, 1.0), truth, 10**5, 14)
        res = solve_likelihood(data, ReconstructionConfig(rank=2))
        assert fidelity(res.estimate, truth) >= 0.995
        assert res.nu is None and res.tp_residual is None

    def test_rank1_model_fidelity_ceiling_on_mixed_truth(self):
        plate = WaveplateSpec(5031.0, np.pi / 4)
        truth = broadband_mixed_state(
            np.array([0, 1], dtype=complex), [plate], sinc2_profile(1.0, 0.008)
        )
        lam_max = np.linalg.eigvalsh(truth).max()
        rows, _ = noiseless_counts(bn_state_protocol(36, 312.7, 1.0), truth, 10**6)
        res = solve_likelihood(rows, ReconstructionConfig(rank=1))
        f = fidelity(res.estimate, truth)
        # the top-eigenvector projector realizes the pure-state ceiling exactly
        w, u = np.linalg.eigh(truth)
        top = np.outer(u[:, -1], u[:, -1].conj())
        assert fidelity(top, truth) == pytest.approx(lam_max, abs=1e-12)
        # the ML pure fit respects the ceiling and comes close to it
        assert f <= lam_max + 1e-9
        assert f >= lam_max - 0.05
