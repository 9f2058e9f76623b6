from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo.process_algebra import (
    chi_from_kraus,
    direct_probability,
    effective_probability,
)
from chitomo.protocols import (
    Config,
    ExperimentPlan,
    IncompleteProtocolError,
    Measurements,
    auxiliary_rows,
    b4_states,
    bloch_vector,
    bn_state_protocol,
    generate_counts,
    j4_states,
    process_protocol,
    r4_states,
    sample_poisson,
    state_from_bloch,
)
from random_ops import random_density_matrix, random_trace_preserving_kraus

# Counts for the reference plate truth, R4, n=10^4, seed=123; frozen to pin
# the sampler across platforms and numpy versions.
GOLDEN_COUNTS = [1136, 528, 403, 444, 549, 1154, 423, 462, 428, 407, 1118, 524, 423, 443, 588, 1089]


@dataclass(frozen=True)
class _Inner(Config):
    width: float = 1.0


@dataclass(frozen=True)
class _Outer(Config):
    inner: _Inner = field(default_factory=_Inner)
    count: int = 3
    limit: int | None = None
    seed: int = 0
    grid: tuple[tuple[int, ...], ...] = ((1, 2),)


class TestConfig:
    def test_from_dict_builds_nested_configs_and_tuples(self):
        config = _Outer.from_dict({"inner": {"width": 2}, "grid": [[3], [4, 5]], "limit": 7})
        assert config == _Outer(inner=_Inner(2), limit=7, grid=((3,), (4, 5)))
        assert _Outer.from_dict(config.to_dict()) == config
        assert _Outer.from_dict({}) == _Outer()

    def test_to_dict_is_asdict(self):
        assert _Outer().to_dict() == {
            "inner": {"width": 1.0}, "count": 3, "limit": None, "seed": 0, "grid": ((1, 2),)
        }

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"cuont": 1, "alpha": 2}, "unknown config key(s) 'alpha', 'cuont' for _Outer"),
            ({"inner": {"wdth": 1}}, "unknown config key(s) 'wdth' for _Inner"),
            ({"inner": [1.0]}, "inner must be a JSON object"),
            ({"count": 3.0}, "count must be an integer"),
            ({"limit": 2.5}, "limit must be an integer"),
            ({"grid": [[1, 2.5]]}, "grid[0][1] must be an integer"),
            ({"grid": [3]}, "grid[0] must be a list"),
            ({"inner": {"width": "wide"}}, "width must be a number"),
            ({"inner": {"width": False}}, "width must be a number"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be a non-negative integer"),
        ],
    )
    def test_rejections_name_the_field(self, data, message):
        with pytest.raises(ValueError) as info:
            _Outer.from_dict(data)
        assert str(info.value).startswith(message)

    def test_numpy_scalars_accepted(self):
        config = _Outer(inner=_Inner(np.float64(0.5)), count=np.int64(2), seed=np.uint64(9))
        assert config.count == 2


class TestMeasurements:
    def test_defaults_and_dtypes(self):
        data = Measurements([np.eye(2), np.diag([1, 0])], [1, 2])
        assert data.operators.dtype == complex and data.operators.shape == (2, 2, 2)
        assert data.exposures.dtype == float
        assert data.counts.tolist() == [0.0, 0.0]
        assert data.auxiliary.tolist() == [False, False]
        assert len(data.operators) == 2

    def test_concatenation_keeps_row_order(self):
        a = Measurements([np.eye(2)], [1.0], [3])
        b = Measurements([np.diag([0.0, 1.0])] * 2, [2.0, 4.0], [5, 7], [True, True])
        joined = a + b
        assert len(joined.operators) == 3
        assert np.array_equal(joined.operators[1], b.operators[0])
        assert joined.exposures.tolist() == [1.0, 2.0, 4.0]
        assert joined.counts.tolist() == [3.0, 5.0, 7.0]
        assert joined.auxiliary.tolist() == [False, True, True]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"exposures": [1.0]}, r"exposures must have shape \(2,\)"),
            ({"exposures": [[1.0, 1.0], [1.0, 1.0]]}, r"exposures must have shape \(2,\)"),
            ({"counts": [1, 2, 3]}, r"counts must have shape \(2,\)"),
            ({"auxiliary": [True]}, r"auxiliary must have shape \(2,\)"),
            ({"operators": [np.eye(2), np.eye(3)]}, "operators must all have the same shape"),
            ({"operators": np.ones((2, 2, 3))}, r"operators must have shape \(m, d, d\)"),
            ({"operators": np.eye(2)}, r"operators must have shape \(m, d, d\)"),
        ],
        ids=["short-exposures", "2d-exposures", "long-counts", "short-mask", "mixed-dim",
             "non-square", "single-matrix"],
    )
    def test_shape_mismatch_rejected(self, kwargs, message):
        fields = {"operators": [np.eye(2)] * 2, "exposures": [1.0, 1.0], **kwargs}
        with pytest.raises(ValueError, match=message):
            Measurements(**fields)

    @pytest.mark.parametrize("name", ["exposures", "counts"])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, None])
    def test_negative_or_non_finite_rejected(self, name, bad):
        fields = {"operators": [np.eye(2)] * 2, "exposures": [1.0, 1.0], name: [1.0, bad]}
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            Measurements(**fields)


class TestStateSets:
    def test_j4_unit_norm_and_orthogonality(self):
        states = j4_states()
        assert len(states) == 4
        for s in states:
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)
        assert abs(np.vdot(states[0], states[1])) < 1e-15

    def test_j4_bloch_vectors(self):
        blochs = [bloch_vector(s) for s in j4_states()]
        expected = [(0, 0, 1), (0, 0, -1), (-1, 0, 0), (0, -1, 0)]
        for b, e in zip(blochs, expected):
            assert_allclose(b, e, atol=1e-15)

    def test_r4_tetrahedral_gram(self):
        blochs = [bloch_vector(s) for s in r4_states()]
        for j in range(4):
            for k in range(4):
                expected = 1.0 if j == k else -1 / 3
                assert np.dot(blochs[j], blochs[k]) == pytest.approx(expected, abs=1e-12)

    def test_r4_state_overlaps(self):
        states = r4_states()
        for j in range(4):
            for k in range(j + 1, 4):
                assert abs(np.vdot(states[j], states[k])) ** 2 == pytest.approx(
                    1 / 3, abs=1e-12
                )

    def test_r4_bloch_sum_zero(self):
        assert_allclose(sum(bloch_vector(s) for s in r4_states()), 0, atol=1e-12)

    def test_state_from_bloch_round_trip(self, rng):
        for _ in range(20):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert_allclose(bloch_vector(state_from_bloch(v)), v, atol=1e-12)

    def test_b4_first_state_is_v_up_to_phase(self):
        states = b4_states(1.1509)
        v = np.array([0.0, 1.0])
        assert abs(np.vdot(states[0], v)) == pytest.approx(1.0, abs=1e-12)

    def test_b4_unit_norm_and_complete(self):
        states = b4_states(1.1509)
        for s in states:
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        stack = np.array([[1.0, *bloch_vector(s)] for s in states])
        assert np.linalg.matrix_rank(stack, tol=1e-8) == 4


class TestBnProtocol:
    def test_b36_shape(self):
        proto = bn_state_protocol(36, 312.7, 1.0)
        assert proto.name == "B36"
        assert len(proto.rows.operators) == 36
        for op in proto.rows.operators:
            w = np.linalg.eigvalsh(op)
            assert op.trace().real == pytest.approx(1.0, abs=1e-12)
            assert w.min() > -1e-12
            assert np.sum(w > 1e-12) == 1  # rank 1

    def test_average_operator_and_completeness(self):
        proto = bn_state_protocol(36, 312.7, 1.0)
        avg = sum(proto.rows.operators) / 36
        assert avg.trace().real == pytest.approx(1.0, abs=1e-12)
        stack = np.array(
            [
                [op[0, 0].real, op[1, 1].real, op[0, 1].real, op[0, 1].imag]
                for op in proto.rows.operators
            ]
        )
        assert np.linalg.matrix_rank(stack, tol=1e-8) == 4

    def test_degenerate_plate_rejected(self):
        # A vanishing retardance makes every row the same projector.
        with pytest.raises(IncompleteProtocolError, match="incomplete"):
            bn_state_protocol(36, 1e-6, 1.0)

    def test_too_few_orientations_rejected(self):
        with pytest.raises(IncompleteProtocolError, match="4"):
            bn_state_protocol(3, 312.7, 1.0)


class TestProcessProtocol:
    def test_row_count_and_shapes(self):
        for name in ("J4", "R4", "B4"):
            proto = process_protocol(name)
            assert len(proto.rows.operators) == 16
            for op in proto.rows.operators:
                assert op.shape == (4, 4)
                assert op.trace().real == pytest.approx(1.0, abs=1e-12)
                w = np.linalg.eigvalsh(op)
                assert w.min() > -1e-12
                assert np.sum(w > 1e-12) == 1

    def test_identity_process_matched_row_rate(self):
        proto = process_protocol("J4")
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho_phi = np.outer(phi, phi)
        rate = np.real(np.trace(proto.rows.operators[0] @ rho_phi))  # (H in, H out)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_identity_process_matched_probability_one(self):
        states = j4_states()
        chi = chi_from_kraus([np.eye(2)])
        for s in states:
            assert effective_probability(chi, s, s) == pytest.approx(1.0, abs=1e-12)
        assert effective_probability(chi, states[0], states[1]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sixteen_rows_linearly_independent(self):
        for name in ("J4", "R4"):
            proto = process_protocol(name)
            stack = np.array(
                [
                    np.concatenate([op.real.ravel(), op.imag.ravel()])
                    for op in proto.rows.operators
                ]
            )
            assert np.linalg.matrix_rank(stack, tol=1e-10) == 16

    def test_rates_match_channel_application(self, rng):
        # Row rates through the effective projector equal direct channel
        # probabilities divided by the Choi normalization.
        kraus = random_trace_preserving_kraus(2, 2, rng)
        choi = chi_from_kraus(kraus) / 2
        for name in ("J4", "R4", "B4"):
            proto = process_protocol(name)
            for op, (c_in, c_m) in zip(
                proto.rows.operators,
                [(ci, cm) for ci in proto.input_states for cm in proto.projectors],
            ):
                rate = np.real(np.trace(op @ choi))
                assert rate == pytest.approx(
                    direct_probability(kraus, c_in, c_m) / 2, abs=1e-12
                )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            process_protocol("X4")


class TestAuxiliaryRows:
    def test_rate_is_half_for_trace_preserving(self, rng):
        rows = auxiliary_rows(j4_states(), total_exposure=100.0, weight=10.0)
        kraus = random_trace_preserving_kraus(2, 3, rng)
        choi = chi_from_kraus(kraus) / 2
        for op in rows.operators:
            assert np.real(np.trace(op @ choi)) == pytest.approx(0.5, abs=1e-12)

    def test_exposure_and_virtual_count(self):
        rows = auxiliary_rows(j4_states(), total_exposure=1000.0, weight=10.0)
        for exposure, count, auxiliary in zip(rows.exposures, rows.counts, rows.auxiliary):
            assert exposure == pytest.approx(10000.0)
            assert count == 5000
            assert auxiliary

    def test_operator_is_psd_trace_two(self):
        for op in auxiliary_rows(r4_states(), 10.0, 1.0).operators:
            assert op.trace().real == pytest.approx(2.0, abs=1e-12)
            assert np.linalg.eigvalsh(op).min() > -1e-12

    def test_incomplete_inputs_rejected(self):
        h = np.array([1.0, 0.0])
        with pytest.raises(IncompleteProtocolError, match="complete"):
            auxiliary_rows([h, h, h, h], 10.0, 1.0)


class TestPoissonSampler:
    def test_zero_mean(self, rng):
        assert sample_poisson(0.0, rng) == 0

    def test_invalid_mean(self, rng):
        with pytest.raises(ValueError, match="finite"):
            sample_poisson(-1.0, rng)
        with pytest.raises(ValueError, match="finite"):
            sample_poisson(np.inf, rng)

    def test_frozen_draws(self):
        rng = np.random.default_rng(2024)
        draws = [sample_poisson(m, rng) for m in (0.0, 0.5, 5.0, 29.9, 30.0, 1e4)]
        assert draws == [0, 1, 3, 27, 23, 9897]

    @pytest.mark.parametrize("mean", [0.1, 10.0, 1e4])
    def test_moments(self, mean):
        rng = np.random.default_rng(777)
        n = 20000
        draws = np.array([sample_poisson(mean, rng) for _ in range(n)])
        se_mean = np.sqrt(mean / n)
        assert abs(draws.mean() - mean) < 4 * se_mean
        # Poisson variance equals the mean; var of the sample variance is
        # roughly (mu + 2 mu^2) / n (Gaussian limit plus skew correction).
        se_var = np.sqrt((mean + 2 * mean**2) / n)
        assert abs(draws.var() - mean) < 5 * se_var


class TestGenerateCounts:
    def test_frozen_counts(self, plate_truth):
        proto = process_protocol("R4")
        rows = generate_counts(proto.rows, plate_truth, ExperimentPlan(10**4, seed=123))
        assert rows.counts.tolist() == GOLDEN_COUNTS

    @pytest.mark.parametrize("name", ["J4", "R4", "B4", "B36"])
    def test_matches_per_row_reference(self, name):
        # the per-row loop that the batched rates replaced: the arithmetic is
        # the same, so exposures and counts must agree bit for bit (an einsum
        # for the rates moves the last bit of the total rate on some truths)
        rows = bn_state_protocol(36).rows if name == "B36" else process_protocol(name).rows
        rng = np.random.default_rng(5)
        plan = ExperimentPlan(1000, seed=0)
        for _ in range(8):
            truth = random_density_matrix(rows.operators.shape[1], rng)
            rates = [float(np.real(np.trace(op @ truth))) for op in rows.operators]
            rates = np.clip(rates, 0.0, None)
            scale = plan.n_total / float(np.dot(rates, rows.exposures))
            exposures = [t * scale for t in rows.exposures]
            draws = np.random.default_rng(plan.seed)
            counts = [sample_poisson(lam * t, draws) for lam, t in zip(rates, exposures)]
            data = generate_counts(rows, truth, plan)
            assert data.exposures.tolist() == exposures
            assert data.counts.tolist() == counts

    def test_repeatable_for_fixed_seed(self, plate_truth):
        proto = process_protocol("J4")
        plan = ExperimentPlan(10**4, seed=9)
        a = generate_counts(proto.rows, plate_truth, plan)
        b = generate_counts(proto.rows, plate_truth, plan)
        assert a.counts.tolist() == b.counts.tolist()

    def test_exposure_rescaling_exact(self, plate_truth):
        proto = process_protocol("R4")
        rows = generate_counts(proto.rows, plate_truth, ExperimentPlan(10**4, seed=1))
        rates = [np.real(np.trace(op @ plate_truth)) for op in rows.operators]
        total = sum(rate * t for rate, t in zip(rates, rows.exposures))
        assert total == pytest.approx(10**4, rel=1e-12)
        exposures = {round(t, 9) for t in rows.exposures}
        assert len(exposures) == 1  # uniform stays uniform

    def test_zero_rate_row_gets_zero_count(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        identity_choi = np.outer(phi, phi)
        proto = process_protocol("J4")
        rows = generate_counts(proto.rows, identity_choi, ExperimentPlan(10**4, seed=3))
        # row (H in, V out) has rate 0 under the identity process
        assert np.real(np.trace(proto.rows.operators[1] @ identity_choi)) < 1e-15
        assert rows.counts[1] == 0

    def test_sample_mean_tracks_expectation(self, plate_truth):
        proto = process_protocol("R4")
        reps = 400
        sums = np.zeros(16)
        for i in range(reps):
            rows = generate_counts(proto.rows, plate_truth, ExperimentPlan(1000, seed=50_000 + i))
            sums += rows.counts
        rows = generate_counts(proto.rows, plate_truth, ExperimentPlan(1000, seed=0))
        expected = np.array(
            [np.real(np.trace(op @ plate_truth)) * t for op, t in zip(rows.operators, rows.exposures)]
        )
        se = np.sqrt(expected / reps)
        assert np.all(np.abs(sums / reps - expected) < 4 * se)

    def test_rejects_auxiliary_rows(self, plate_truth):
        aux = auxiliary_rows(j4_states(), 10.0, 1.0)
        with pytest.raises(ValueError, match="non-auxiliary"):
            generate_counts(aux, plate_truth, ExperimentPlan(100, seed=0))

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="n_total"):
            ExperimentPlan(0, seed=0)
        for bad in (1000.5, 1000.0, True):
            with pytest.raises(ValueError, match="n_total must be an integer"):
                ExperimentPlan(bad, seed=0)
        assert ExperimentPlan(np.int64(10), seed=0).n_total == 10
        with pytest.raises(ValueError, match="auxiliary_weight"):
            ExperimentPlan(10, seed=0, auxiliary_weight=0.0)
