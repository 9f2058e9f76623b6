from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo import protocols
from chitomo.cli import COMMANDS
from chitomo.harness import TruthSpec
from chitomo.ml_engine import ReconstructionConfig
from chitomo.process_algebra import chi_from_kraus
from chitomo.protocols import (
    AUXILIARY_WEIGHT,
    Config,
    IncompleteProtocolError,
    Measurements,
    auxiliary_rows,
    b4_states,
    bloch_vector,
    bn_state_protocol,
    check_event_count,
    generate_counts_batch,
    j4_states,
    process_protocol,
    r4_states,
    state_from_bloch,
)
from chitomo.waveplate import WaveplateSpec, optical_thickness, plate_unitary
from process_oracles import (
    auxiliary_operators_per_row,
    derive_seed,
    direct_probability,
    each_lane,
    effective_probability,
    generate_counts,
    generate_counts_per_set,
    per_row_rates,
    poisson_counts,
    process_operators_per_row,
    sample_poisson,
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

    @pytest.mark.parametrize("config_class", sorted({c for c, _ in COMMANDS.values()} | {
        _Outer, ReconstructionConfig, TruthSpec}, key=lambda c: c.__name__))
    def test_to_dict_equals_asdict_with_same_types(self, config_class):
        # to_dict skips asdict's deep copy; the dict must not change
        required = {"data_path": "x.json", "chi_path": "x.json", "rank": 2}
        names = {f.name for f in fields(config_class)}
        config = config_class(**{k: v for k, v in required.items() if k in names})

        def types(value):
            if isinstance(value, dict):
                return {k: types(v) for k, v in value.items()}
            if isinstance(value, tuple):
                return (tuple, [types(v) for v in value])
            return type(value)

        assert config.to_dict() == asdict(config)
        assert types(config.to_dict()) == types(asdict(config))

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
            ({"exposures": [[[1.0, 1.0]]]}, r"exposures must have shape \(2,\) or \(B, 2\)"),
            ({"counts": [1, 2, 3]}, r"counts must have shape \(2,\)"),
            ({"exposures": [[1.0, 1.0]] * 3, "counts": [1, 2]},
             r"counts must have shape \(3, 2\), as exposures, got \(2,\)"),
            ({"auxiliary": [True]}, r"auxiliary must have shape \(2,\)"),
            ({"operators": [np.eye(2), np.eye(3)]}, "operators must all have the same shape"),
            ({"operators": np.ones((2, 2, 3))}, r"operators must have shape \(m, d, d\)"),
            ({"operators": np.eye(2)}, r"operators must have shape \(m, d, d\)"),
        ],
        ids=["short-exposures", "3d-exposures", "long-counts", "lane-counts", "short-mask",
             "mixed-dim", "non-square", "single-matrix"],
    )
    def test_shape_mismatch_rejected(self, kwargs, message):
        fields = {"operators": [np.eye(2)] * 2, "exposures": [1.0, 1.0], **kwargs}
        with pytest.raises(ValueError, match=message):
            Measurements(**fields)

    def test_lanes_share_the_operators_and_mask(self):
        data = Measurements(
            [np.eye(2), np.diag([1.0, 0.0])], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            [[1, 2], [3, 4], [5, 6]], [False, True],
        )
        one = data.lanes(1)
        assert one.exposures.tolist() == [3.0, 4.0] and one.counts.tolist() == [3.0, 4.0]
        picked = data.lanes(np.array([True, False, True]))
        assert picked.exposures.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert picked.counts.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        for lanes in (one, picked, data.lanes(slice(1, None))):
            assert lanes.operators is data.operators
            assert lanes.auxiliary is data.auxiliary
        with pytest.raises(ValueError, match=r"^exposures must have shape .* got \(\)$"):
            one.lanes(0)  # a data set has no lanes

    def test_concatenation_broadcasts_one_set_over_lanes(self):
        lanes = Measurements([np.eye(2)], [[1.0], [2.0]], [[3], [4]])
        shared = Measurements([np.diag([0.0, 1.0])], [5.0], [6], [True])
        joined = lanes + shared
        assert joined.exposures.tolist() == [[1.0, 5.0], [2.0, 5.0]]
        assert joined.counts.tolist() == [[3.0, 6.0], [4.0, 6.0]]
        assert joined.auxiliary.tolist() == [False, True]
        assert (shared + lanes).exposures.tolist() == [[5.0, 1.0], [5.0, 2.0]]

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
        rows = bn_state_protocol(36, 312.7, 1.0)
        assert isinstance(rows, Measurements)
        assert len(rows.operators) == 36
        for op in rows.operators:
            w = np.linalg.eigvalsh(op)
            assert op.trace().real == pytest.approx(1.0, abs=1e-12)
            assert w.min() > -1e-12
            assert np.sum(w > 1e-12) == 1  # rank 1

    def test_average_operator_and_completeness(self):
        rows = bn_state_protocol(36, 312.7, 1.0)
        avg = sum(rows.operators) / 36
        assert avg.trace().real == pytest.approx(1.0, abs=1e-12)
        stack = np.array(
            [
                [op[0, 0].real, op[1, 1].real, op[0, 1].real, op[0, 1].imag]
                for op in rows.operators
            ]
        )
        assert np.linalg.matrix_rank(stack, tol=1e-8) == 4

    @pytest.mark.parametrize("n", [4, 7, 36, 100])
    @pytest.mark.parametrize("thickness", [100.0, 312.7, 5031.0])
    def test_matches_per_orientation_loop(self, n, thickness):
        # the loop over orientations that the stacked build replaced
        delta = optical_thickness(WaveplateSpec(thickness, 0.0), 1.0)
        v = np.array([0.0, 1.0], dtype=complex)
        loop = []
        for j in range(n):
            u = plate_unitary(delta, j * np.pi / n)
            loop.append(u.conj().T @ np.outer(v, v.conj()) @ u)
        loop = np.array(loop)
        coords = [loop[:, 0, 0].real, loop[:, 1, 1].real, loop[:, 0, 1].real, loop[:, 0, 1].imag]
        if np.linalg.matrix_rank(np.stack(coords, axis=1), tol=1e-8) < 4:
            # 4 orientations 45 degrees apart: 0 and 90 degrees have opposite axes
            with pytest.raises(IncompleteProtocolError, match="incomplete"):
                bn_state_protocol(n, thickness, 1.0)
            return
        ops = bn_state_protocol(n, thickness, 1.0).operators
        assert ops.tobytes() == loop.tobytes()

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
                [(ci, cm) for ci in proto.input_states for cm in proto.input_states],
            ):
                rate = np.real(np.trace(op @ choi))
                assert rate == pytest.approx(
                    direct_probability(kraus, c_in, c_m) / 2, abs=1e-12
                )

    @pytest.mark.parametrize("name", ["J4", "R4", "B4"])
    @pytest.mark.parametrize("lam_um", [0.8, 1.0, 1.1509])
    def test_operators_equal_kron_per_row(self, name, lam_um):
        # the broadcast product against one np.kron per row, bit for bit
        # (signed zeros included) for the process rows and the auxiliary rows
        proto = process_protocol(name, lam_um)
        oracle = process_operators_per_row(proto.input_states)
        assert proto.rows.operators.tobytes() == oracle.tobytes()
        aux = auxiliary_rows(proto.input_states, 123.4, 10.0)
        assert aux.operators.tobytes() == auxiliary_operators_per_row(proto.input_states).tobytes()

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


class TestProcessDatasets:
    @pytest.mark.parametrize("name", ["J4", "R4", "B4"])
    def test_equal_one_set_at_a_time(self, name, plate_truth):
        # each set is its own count set joined with auxiliary rows built
        # from its own exposures, to the bit
        proto = process_protocol(name)
        seeds = [derive_seed(4, i) for i in range(5)]
        sets = protocols.process_datasets(proto, plate_truth, 3000, seeds)
        for data, seed in zip(each_lane(sets), seeds):
            alone = generate_counts(proto.rows, plate_truth, 3000, seed)
            alone = alone + auxiliary_rows(proto.input_states, sum(alone.exposures), AUXILIARY_WEIGHT)
            for column in ("operators", "exposures", "counts", "auxiliary"):
                assert getattr(data, column).tobytes() == getattr(alone, column).tobytes(), column
            assert data.operators is sets.operators


class CountingGenerator:
    """A generator that counts its ``random`` calls."""

    default_rng = np.random.default_rng  # unaffected by patching np.random

    def __init__(self, seed):
        self.rng = CountingGenerator.default_rng(seed)
        self.calls = 0

    def random(self, *args):
        self.calls += 1
        return self.rng.random(*args)


class TestPoissonSampler:
    def test_zero_mean(self, rng):
        assert poisson_counts([0.0], rng) == [0]

    def test_invalid_mean(self, rng):
        with pytest.raises(ValueError, match="finite"):
            poisson_counts([1.0, -1.0], rng)
        with pytest.raises(ValueError, match="finite"):
            poisson_counts([np.inf], rng)

    def test_frozen_draws(self):
        rng = np.random.default_rng(2024)
        draws = poisson_counts([0.0, 0.5, 5.0, 29.9, 30.0, 1e4], rng)
        assert draws == [0, 1, 3, 27, 23, 9897]
        assert all(type(k) is int for k in draws)

    @pytest.mark.parametrize("mean", [0.1, 10.0, 1e4])
    def test_moments(self, mean):
        rng = np.random.default_rng(777)
        n = 20000
        draws = np.array(poisson_counts(np.full(n, mean), rng))
        se_mean = np.sqrt(mean / n)
        assert abs(draws.mean() - mean) < 4 * se_mean
        # Poisson variance equals the mean; var of the sample variance is
        # roughly (mu + 2 mu^2) / n (Gaussian limit plus skew correction).
        se_var = np.sqrt((mean + 2 * mean**2) / n)
        assert abs(draws.var() - mean) < 5 * se_var

    def test_generator_ends_past_the_first_block(self):
        # the first block holds a uniform per mean in (0, 30), two per mean
        # from 30 up and 16 more; when it covers the draws, the generator
        # ends right past it
        means = [0.0, 0.5, 5e-324, 29.99, 30.0, 1e3, 0.0]
        rng = np.random.default_rng(8)
        poisson_counts(means, rng)
        oracle = np.random.default_rng(8)
        oracle.random(3 + 2 * 2 + 16)  # 3 inversion draws, 2 rejection means
        assert rng.random() == oracle.random()

    def test_matches_scalar_oracle_across_blocks(self):
        # the blocks of uniforms are one stream: the draws equal one scalar
        # rng.random() call per uniform, also past a block's end
        means = np.tile([0.0, 0.3, 7.0, 29.99, 30.0, 30.01, 64.0, 5e3], 40)
        counting = CountingGenerator(31)
        draws = poisson_counts(means, counting)
        oracle = np.random.default_rng(31)
        assert draws == [sample_poisson(mu, oracle) for mu in means]
        assert counting.calls >= 2

    def test_rejection_constants_equal_scalar_expressions(self):
        # the one array pass gives the doubles of the oracle's per-draw
        # expressions for every mean from 30 up, in order; a wrong bit in
        # v_r or 1/alpha would move a draw only once in ~1e15 attempts
        rng = np.random.default_rng(6)
        edges = [0.0, 29.9, 30.0, 1e4, 1e7, np.nextafter(30.0, 0.0)]
        means = np.concatenate([edges, 30.0 + rng.exponential(1e3, 1994)])
        rng.shuffle(means)
        expected = []
        for mu in means[means >= 30.0].tolist():
            b = 0.931 + 2.53 * math.sqrt(mu)
            expected.append(
                (b, -0.059 + 0.02483 * b, 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2.0))
            )
        assert list(protocols._rejection_constants(means)) == expected
        assert list(protocols._rejection_constants(means.reshape(40, -1))) == expected

    @pytest.mark.parametrize(
        "means",
        [[mean] * 300 for mean in (0.0, 0.3, 29.9, 30.0, 1e4, 1e7)]
        + [[0.0, 0.3, 29.9, 30.0, 1e4, 1e7] * 50, [1e4] * 300 + [0.5]],
        ids=["0", "0.3", "29.9", "30", "1e4", "1e7", "mixed", "odd-block"],
    )
    def test_draws_and_end_state_equal_scalar_oracle(self, means):
        # every draw is the scalar oracle's, and the generator ends past the
        # last block fetched: blocks of (uniforms per first attempt + 16),
        # as many as the oracle's uniforms fill, none for all-zero means;
        # the rejection means fail more than 8 attempts and refill the
        # block, in the odd-sized block of "odd-block" with one uniform left
        counting = CountingGenerator(41)
        draws = poisson_counts(means, counting)
        oracle = CountingGenerator(41)
        assert draws == [sample_poisson(mu, oracle) for mu in means]
        block = sum(1 if 0 < mu < 30 else 2 if mu >= 30 else 0 for mu in means) + 16
        end = np.random.default_rng(41)
        end.random(-(-oracle.calls // block) * block)
        assert counting.rng.bit_generator.state == end.bit_generator.state
        assert counting.calls == -(-oracle.calls // block)
        if max(means) >= 30.0:
            assert counting.calls >= 2


def straddle_rows():
    """480 rows whose means under the truth |0><0| sit on both sides of the
    sampler's switch at mean 30, every other row with rate exactly 0."""
    means = np.tile([0.4, 29.0, 29.999, 30.0, 30.001, 30.5, 33.0, 41.0], 30)
    ops = np.tile([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (240, 1, 1))
    return Measurements(ops, np.repeat(means, 2))


class TestGenerateCounts:
    def test_frozen_counts(self, plate_truth):
        proto = process_protocol("R4")
        rows = generate_counts(proto.rows, plate_truth, 10**4, 123)
        assert rows.counts.tolist() == GOLDEN_COUNTS

    @pytest.mark.parametrize("name", ["J4", "R4", "B4", "B4-state", "B36", "straddle"])
    def test_matches_per_row_reference(self, name, monkeypatch):
        # the per-row loop that the one-product rates replaced, drawing with
        # the scalar sampler: each rate is the same length-d dot product, so
        # exposures and counts must agree bit for bit (an einsum for the
        # rates moves the last bit of some), for truths of every rank
        if name == "straddle":
            rows, n_total = straddle_rows(), 6717  # the exposed rows' sum: scale 1
            truths = [np.diag([1.0, 0.0]).astype(complex)]
        else:
            if name == "B4-state":
                rows = Measurements([np.outer(s, s.conj()) for s in b4_states()], np.ones(4))
            elif name == "B36":
                rows = bn_state_protocol(36)
            else:
                rows = process_protocol(name).rows
            rng = np.random.default_rng(5)
            n_total = 1000
            d = rows.operators.shape[1]
            truths = [
                random_density_matrix(d, rng, rank)
                for rank in range(1, d + 1)
                for _ in range(4)
            ]
        generators, means_drawn = [], []

        def counting_rng(seed):
            generators.append(CountingGenerator(seed))
            return generators[-1]

        draw_counts = protocols._draw_counts

        def recording_draw_counts(means, rng, block, rejection):
            means_drawn.append(means)
            return draw_counts(means, rng, block, rejection)

        for truth in truths:
            rates = np.clip(per_row_rates(rows, truth), 0.0, None)
            scale = n_total / float(np.dot(rates, rows.exposures))
            exposures = np.array([t * scale for t in rows.exposures])
            draws = np.random.default_rng(0)
            counts = np.array([sample_poisson(lam * t, draws) for lam, t in zip(rates, exposures)])
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counting_rng)
                patch.setattr(protocols, "_draw_counts", recording_draw_counts)
                data = generate_counts(rows, truth, n_total, 0)
            assert np.array_equal(means_drawn[-1], rates * exposures)
            assert np.array_equal(data.exposures, exposures)
            assert np.array_equal(data.counts, counts)
        if name == "straddle":
            means = np.multiply(rates, exposures)
            assert np.any(means == 0.0) and np.any((means > 29.9) & (means < 30))
            assert np.any((means >= 30.0) & (means < 30.1))
            assert generators[-1].calls >= 2  # the uniform block was refilled

    @pytest.mark.parametrize("name", ["J4", "R4", "B4", "B36", "straddle"])
    def test_batch_lanes_equal_single_sets(self, name):
        # every lane of a batch of S = 1..16 sets is generate_counts alone,
        # and the per-set path it replaced, bit for bit: process rows of each
        # family and the B36 state rows with random truths of every rank, and
        # rows whose means are 0, just below 30 and from 30 up
        if name == "straddle":
            rows, n_total = straddle_rows(), 6717
            truths = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.7, 0.3]).astype(complex)]
        else:
            rows = bn_state_protocol(36) if name == "B36" else process_protocol(name).rows
            rng = np.random.default_rng(11)
            n_total = 3000
            d = rows.operators.shape[1]
            truths = [random_density_matrix(d, rng, 1 + k % d) for k in range(16)]
            if name == "B36":
                truths[0] = np.diag([1.0, 0.0]).astype(complex)  # rate 0 on row 0, |V><V|
        truths = np.array([truths[k % len(truths)] for k in range(16)])
        seeds = [derive_seed(7, k) for k in range(16)]
        means = []
        for n_sets in range(1, 17):
            batch = generate_counts_batch(rows, truths[:n_sets], n_total, seeds[:n_sets])
            assert batch.counts.shape == (n_sets, len(rows.operators))
            for truth, seed, data in zip(truths, seeds, each_lane(batch)):
                for single in (generate_counts(rows, truth, n_total, seed),
                               generate_counts_per_set(rows, truth, n_total, seed)):
                    assert np.array_equal(data.exposures, single.exposures)
                    assert np.array_equal(data.counts, single.counts)
                assert data.operators is rows.operators  # every lane's
                assert data.auxiliary is rows.auxiliary
                means.append(per_row_rates(rows, truth) * data.exposures)
        means = np.concatenate(means)
        assert np.any(means < 30.0) and np.any(means >= 30.0)
        if name in ("straddle", "B36"):
            assert np.any(np.abs(means) < 1e-12)

    def test_batch_equals_scalar_oracle_with_end_states(self, monkeypatch):
        # rows of rate 1 or 0 under diagonal truths, with exposures whose
        # every partial sum is exact and whose total is n_total, so the
        # exposure scale is 1 and the means are exactly 0, 0.3125, 29.875
        # (dyadic neighbours of 0.3 and 29.9), 30, 1e4 and 1e7 (halved under
        # the mixed truth); each set's counts are
        # the scalar oracle's draws from its seed, and each generator ends
        # past the blocks its draws fetched, some set refilling its first
        means = np.tile([0.0, 0.3125, 29.875, 30.0, 1e4, 1e7, 0.8125], 40)
        rows = Measurements(
            np.tile([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (len(means), 1, 1)),
            np.repeat(means, 2),
        )
        n_total = 40 * 10_010_061
        truths = np.array([np.diag(p) for p in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5])], complex)
        seeds = [derive_seed(3, k) for k in range(3)]
        generators = []

        def counting_rng(seed):
            generators.append(CountingGenerator(seed))
            return generators[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", counting_rng)
            batch = generate_counts_batch(rows, truths, n_total, seeds)
        for truth, seed, data, generator in zip(truths, seeds, each_lane(batch), generators):
            assert np.array_equal(data.exposures, rows.exposures)  # scale 1
            set_means = per_row_rates(rows, truth) * data.exposures
            rate = truth[0, 0].real or 1.0  # of the exposed rows
            assert set(set_means.tolist()) >= {0.0, 30.0 * rate, 1e4 * rate, 1e7 * rate}
            oracle = CountingGenerator(seed)
            assert data.counts.tolist() == [sample_poisson(mu, oracle) for mu in set_means]
            block = int(np.count_nonzero(set_means) + np.count_nonzero(set_means >= 30) + 16)
            end = np.random.default_rng(seed)
            end.random(-(-oracle.calls // block) * block)
            assert generator.rng.bit_generator.state == end.bit_generator.state
        assert max(generator.calls for generator in generators) >= 2

    @pytest.mark.parametrize("name", ["R4", "B36", "straddle"])
    def test_one_truth_for_many_seeds(self, name, monkeypatch):
        # one truth for S seeds is one generate_counts call per seed and the
        # stack of S copies of the truth: the same exposures and counts, and
        # each generator in the same end state
        if name == "straddle":
            rows, n_total = straddle_rows(), 6717  # scale 1: means 0, below and from 30
            truth = np.diag([1.0, 0.0]).astype(complex)
        else:
            rows = bn_state_protocol(36) if name == "B36" else process_protocol(name).rows
            truth = random_density_matrix(rows.operators.shape[1], np.random.default_rng(2), 2)
            n_total = 3000
        seeds = [derive_seed(9, k) for k in range(12)]
        generators = {"batch": [], "single": []}
        for path in generators:
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng",
                              lambda seed: generators[path].append(CountingGenerator(seed))
                              or generators[path][-1])
                if path == "batch":
                    batch = generate_counts_batch(rows, truth, n_total, seeds)
                else:
                    singles = [generate_counts(rows, truth, n_total, seed) for seed in seeds]
        stack = generate_counts_batch(rows, np.stack([truth] * len(seeds)), n_total, seeds)
        assert batch.counts.shape == (len(seeds), len(rows.operators))
        for data, single, stacked in zip(each_lane(batch), singles, each_lane(stack)):
            for other in (single, stacked):
                assert data.exposures.tobytes() == other.exposures.tobytes()
                assert data.counts.tobytes() == other.counts.tobytes()
            assert data.operators is rows.operators
        for got, want in zip(generators["batch"], generators["single"]):
            assert got.calls == want.calls
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
        if name == "straddle":
            assert max(g.calls for g in generators["batch"]) >= 2  # a refilled block
        empty = generate_counts_batch(rows, truth, n_total, [])
        assert empty.counts.shape == (0, len(rows.operators))

    def test_one_truth_errors_read_as_one_set(self):
        rows = process_protocol("R4").rows
        with pytest.raises(ValueError, match="^total expected rate nan is not usable"):
            generate_counts_batch(rows, np.full((4, 4), np.nan), 100, [1, 2, 3])
        with pytest.raises(ValueError, match="^total expected rate 0.0 is not usable"):
            generate_counts_batch(rows, np.zeros((4, 4)), 100, [1, 2])

    def test_batch_checks(self, plate_truth):
        rows = process_protocol("R4").rows
        with pytest.raises(ValueError, match="2 seeds for 1 truths"):
            generate_counts_batch(rows, [plate_truth], 100, [1, 2])
        with pytest.raises(ValueError, match="set 1: total expected rate 0.0 is not usable"):
            generate_counts_batch(rows, [plate_truth, np.zeros((4, 4))], 100, [1, 2])
        with pytest.raises(ValueError, match="^total expected rate 0.0 is not usable"):
            generate_counts(rows, np.zeros((4, 4)), 100, 0)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_bad_mean_in_set_3_raises_as_per_set_path(self, rank):
        # a subnormal truth passes the total-rate check, but its exposure
        # scale n_total / base overflows: every mean is inf, or nan on a row
        # of rate 0; the one check over all sets raises what set 3's own
        # draw raised before
        rows = bn_state_protocol(36)
        rng = np.random.default_rng(4)
        truths = [random_density_matrix(2, rng, rank) for _ in range(6)]
        truths[3] = np.diag([1e-310, 0.0]).astype(complex)
        seeds = [derive_seed(5, k) for k in range(6)]
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow, and 0 * inf
            with pytest.raises(ValueError) as per_set:
                for truth, seed in zip(truths, seeds):
                    generate_counts_per_set(rows, truth, 10**5, seed)
            with pytest.raises(ValueError) as alone:
                generate_counts(rows, truths[3], 10**5, seeds[3])
            with pytest.raises(ValueError) as batch:
                generate_counts_batch(rows, truths, 10**5, seeds)
        assert str(batch.value).startswith("Poisson mean must be finite and >= 0, got ")
        assert str(batch.value) == str(per_set.value) == str(alone.value)

    def test_repeatable_for_fixed_seed(self, plate_truth):
        proto = process_protocol("J4")
        a = generate_counts(proto.rows, plate_truth, 10**4, 9)
        b = generate_counts(proto.rows, plate_truth, 10**4, 9)
        assert a.counts.tolist() == b.counts.tolist()

    def test_exposure_rescaling_exact(self, plate_truth):
        proto = process_protocol("R4")
        rows = generate_counts(proto.rows, plate_truth, 10**4, 1)
        rates = [np.real(np.trace(op @ plate_truth)) for op in rows.operators]
        total = sum(rate * t for rate, t in zip(rates, rows.exposures))
        assert total == pytest.approx(10**4, rel=1e-12)
        exposures = {round(t, 9) for t in rows.exposures}
        assert len(exposures) == 1  # uniform stays uniform

    def test_zero_rate_row_gets_zero_count(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        identity_choi = np.outer(phi, phi)
        proto = process_protocol("J4")
        rows = generate_counts(proto.rows, identity_choi, 10**4, 3)
        # row (H in, V out) has rate 0 under the identity process
        assert np.real(np.trace(proto.rows.operators[1] @ identity_choi)) < 1e-15
        assert rows.counts[1] == 0

    def test_sample_mean_tracks_expectation(self, plate_truth):
        proto = process_protocol("R4")
        reps = 400
        sums = np.zeros(16)
        for i in range(reps):
            rows = generate_counts(proto.rows, plate_truth, 1000, 50_000 + i)
            sums += rows.counts
        rows = generate_counts(proto.rows, plate_truth, 1000, 0)
        expected = np.array(
            [np.real(np.trace(op @ plate_truth)) * t for op, t in zip(rows.operators, rows.exposures)]
        )
        se = np.sqrt(expected / reps)
        assert np.all(np.abs(sums / reps - expected) < 4 * se)

    def test_rejects_auxiliary_rows(self, plate_truth):
        aux = auxiliary_rows(j4_states(), 10.0, 1.0)
        with pytest.raises(ValueError, match="non-auxiliary"):
            generate_counts(aux, plate_truth, 100, 0)

    @pytest.mark.parametrize(
        "n_total, message",
        [
            (0, "n_total must be >= 1, got 0"),
            (-3, "n_total must be >= 1, got -3"),
            (2**53 + 1, "n_total must be <= 2**53, got 9007199254740993"),
            (2.5, "n_total must be an integer, got 2.5"),
            (True, "n_total must be an integer, got True"),
        ],
    )
    def test_rejects_bad_n_total(self, plate_truth, n_total, message):
        rows = process_protocol("J4").rows
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_counts(rows, plate_truth, n_total, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_counts_batch(rows, plate_truth, n_total, [0, 1])

    def test_check_event_count(self):
        with pytest.raises(ValueError, match="^n_events must be >= 1, got 0$"):
            check_event_count(0, "n_events")
        with pytest.raises(ValueError, match=r"^n_list\[2\] must be >= 1, got -3$"):
            check_event_count(-3, "n_list[2]")
        with pytest.raises(ValueError, match=r"^n_events must be <= 2\*\*53, got 9007199254740993$"):
            check_event_count(2**53 + 1, "n_events")
        with pytest.raises(ValueError, match=r"^n_events must be <= 2\*\*53, got 1000"):
            check_event_count(10**400, "n_events")
        with pytest.raises(ValueError, match="^n_events must be an integer, got 2.5$"):
            check_event_count(2.5, "n_events")
        check_event_count(np.int64(1), "n_events")
        check_event_count(2**53, "n_events")
