import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo.quantum_core import fidelity, partial_trace, vectorize, von_neumann_entropy
from chitomo.waveplate import (
    SINC_HALF_POWER,
    SU2Retarder,
    SpectralProfile,
    WaveplateSpec,
    axis_from_orientation,
    birefringence_from_delta,
    broadband_mixed_state,
    component_sum_states,
    THIN_PLATE_LIMIT_UM,
    fit_su2_retarder,
    optical_thickness,
    plate_choi_state,
    plate_count_states,
    plate_unitary,
    quartz_indices,
    sinc2_profile,
    sinc2_weights,
)
from process_oracles import (
    component_sum_state,
    component_sums_per_subset,
    monochromatic_states,
    plate_choi_state_per_knot,
    retarder_unitary,
    su2_from_retarder,
)
from conftest import REF_PLATE_CHOI, REF_PLATE_EIGENVALUES, SIGMA_X


def quartz_indices_oracle(lam):
    """Evaluate the two dispersion formulas in 50-digit arithmetic."""
    with mpmath.workdps(50):
        l2 = mpmath.mpf(str(lam)) ** 2
        n_o = mpmath.sqrt(
            mpmath.mpf("1.30979")
            + mpmath.mpf("1.04683") * l2 / (l2 - mpmath.mpf("0.01025"))
            + mpmath.mpf("1.20328") * l2 / (l2 - mpmath.mpf("108.584"))
        )
        n_e = mpmath.sqrt(
            mpmath.mpf("1.32888")
            + mpmath.mpf("1.05487") * l2 / (l2 - mpmath.mpf("0.01053"))
            + mpmath.mpf("0.97121") * l2 / (l2 - mpmath.mpf("84.261"))
        )
        return float(n_o), float(n_e)


class TestQuartzIndices:
    def test_against_high_precision_oracle(self):
        for lam in (0.5893, 1.0, 1.1509):
            n_o, n_e = quartz_indices(lam)
            o_o, o_e = quartz_indices_oracle(lam)
            assert n_o == pytest.approx(o_o, abs=2e-4)
            assert n_e == pytest.approx(o_e, abs=2e-4)

    def test_sodium_line_standard_values(self):
        n_o, n_e = quartz_indices(0.5893)
        assert n_o == pytest.approx(1.5443, abs=1e-3)
        assert n_e == pytest.approx(1.5533, abs=1e-3)

    def test_positive_uniaxial(self):
        for lam in (0.4, 0.5893, 1.0, 1.1509, 2.0):
            n_o, n_e = quartz_indices(lam)
            assert n_e > n_o

    def test_birefringence_magnitudes(self):
        n_o, n_e = quartz_indices(1.1509)
        assert n_e - n_o == pytest.approx(0.0087, abs=2e-4)
        n_o, n_e = quartz_indices(1.0)
        assert n_e - n_o == pytest.approx(0.0088, abs=2e-4)

    def test_window_enforced(self):
        with pytest.raises(ValueError, match="window"):
            quartz_indices(0.1)
        with pytest.raises(ValueError, match="window"):
            quartz_indices(3.5)


class TestOpticalThickness:
    def test_zero_thickness(self):
        assert optical_thickness(WaveplateSpec(0.0, 0.0), 1.0) == 0.0

    def test_values_from_dispersion_oracle(self):
        o_o, o_e = quartz_indices_oracle(1.0)
        delta = optical_thickness(WaveplateSpec(312.7, 0.0), 1.0)
        assert delta == pytest.approx(np.pi * (o_e - o_o) * 312.7 / 1.0, abs=1e-10)
        assert delta == pytest.approx(8.62, abs=0.2)
        o_o, o_e = quartz_indices_oracle(1.1509)
        delta = optical_thickness(WaveplateSpec(5024.0, 0.0), 1.1509)
        assert delta == pytest.approx(np.pi * (o_e - o_o) * 5024.0 / 1.1509, abs=1e-9)
        assert delta == pytest.approx(119.3, abs=3.0)

    def test_inverse_relation(self):
        for h, lam in ((312.7, 1.0), (5024.0, 1.1509), (214.0, 1.1509)):
            delta = optical_thickness(WaveplateSpec(h, 0.0), lam)
            n_o, n_e = quartz_indices(lam)
            assert birefringence_from_delta(delta, lam, h) == pytest.approx(
                abs(n_e - n_o), abs=1e-12
            )


class TestRetarderUnitary:
    def test_zero_retardance(self):
        assert_allclose(plate_unitary(0.0, 0.3), np.eye(2))

    def test_half_wave_at_45_deg(self):
        assert_allclose(plate_unitary(np.pi / 2, np.pi / 4), -1j * SIGMA_X, atol=1e-15)

    def test_diagonal_at_zero_orientation(self):
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        assert_allclose(plate_unitary(np.pi / 4, 0.0), expected, atol=1e-15)

    def test_unitary_unit_determinant(self, rng):
        for _ in range(20):
            delta = rng.uniform(0, 2 * np.pi)
            alpha = rng.uniform(0, np.pi)
            u = plate_unitary(delta, alpha)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)

    def test_stack_of_orientations_matches_scalar_calls(self):
        alphas = np.arange(36) * np.pi / 36
        stack = plate_unitary(1.234, alphas)
        assert stack.shape == (36, 2, 2)
        for alpha, u in zip(alphas, stack):
            assert u.tobytes() == plate_unitary(1.234, float(alpha)).tobytes()
            assert u.tobytes() == retarder_unitary(1.234, axis_from_orientation(alpha)).tobytes()

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="axis"):
            retarder_unitary(1.0, np.array([1.0, 1.0, 0.0]))


class TestSinc2Profile:
    def test_peak_at_center(self):
        p = sinc2_profile(1.0, 0.008, knots=801, span=10)
        assert p.weights.argmax() == 400

    def test_half_weight_at_half_fwhm(self):
        # Grid chosen so that lam0 +- fwhm/2 are exact knots.
        p = sinc2_profile(1.0, 0.008, knots=801, span=10)
        peak = p.weights.max()
        idx = np.argmin(np.abs(p.wavelengths - (1.0 + 0.004)))
        assert p.weights[idx] / peak == pytest.approx(0.5, rel=0.01)

    def test_component_offset_relative_weights(self):
        x = 2 * SINC_HALF_POWER * np.array([0.002, 0.004, 0.006]) / 0.008
        rel = np.sinc(x / np.pi) ** 2
        assert rel[0] == pytest.approx(0.847, abs=0.01)
        assert rel[1] == pytest.approx(0.50, abs=0.005)
        assert rel[2] == pytest.approx(0.173, abs=0.01)

    def test_profile_is_the_normalized_shape(self):
        p = sinc2_profile(1.0, 0.008, knots=801, span=10)
        shape = sinc2_weights(p.wavelengths, 1.0, 0.008)
        assert shape[400] == 1.0
        assert shape[np.argmin(np.abs(p.wavelengths - 1.004))] == pytest.approx(0.5, rel=0.01)
        assert p.weights.tobytes() == (shape / shape.sum()).tobytes()

    def test_normalized_and_increasing(self):
        p = sinc2_profile(1.1509, 0.008)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(p.wavelengths) > 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="odd"):
            sinc2_profile(1.0, 0.008, knots=800)
        with pytest.raises(ValueError, match="odd"):
            sinc2_profile(1.0, 0.008, knots=1)
        with pytest.raises(ValueError, match="positive"):
            sinc2_profile(1.0, 0.008, span=-1)

    def test_profile_invariants_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectralProfile(np.array([1.0, 0.9]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralProfile(np.array([0.9, 1.0]), np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum"):
            SpectralProfile(np.array([0.9, 1.0]), np.array([0.5, 0.6]))


class TestPlateChoiState:
    def test_monochromatic_is_pure_unitary_choi(self):
        spec = WaveplateSpec(5024.0, np.pi / 4)
        profile = SpectralProfile(np.array([1.1509]), np.array([1.0]))
        rho = plate_choi_state(spec, profile)
        w = np.linalg.eigvalsh(rho)[::-1]
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(w[1:]) < 1e-12)

    def test_reference_case_entrywise(self, plate_truth):
        assert np.max(np.abs(plate_truth - REF_PLATE_CHOI)) < 5e-3
        w = np.linalg.eigvalsh(plate_truth)[::-1]
        assert_allclose(w[:2], REF_PLATE_EIGENVALUES, atol=5e-3)

    def test_rank_two_structure(self):
        for h, alpha, lam0 in ((5024.0, np.pi / 4, 1.1509), (5031.0, 0.3, 1.0), (312.7, 1.0, 0.8)):
            rho = plate_choi_state(
                WaveplateSpec(h, alpha), sinc2_profile(lam0, 0.008, 401, 20)
            )
            w = np.linalg.eigvalsh(rho)[::-1]
            assert np.all(np.abs(w[2:]) < 1e-10)

    def test_trace_one_and_trace_preserving(self, plate_truth):
        assert plate_truth.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(partial_trace(2 * plate_truth, "output") - np.eye(2))) < 1e-10

    def test_refinement_consistency(self, plate_truth):
        spec = WaveplateSpec(5024.0, np.pi / 4)
        finer = plate_choi_state(spec, sinc2_profile(1.1509, 0.008, 1601))
        assert np.max(np.abs(finer - plate_truth)) < 1e-4

    @pytest.mark.parametrize(
        "thickness_um, alpha, lam0, fwhm, knots, span",
        [
            (5024.0, np.pi / 4, 1.1509, 0.008, 801, 40.0),
            (312.7, 1.0, 0.8, 0.008, 401, 20.0),  # thin: every knot still at its own wavelength
            (25400.0, 0.3, 1.55, 0.02, 201, 10.0),
            (0.0, 0.2, 1.0, 0.01, 3, 1.0),
        ],
    )
    def test_equals_per_knot_oracle(self, thickness_um, alpha, lam0, fwhm, knots, span):
        spec = WaveplateSpec(thickness_um, alpha)
        profile = sinc2_profile(lam0, fwhm, knots, span)
        got, want = plate_choi_state(spec, profile), plate_choi_state_per_knot(spec, profile)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_first_out_of_window_knot_named(self):
        spec = WaveplateSpec(5024.0, 0.4)
        profile = SpectralProfile(np.array([0.1, 0.15, 1.0, 3.5]), np.full(4, 0.25))
        with pytest.raises(ValueError) as oracle:
            plate_choi_state_per_knot(spec, profile)
        with pytest.raises(ValueError, match=r"^wavelength 0\.1 um outside") as got:
            plate_choi_state(spec, profile)
        assert str(got.value) == str(oracle.value)

    def test_subspace_amplitudes(self):
        # Every knot's vector decomposes as cos(d)|phi1> - i sin(d)|phi2>
        # in the axis-fixed two-dim subspace, with d the signed retardance.
        spec = WaveplateSpec(5024.0, 0.4)
        nx, _, nz = axis_from_orientation(0.4)
        phi1 = np.array([1, 0, 0, 1]) / np.sqrt(2)
        phi2 = np.array([nz, nx, nx, -nz]) / np.sqrt(2)
        n_o, n_e = quartz_indices(1.1509)
        delta = np.pi * (n_o - n_e) * 5024.0 / 1.1509
        psi = vectorize(plate_unitary(delta, 0.4)) / np.sqrt(2)
        assert abs(phi1.conj() @ psi - np.cos(delta)) < 1e-12
        assert abs(phi2.conj() @ psi - (-1j * np.sin(delta))) < 1e-12


class TestSU2Retarder:
    def test_zero_retardance(self):
        g = su2_from_retarder(0.0, 0.7)
        assert g.t == pytest.approx(1.0)
        assert g.r == pytest.approx(0.0)

    def test_half_wave_at_45deg(self):
        g = su2_from_retarder(np.pi / 2, np.pi / 4)
        assert g.t == pytest.approx(0.0, abs=1e-15)
        assert g.r == pytest.approx(1j, abs=1e-15)

    def test_unimodularity(self, rng):
        for _ in range(50):
            g = su2_from_retarder(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            assert abs(g.t) ** 2 + abs(g.r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError, match="not 1"):
            SU2Retarder(1.0, 1.0)

    def test_fit_round_trip_principal_domain(self, rng):
        for _ in range(100):
            delta = rng.uniform(0.01, np.pi / 2 - 0.01)
            alpha = rng.uniform(0.0, np.pi - 1e-9)
            d, a, degenerate = fit_su2_retarder(su2_from_retarder(delta, alpha))
            assert not degenerate
            assert d == pytest.approx(delta, abs=1e-10)
            assert a == pytest.approx(alpha, abs=1e-10)

    def test_fit_identifies_degenerate(self):
        d, a, degenerate = fit_su2_retarder(SU2Retarder(1.0, 0.0))
        assert degenerate
        assert d == 0.0 and a == 0.0

    def test_fold_reproduces_matrix_up_to_sign(self, rng):
        for _ in range(50):
            delta = rng.uniform(0, 4 * np.pi)
            alpha = rng.uniform(0, np.pi)
            g = su2_from_retarder(delta, alpha)
            d, a, degenerate = fit_su2_retarder(g)
            if degenerate:
                continue
            assert 0 <= d <= np.pi / 2 and 0 <= a < np.pi
            m_fit = su2_from_retarder(d, a).matrix()
            m_true = g.matrix()
            err = min(
                np.max(np.abs(m_fit - m_true)), np.max(np.abs(m_fit + m_true))
            )
            assert err < 1e-10


class TestBirefringenceHelpers:
    def test_zero(self):
        assert birefringence_from_delta(0.0, 1.0, 100.0) == 0.0

    def test_simple_value(self):
        assert birefringence_from_delta(np.pi, 1.0, 1000.0) == pytest.approx(1e-3)

    def test_thickness_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            birefringence_from_delta(1.0, 1.0, 0.0)


V = np.array([0.0, 1.0], dtype=complex)
THICK = WaveplateSpec(5031.0, np.pi / 4)


def broadband_oracle(plates_alphas, lam0, fwhm, grid=4001, span=40.0):
    """Independent quadrature with the (t, r)-parameterized matrices."""
    lam = lam0 + np.linspace(-span * fwhm, span * fwhm, grid)
    x = 2 * SINC_HALF_POWER * (lam - lam0) / fwhm
    w = np.sinc(x / np.pi) ** 2
    w /= w.sum()
    rho = np.zeros((2, 2), dtype=complex)
    for lam_j, w_j in zip(lam, w):
        psi = V
        for h, alpha in plates_alphas:
            n_o, n_e = quartz_indices(lam_j)
            delta = np.pi * (n_e - n_o) * h / lam_j
            t = np.cos(delta) + 1j * np.sin(delta) * np.cos(2 * alpha)
            r = 1j * np.sin(delta) * np.sin(2 * alpha)
            psi = np.array([[t, r], [-np.conj(r), np.conj(t)]]) @ psi
        rho += w_j * np.outer(psi, psi.conj())
    return rho


def broadband_loop_oracle(input_state, plates, profile):
    """The knot-by-knot loop that the vectorised broadband_mixed_state replaced."""
    psi0 = np.asarray(input_state, dtype=complex).ravel()
    lam_central = float(profile.wavelengths[len(profile) // 2])
    rho = np.zeros((2, 2), dtype=complex)
    for lam, weight in zip(profile.wavelengths, profile.weights):
        psi = psi0
        for spec in plates:
            lam_eff = lam if spec.thickness_um >= 1000.0 else lam_central
            n_o, n_e = quartz_indices(lam_eff)
            delta = np.pi * (n_o - n_e) * spec.thickness_um / lam_eff
            psi = plate_unitary(delta, spec.alpha_rad) @ psi
        rho += weight * np.outer(psi, psi.conj())
    return rho


class TestBroadbandMixedState:
    @pytest.mark.parametrize(
        "plates",
        [
            [],
            [THICK],
            [THICK, THICK],
            [THICK, WaveplateSpec(214.0, 0.3)],
            [WaveplateSpec(214.0, 0.3), WaveplateSpec(6100.0, 0.2)],
        ],
        ids=["0-plates", "1-thick", "2-thick", "thick+thin", "thin+thick"],
    )
    def test_agrees_with_loop_oracle(self, plates):
        for profile in (sinc2_profile(1.0, 0.008), sinc2_profile(1.1509, 0.02, 101, 10)):
            rho = broadband_mixed_state(V, plates, profile)
            oracle = broadband_loop_oracle(V, plates, profile)
            assert np.max(np.abs(rho - oracle)) <= 1e-14

    def test_one_knot_profile_agrees_with_loop_oracle(self):
        mono = SpectralProfile(np.array([1.002]), np.array([1.0]))
        for plates in ([THICK], [THICK, THICK], [THICK, WaveplateSpec(214.0, 0.3)]):
            rho = broadband_mixed_state(V, plates, mono)
            assert np.max(np.abs(rho - broadband_loop_oracle(V, plates, mono))) <= 1e-14

    def test_knot_outside_quartz_window_rejected(self):
        profile = sinc2_profile(2.99, 0.008)  # top knot ~3.31 um
        assert profile.wavelengths[-1] > 3.0
        with pytest.raises(ValueError, match="outside quartz dispersion window"):
            broadband_mixed_state(V, [THICK], profile)

    def test_thin_plate_checks_only_central_wavelength(self):
        # A thin plate uses only the central knot, which lies inside the window.
        profile = sinc2_profile(2.99, 0.008)
        thin = WaveplateSpec(214.0, 0.3)
        rho = broadband_mixed_state(V, [thin], profile)
        assert_allclose(rho, broadband_loop_oracle(V, [thin], profile), atol=1e-14)
        with pytest.raises(ValueError, match="outside quartz dispersion window"):
            broadband_mixed_state(V, [WaveplateSpec(214.0, 0.3)], sinc2_profile(3.1, 0.008, 3, 1))

    def test_no_plates(self):
        profile = sinc2_profile(1.0, 0.008, 101, 10)
        assert_allclose(broadband_mixed_state(V, [], profile), np.outer(V, V.conj()))

    def test_single_knot_is_pure(self):
        profile = SpectralProfile(np.array([1.0]), np.array([1.0]))
        rho = broadband_mixed_state(V, [THICK], profile)
        assert von_neumann_entropy(rho) < 1e-10

    def test_entropies_against_independent_quadrature(self):
        profile = sinc2_profile(1.0, 0.008)
        for n_plates in (1, 2):
            rho = broadband_mixed_state(V, [THICK] * n_plates, profile)
            oracle = broadband_oracle([(5031.0, np.pi / 4)] * n_plates, 1.0, 0.008)
            assert von_neumann_entropy(rho) == pytest.approx(
                von_neumann_entropy(oracle), abs=2e-3
            )

    def test_thin_plate_acts_at_central_wavelength(self):
        thin = WaveplateSpec(214.0, 0.3)
        profile = sinc2_profile(1.0, 0.008, 401, 20)
        rho = broadband_mixed_state(V, [thin], profile)
        assert von_neumann_entropy(rho) < 1e-10
        delta = np.pi * -(quartz_indices(1.0)[1] - quartz_indices(1.0)[0]) * 214.0 / 1.0
        psi = plate_unitary(delta, 0.3) @ V
        assert fidelity(rho, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            broadband_mixed_state(np.array([1.0, 1.0]), [], sinc2_profile(1.0, 0.008, 3, 1))


class TestMonochromaticStates:
    LAMS = (0.994, 0.996, 0.998, 1.000, 1.002, 1.004, 1.006)

    @pytest.mark.parametrize(
        "plates",
        [
            [THICK],
            [THICK, THICK],
            [WaveplateSpec(THIN_PLATE_LIMIT_UM - 786.0, 0.3)],
            [WaveplateSpec(214.0, 0.3), WaveplateSpec(312.7, 1.1)],
            [THICK, WaveplateSpec(214.0, 0.3)],
        ],
        ids=["1-thick", "2-thick", "1-thin", "2-thin", "thick+thin"],
    )
    def test_equals_one_knot_profiles(self, plates):
        # state k is, to the bit, the one-knot broadband state at lambda_k; a
        # thin plate acts with the unitary at that same wavelength
        for psi0 in (V, np.array([0.6, 0.8j])):
            states = monochromatic_states(psi0, plates, self.LAMS)
            assert states.shape == (len(self.LAMS), 2, 2)
            for lam, rho in zip(self.LAMS, states):
                mono = SpectralProfile(np.array([lam]), np.array([1.0]))
                assert rho.tobytes() == broadband_mixed_state(psi0, plates, mono).tobytes()

    @pytest.mark.parametrize("plates", [[THICK], [WaveplateSpec(214.0, 0.3)]], ids=["thick", "thin"])
    def test_out_of_window_wavelength_raises_as_one_knot_call(self, plates):
        lams = (1.0, 3.2, 3.4)
        with pytest.raises(ValueError) as one_knot:
            broadband_mixed_state(V, plates, SpectralProfile(np.array([3.2]), np.array([1.0])))
        with pytest.raises(ValueError) as stacked:
            monochromatic_states(V, plates, lams)
        assert "outside quartz dispersion window" in str(stacked.value)
        assert str(stacked.value) == str(one_knot.value)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            monochromatic_states(np.array([1.0, 1.0]), [THICK], self.LAMS)


class TestPlateCountStates:
    LAMS = (0.994, 0.996, 0.998, 1.000, 1.002, 1.004, 1.006)
    THIN = WaveplateSpec(214.0, 0.3)

    @pytest.mark.parametrize(
        "plates",
        [[THICK], [THICK, THICK], [THICK] * 3, [THICK, THIN], [THIN, THICK, THICK], [THIN, THIN]],
        ids=["1-thick", "2-thick", "3-thick", "thick+thin", "thin+2-thick", "2-thin"],
    )
    def test_each_plate_count_equals_separate_calls(self, plates):
        # the one pass gives, to the bit, the states of a separate
        # broadband_mixed_state and monochromatic_states call per plate count
        for profile in (sinc2_profile(1.0, 0.008), sinc2_profile(1.1509, 0.02, 101, 10)):
            broadband, mono = plate_count_states(V, plates, profile, self.LAMS)
            assert broadband.shape == (len(plates), 2, 2)
            assert mono.shape == (len(plates), len(self.LAMS), 2, 2)
            for n in range(1, len(plates) + 1):
                separate = broadband_mixed_state(V, plates[:n], profile)
                assert broadband[n - 1].tobytes() == separate.tobytes()
                separate = monochromatic_states(V, plates[:n], self.LAMS)
                assert mono[n - 1].tobytes() == separate.tobytes()

    @staticmethod
    def first_error_of_separate_calls(psi0, plates, profile, lams):
        # the broadband calls of every plate count, then the monochromatic ones
        try:
            for n in range(1, len(plates) + 1):
                broadband_mixed_state(psi0, plates[:n], profile)
            for n in range(1, len(plates) + 1):
                monochromatic_states(psi0, plates[:n], lams)
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "plates, lam0, lams",
        [
            # out-of-window knots (2.99 +- 0.32 um) and components: the knots first
            ([THICK] * 2, 2.99, (1.0, 3.2)),
            # the thin plate uses only the central knot, in the window; the
            # thick plate after it finds a knot outside before the thin
            # plate's component 3.2 is checked
            ([THIN, THICK], 2.99, (1.0, 3.2)),
            ([THICK, THIN], 2.99, (1.0, 3.2)),
            # out-of-window components only
            ([THIN] * 2, 2.99, (1.0, 3.2, 3.4)),
            ([THICK, THIN], 1.0, (0.1, 1.0)),
            # a central knot outside the window: what a thin plate reports
            ([THIN], 3.1, (1.0,)),
            ([THIN, THIN], 3.1, (3.4,)),
        ],
    )
    def test_out_of_window_raises_as_separate_calls(self, plates, lam0, lams):
        profile = sinc2_profile(lam0, 0.008)
        for psi0 in (V, np.array([1.0, 1.0])):  # the normalization is checked first
            expected = self.first_error_of_separate_calls(psi0, plates, profile, lams)
            assert expected is not None
            with pytest.raises(ValueError) as one_pass:
                plate_count_states(psi0, plates, profile, lams)
            assert str(one_pass.value) == expected

    @pytest.mark.parametrize("lam0", [1.0, 2.99])
    def test_thin_plates_equal_separate_calls(self, lam0):
        # thin plates act at the central knot on the knots and at each
        # component's own wavelength on the components; at lam0 2.99 the
        # knots past 3 um are never used
        plates = [self.THIN, WaveplateSpec(312.7, 1.1), self.THIN]
        profile = sinc2_profile(lam0, 0.008)
        lams = (lam0 - 0.006, lam0, lam0 + 0.006)
        broadband, mono = plate_count_states(V, plates, profile, lams)
        for n in range(1, len(plates) + 1):
            assert broadband[n - 1].tobytes() == broadband_mixed_state(V, plates[:n], profile).tobytes()
            assert mono[n - 1].tobytes() == monochromatic_states(V, plates[:n], lams).tobytes()

    def test_window_checked_per_wavelength_set(self):
        with pytest.raises(ValueError, match="wavelength 3.2 um outside"):
            plate_count_states(V, [THICK] * 2, sinc2_profile(1.0, 0.008), (1.0, 3.2))
        with pytest.raises(ValueError, match="outside quartz dispersion window"):
            plate_count_states(V, [THICK] * 2, sinc2_profile(2.99, 0.008), self.LAMS)
        # a thin plate uses the central knot only
        plate_count_states(V, [self.THIN] * 2, sinc2_profile(2.99, 0.008), self.LAMS)


class TestComponentSumStates:
    def test_equal_per_subset_sums(self, rng):
        # subsets in any order, with repeats and of 8 or more members (where
        # np.sum of the weights adds pairwise) equal the one-subset sums
        from random_ops import random_density_matrix

        for _ in range(200):
            n = int(rng.integers(1, 20))
            states = np.array([random_density_matrix(2, rng) for _ in range(n)])
            weights = rng.uniform(0.0, 1.0, n)
            subsets = [
                rng.integers(0, n, size=int(rng.integers(1, 12))).tolist()
                for _ in range(int(rng.integers(1, 8)))
            ]
            mixes = component_sum_states(states, weights, subsets)
            assert mixes.tobytes() == component_sums_per_subset(states, weights, subsets).tobytes()
            one = component_sum_state([(weights[j], states[j]) for j in subsets[0]])
            assert one.tobytes() == mixes[0].tobytes()

    def test_weight_validation(self):
        states = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="nonnegative"):
            component_sum_states(states, [1.0, -1.0], [[0]])
        with pytest.raises(ValueError, match="positive"):
            component_sum_states(states, [1.0, 0.0], [[0], [1]])


class TestComponentSumState:
    def test_single_component(self, rng):
        from random_ops import random_density_matrix

        rho = random_density_matrix(2, rng)
        assert_allclose(component_sum_state([(0.7, rho)]), rho)

    def test_equal_mixture_of_h_and_v(self):
        h = np.diag([1.0, 0.0])
        v = np.diag([0.0, 1.0])
        assert_allclose(component_sum_state([(1.0, h), (1.0, v)]), np.eye(2) / 2)

    def test_seven_component_grid_weights(self):
        # Seven quasi-pure components on the 994..1006 nm grid, weighted by
        # the spectral shape, approximate the broadband state to F >= 0.99.
        weights = [0.1690, 0.4955, 0.8470, 1.0, 0.8470, 0.4955, 0.1690]
        lams = [0.994, 0.996, 0.998, 1.000, 1.002, 1.004, 1.006]
        comps = []
        for lam in lams:
            mono = SpectralProfile(np.array([lam]), np.array([1.0]))
            comps.append(broadband_mixed_state(V, [THICK], mono))
        mix = component_sum_state(list(zip(weights, comps)))
        broadband = broadband_mixed_state(V, [THICK], sinc2_profile(1.0, 0.008))
        assert fidelity(broadband, mix) >= 0.99

    def test_output_is_density_matrix(self, rng):
        from random_ops import random_density_matrix

        comps = [(rng.uniform(0.1, 2.0), random_density_matrix(2, rng)) for _ in range(5)]
        rho = component_sum_state(comps)
        w = np.linalg.eigvalsh(rho)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > -1e-12) and np.all(w < 1 + 1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            component_sum_state([(-1.0, np.eye(2) / 2)])
        with pytest.raises(ValueError, match="positive"):
            component_sum_state([(0.0, np.eye(2) / 2)])
