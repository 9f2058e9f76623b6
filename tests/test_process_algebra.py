import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo.process_algebra import (
    apply_channel,
    chi_change_basis,
    chi_from_kraus,
    choi_from_channel,
    direct_probability,
    effective_probability,
    kraus_from_chi,
    kraus_stack,
    parameter_count,
    pauli_basis_matrices,
    process_rank,
)
from chitomo.quantum_core import partial_trace, vectorize
from process_oracles import basis_orthonormality_check, completeness_residual, unitary_mix
from random_ops import (
    random_state_vector,
    random_trace_preserving_kraus,
    random_unitary,
)
from conftest import REF_PLATE_CHOI, SIGMA_X, SIGMA_Y, SIGMA_Z


def depolarizing_kraus(p):
    return [
        np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
        np.sqrt(p / 4) * SIGMA_X,
        np.sqrt(p / 4) * (-1j * SIGMA_Y),
        np.sqrt(p / 4) * SIGMA_Z,
    ]


class TestChiFromKraus:
    def test_identity_channel_corners(self):
        chi = chi_from_kraus([np.eye(2)])
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 1.0
        assert_allclose(chi, expected, atol=1e-15)

    def test_sigma_x_channel_center_block(self):
        chi = chi_from_kraus([SIGMA_X])
        expected = np.zeros((4, 4))
        for i in (1, 2):
            for j in (1, 2):
                expected[i, j] = 1.0
        assert_allclose(chi, expected, atol=1e-15)

    def test_depolarizing_against_explicit_stack(self):
        ops = depolarizing_kraus(0.5)
        e = np.column_stack([op.flatten(order="F") for op in ops])
        assert_allclose(chi_from_kraus(ops), e @ e.conj().T, atol=1e-15)
        chi = chi_from_kraus(ops)
        assert chi.trace().real == pytest.approx(2.0, abs=1e-12)
        assert process_rank(chi) == 4

    def test_completeness_residual(self):
        assert completeness_residual(depolarizing_kraus(0.3)) < 1e-12
        assert completeness_residual([0.5 * np.eye(2)]) == pytest.approx(0.75)


class TestKrausFromChi:
    def test_identity_round_trip_phase_fixed(self):
        ops = kraus_from_chi(chi_from_kraus([np.eye(2)]))
        assert len(ops) == 1
        assert_allclose(ops[0], np.eye(2), atol=1e-12)

    def test_reference_plate_has_two_operators(self):
        ops = kraus_from_chi(2 * REF_PLATE_CHOI / np.trace(REF_PLATE_CHOI).real, tol=1e-6)
        assert len(ops) == 2

    def test_rank3_round_trip(self, rng):
        kraus = random_trace_preserving_kraus(2, 3, rng)
        chi = chi_from_kraus(kraus)
        recovered = kraus_from_chi(chi)
        assert len(recovered) == 3
        assert np.max(np.abs(chi_from_kraus(recovered) - chi)) < 1e-9

    def test_round_trip_all_ranks(self, rng):
        for rank in (1, 2, 3, 4):
            kraus = random_trace_preserving_kraus(2, rank, rng)
            chi = chi_from_kraus(kraus)
            assert len(kraus_from_chi(chi)) == rank
            assert np.max(np.abs(chi_from_kraus(kraus_from_chi(chi)) - chi)) < 1e-9

    def test_deterministic_phases(self, rng):
        chi = chi_from_kraus(random_trace_preserving_kraus(2, 2, rng))
        a = kraus_from_chi(chi)
        b = kraus_from_chi(chi)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestApplyChannel:
    def test_identity(self, rng):
        rho = np.outer(*(2 * [random_state_vector(2, rng).conj()])).conj()
        assert_allclose(apply_channel([np.eye(2)], rho), rho)

    def test_bit_flip_on_h(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0]).astype(complex)
        assert_allclose(apply_channel([SIGMA_X], h), v)

    def test_unitary_conjugation_oracle(self, rng):
        u = random_unitary(2, rng)
        rho = np.outer(random_state_vector(2, rng), random_state_vector(2, rng).conj())
        rho = 0.5 * (rho + rho.conj().T)
        assert_allclose(apply_channel([u], rho), u @ rho @ u.conj().T, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            apply_channel([np.eye(3)], np.eye(2) / 2)


class TestChoiFromChannel:
    def test_identity_gives_maximally_entangled(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert_allclose(choi_from_channel([np.eye(2)]), np.outer(phi, phi), atol=1e-14)

    def test_sigma_x_pure_choi(self):
        phi_x = vectorize(SIGMA_X) / np.sqrt(2)
        assert_allclose(
            choi_from_channel([SIGMA_X]), np.outer(phi_x, phi_x.conj()), atol=1e-14
        )

    def test_cross_construction_agreement(self, rng):
        for _ in range(50):
            kraus = random_trace_preserving_kraus(2, int(rng.integers(1, 5)), rng)
            assert (
                np.max(np.abs(2 * choi_from_channel(kraus) - chi_from_kraus(kraus)))
                < 1e-12
            )


class TestProbabilities:
    def test_identity_matched(self):
        h = np.array([1.0, 0.0])
        assert direct_probability([np.eye(2)], h, h) == pytest.approx(1.0)
        assert effective_probability(chi_from_kraus([np.eye(2)]), h, h) == pytest.approx(1.0)

    def test_identity_orthogonal(self):
        h = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert direct_probability([np.eye(2)], h, v) == pytest.approx(0.0, abs=1e-15)

    def test_sigma_x_flips(self):
        h = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert effective_probability(chi_from_kraus([SIGMA_X]), h, v) == pytest.approx(1.0)

    def test_amplitude_sum_oracle(self, rng):
        kraus = random_trace_preserving_kraus(2, 3, rng)
        c_in = random_state_vector(2, rng)
        c_m = random_state_vector(2, rng)
        amp_sum = sum(abs(c_m.conj() @ e @ c_in) ** 2 for e in kraus)
        assert direct_probability(kraus, c_in, c_m) == pytest.approx(amp_sum, abs=1e-12)

    def test_equivalence_on_200_random_triples(self, rng):
        for _ in range(200):
            kraus = random_trace_preserving_kraus(2, int(rng.integers(1, 5)), rng)
            chi = chi_from_kraus(kraus)
            c_in = random_state_vector(2, rng)
            c_m = random_state_vector(2, rng)
            p_direct = direct_probability(kraus, c_in, c_m)
            p_eff = effective_probability(chi, c_in, c_m)
            assert abs(p_direct - p_eff) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            direct_probability([np.eye(2)], np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestBasisChange:
    def test_identity_channel_is_diagonal_in_pauli_basis(self):
        chi = chi_from_kraus([np.eye(2)])
        chi_p = chi_change_basis(chi, "natural->pauli")
        assert_allclose(chi_p, np.diag([2.0, 0, 0, 0]), atol=1e-14)

    def test_round_trip(self, rng):
        chi = chi_from_kraus(random_trace_preserving_kraus(2, 3, rng))
        back = chi_change_basis(chi_change_basis(chi, "natural->pauli"), "pauli->natural")
        assert np.max(np.abs(back - chi)) < 1e-12

    def test_eigenvalues_preserved(self, rng):
        chi = chi_from_kraus(random_trace_preserving_kraus(2, 4, rng))
        w0 = np.linalg.eigvalsh(chi)
        w1 = np.linalg.eigvalsh(chi_change_basis(chi, "natural->pauli"))
        assert_allclose(w0, w1, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            chi_change_basis(np.eye(9), "natural->pauli")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            chi_change_basis(np.eye(4), "sideways")


class TestBasisOrthonormality:
    def test_single_qubit_set(self):
        assert basis_orthonormality_check(pauli_basis_matrices(1)) < 1e-15

    def test_two_qubit_tensor_set(self):
        basis = pauli_basis_matrices(2)
        assert len(basis) == 16
        assert basis_orthonormality_check(basis) < 1e-15

    def test_unnormalized_pauli_residual_is_one(self):
        raw = [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]
        assert basis_orthonormality_check(raw) == pytest.approx(1.0)


class TestUnitaryMix:
    def test_identity_mix(self, rng):
        e = kraus_stack(random_trace_preserving_kraus(2, 2, rng))
        assert np.array_equal(unitary_mix(e, np.eye(2)), e)

    def test_chi_invariance(self, rng):
        e = kraus_stack(random_trace_preserving_kraus(2, 2, rng))
        u = random_unitary(2, rng)
        mixed = unitary_mix(e, u)
        assert np.max(np.abs(mixed @ mixed.conj().T - e @ e.conj().T)) < 1e-12

    def test_permutation_reorders_operators(self, rng):
        kraus = random_trace_preserving_kraus(2, 2, rng)
        e = kraus_stack(kraus)
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        mixed = unitary_mix(e, perm)
        assert_allclose(mixed[:, 0], vectorize(kraus[1]))
        assert_allclose(mixed[:, 1], vectorize(kraus[0]))

    def test_rejects_non_unitary(self, rng):
        e = kraus_stack(random_trace_preserving_kraus(2, 2, rng))
        with pytest.raises(ValueError, match="unitary"):
            unitary_mix(e, np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestParameterCount:
    # 2 s^2 r - r^2 - s^2; at full rank this is s^4 - s^2.
    def test_full_rank_qubit(self):
        assert parameter_count(2, 4) == 12
        assert parameter_count(2, 4) == 2**4 - 2**2

    def test_rank_two(self):
        assert parameter_count(2, 2) == 8

    def test_unitary_rank(self):
        assert parameter_count(2, 1) == 3

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            parameter_count(2, 0)
        with pytest.raises(ValueError, match="rank"):
            parameter_count(2, 5)


class TestRankAndResiduals:
    def test_process_rank_matches_construction(self, rng):
        for rank in (1, 2, 3, 4):
            chi = chi_from_kraus(random_trace_preserving_kraus(2, rank, rng))
            assert process_rank(chi) == rank

    def test_trace_preservation_partial_trace(self, rng):
        kraus = random_trace_preserving_kraus(2, 3, rng)
        chi = chi_from_kraus(kraus)
        residual = np.max(np.abs(partial_trace(chi, "output") - np.eye(2)))
        assert residual < max(10 * completeness_residual(kraus), 1e-13)
