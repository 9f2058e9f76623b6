import numpy as np
import pytest
from numpy.testing import assert_allclose

from chitomo.quantum_core import (
    fidelity,
    hermitian_eig,
    partial_trace,
    unvectorize,
    vectorize,
    von_neumann_entropy,
)
from process_oracles import check_density_matrix
from random_ops import (
    random_density_matrix,
    random_state_vector,
    random_trace_preserving_kraus,
    random_unitary,
)
from conftest import REF_PLATE_CHOI, REF_PLATE_EIGENVALUES, SIGMA_X, SIGMA_Z


class TestVectorize:
    def test_identity(self):
        assert_allclose(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_sigma_x(self):
        assert_allclose(vectorize(SIGMA_X), [0, 1, 1, 0])

    def test_column_major_order(self):
        assert_allclose(vectorize(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])

    def test_round_trip_exact(self, rng):
        for _ in range(100):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.array_equal(unvectorize(vectorize(m)), m)

    def test_unvectorize_examples(self):
        assert_allclose(unvectorize(np.array([1, 0, 0, 1])), np.eye(2))
        assert_allclose(unvectorize(np.array([0, 1, 1, 0])), SIGMA_X)

    def test_unvectorize_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="stacked square"):
            unvectorize(np.arange(5))

    def test_rejects_non_finite(self):
        m = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            vectorize(m)


class TestPartialTrace:
    def test_identity_channel_chi(self):
        chi = np.outer([1, 0, 0, 1], [1, 0, 0, 1])
        assert_allclose(partial_trace(chi, "output"), np.eye(2), atol=1e-14)

    def test_maximally_entangled_both_reductions(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(phi, phi)
        assert_allclose(partial_trace(rho, "output"), np.eye(2) / 2, atol=1e-14)
        assert_allclose(partial_trace(rho, "input"), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserving_channels_reduce_to_identity(self, rng):
        from chitomo.process_algebra import chi_from_kraus

        for n_ops in (1, 2, 3, 4):
            kraus = random_trace_preserving_kraus(2, n_ops, rng)
            chi = chi_from_kraus(kraus)
            assert_allclose(partial_trace(chi, "output"), np.eye(2), atol=1e-12)

    def test_kron_factor_rule(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        composite = np.kron(a, b)
        assert_allclose(partial_trace(composite, "input"), np.trace(a) * b, atol=1e-12)
        assert_allclose(partial_trace(composite, "output"), np.trace(b) * a, atol=1e-12)

    def test_rejects_non_square_composite(self):
        with pytest.raises(ValueError, match="perfect square"):
            partial_trace(np.eye(5), "output")

    def test_rejects_unknown_factor(self):
        with pytest.raises(ValueError, match="input.*output"):
            partial_trace(np.eye(4), "both")


class TestHermitianEig:
    def test_sigma_z(self):
        w, _ = hermitian_eig(SIGMA_Z)
        assert_allclose(w, [1, -1])

    def test_reference_plate_eigenvalues(self):
        w, _ = hermitian_eig(REF_PLATE_CHOI)
        assert_allclose(w[:2], REF_PLATE_EIGENVALUES, atol=1e-4)
        assert np.all(np.abs(w[2:]) < 1e-4)

    def test_reconstruction_and_unitarity(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = g + g.conj().T
        w, u = hermitian_eig(m)
        assert_allclose(u @ np.diag(w) @ u.conj().T, m, atol=1e-10)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestFidelity:
    def test_self_fidelity(self, rng):
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0]).astype(complex)
        assert fidelity(h, v) == pytest.approx(0.0, abs=1e-12)

    def test_reference_plate_vs_maximally_entangled(self):
        # For the pure target |Phi><Phi| the fidelity reduces to the corner
        # sum of the reference matrix: 4 * 0.42099 / 2.
        rho = REF_PLATE_CHOI / np.trace(REF_PLATE_CHOI).real
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        target = np.outer(phi, phi)
        corner_sum = (
            REF_PLATE_CHOI[0, 0] + REF_PLATE_CHOI[0, 3] + REF_PLATE_CHOI[3, 0] + REF_PLATE_CHOI[3, 3]
        ).real / 2
        assert fidelity(rho, target) == pytest.approx(corner_sum, abs=1e-4)
        assert corner_sum == pytest.approx(0.84198, abs=1e-6)

    def test_pure_state_overlap(self, rng):
        for _ in range(20):
            psi = random_state_vector(2, rng)
            chi = random_state_vector(2, rng)
            f = fidelity(np.outer(psi, psi.conj()), np.outer(chi, chi.conj()))
            assert f == pytest.approx(abs(np.vdot(psi, chi)) ** 2, abs=1e-10)

    def test_symmetry(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2) / 2, np.eye(4) / 4)

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="^rho0 is not PSD"):
            fidelity(bad, np.eye(2) / 2)
        with pytest.raises(ValueError, match="^rho is not PSD"):
            fidelity(np.eye(2) / 2, bad)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_reference_plate_spectrum(self):
        s = von_neumann_entropy(np.diag([0.84212, 0.15788]))
        assert s == pytest.approx(0.6292, abs=1e-4)

    def test_unitary_invariance(self, rng):
        rho = random_density_matrix(4, rng)
        u = random_unitary(4, rng)
        rotated = u @ rho @ u.conj().T
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def random_stack(d, rng, per_rank=4):
    """Random d x d states, ``per_rank`` of every rank 1..d."""
    return np.array(
        [random_density_matrix(d, rng, rank=r) for r in range(1, d + 1) for _ in range(per_rank)]
    )


class TestStacks:
    """A stack (..., d, d) gives, pair by pair, what the 2-D calls give, to
    the bit; 2-D input gives a float."""

    @pytest.mark.parametrize("d", [2, 4])
    def test_fidelity_matches_pairwise_loop(self, d, rng):
        rho0, rho = random_stack(d, rng), random_stack(d, rng)
        rho[::3] = rho0[::3]  # pairs of equal states
        loop = [fidelity(a, b) for a, b in zip(rho0, rho)]
        assert all(type(f) is float for f in loop)
        stacked = fidelity(rho0, rho)
        assert stacked.shape == (len(rho0),)
        assert stacked.tobytes() == np.array(loop).tobytes()
        grid = fidelity(rho0.reshape(2, -1, d, d), rho.reshape(2, -1, d, d))
        assert grid.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("d", [2, 4])
    def test_fidelity_one_reference_against_a_stack(self, d, rng, monkeypatch):
        # a (d, d) reference broadcasts against the stack, checked and
        # rooted once, with the bits of the 2-D calls and of the stack of
        # copies of the reference
        ref, rho = random_density_matrix(d, rng, rank=2), random_stack(d, rng)
        rho[0] = ref
        loop = [fidelity(ref, r) for r in rho]
        stacked = fidelity(ref, rho)
        assert stacked.shape == (len(rho),)
        assert stacked.tobytes() == np.array(loop).tobytes()
        assert stacked.tobytes() == fidelity(*np.broadcast_arrays(ref, rho)).tobytes()
        grid = fidelity(ref, rho.reshape(2, -1, d, d))
        assert grid.shape == (2, len(rho) // 2)
        assert grid.tobytes() == stacked.tobytes()
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        fidelity(ref, rho)
        assert calls[0] == (d, d)  # the reference's PSD check, once

    @pytest.mark.parametrize("d", [2, 4])
    def test_entropy_matches_loop(self, d, rng):
        rho = random_stack(d, rng)
        rho[0] = np.diag([1.0] + [0.0] * (d - 1))  # exact zero eigenvalues
        loop = [von_neumann_entropy(r) for r in rho]
        assert all(type(s) is float for s in loop)
        stacked = von_neumann_entropy(rho)
        assert stacked.shape == (len(rho),)
        assert stacked.tobytes() == np.array(loop).tobytes()

    def test_entropy_matches_sum_over_positive_eigenvalues(self, rng):
        # the 0 * log(0) = 0 convention drops zero eigenvalues from the sum;
        # below d = 8 the zero terms leave every bit of it in place
        for d in (2, 4):
            for r in random_stack(d, rng):
                w = np.clip(np.linalg.eigvalsh(r), 0.0, None)
                w = w[w > 0.0]
                expected = float(-np.sum(w * np.log2(w)))
                assert np.float64(von_neumann_entropy(r)).tobytes() == np.float64(expected).tobytes()

    def test_partial_trace_of_a_stack(self, rng):
        rho = random_stack(4, rng, per_rank=1)
        for which in ("output", "input"):
            stacked = partial_trace(rho, which)
            loop = [partial_trace(r, which) for r in rho]
            assert stacked.tobytes() == np.array(loop).tobytes()

    def test_errors_name_the_argument(self):
        good = np.stack([np.eye(2) / 2] * 3)
        bad = good.copy()
        bad[1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"^rho0\[1\] is not PSD"):
            fidelity(bad, good)
        with pytest.raises(ValueError, match=r"^rho\[1\] is not PSD"):
            fidelity(good, bad)
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(good, good[:2])
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(4) / 4, good)
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.ones((1, 1)), good)
        with pytest.raises(ValueError, match=r"^rho\[1\] is not PSD"):
            fidelity(np.eye(2) / 2, bad)
        with pytest.raises(ValueError, match="square"):
            von_neumann_entropy(np.ones((3, 2, 4)))


class TestCheckDensityMatrix:
    def test_accepts_valid(self, rng):
        check_density_matrix(random_density_matrix(3, rng))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            check_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))
