"""Conversions among Kraus sets, chi-matrices and Choi states.

A quantum operation on an s-dimensional system is carried around in one of
three equivalent forms:

* a Kraus set: a list of s x s operators ``E_k`` acting as
  ``rho -> sum_k E_k rho E_k^+``;
* the chi-matrix ``chi = e e^+`` (trace s when trace-preserving), where
  column k of ``e`` is ``vectorize(E_k)``;
* the Choi state ``rho_chi = chi / s`` (trace 1).

Trace preservation ``sum_k E_k^+ E_k = I`` is equivalent to the output-side
partial trace of chi being the identity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .quantum_core import hermitian_eig, unvectorize, vectorize

__all__ = [
    "kraus_stack",
    "chi_from_kraus",
    "kraus_from_chi",
    "apply_channel",
    "choi_from_channel",
    "direct_probability",
    "effective_probability",
    "pauli_basis_matrices",
    "chi_change_basis",
    "parameter_count",
    "process_rank",
]

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kraus_stack(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """The s**2 x m matrix whose columns are the vectorized Kraus operators."""
    return np.column_stack([vectorize(e) for e in kraus_ops])


def chi_from_kraus(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """chi = e e^+ with columns of e the stacked Kraus operators."""
    e = kraus_stack(kraus_ops)
    return e @ e.conj().T


def kraus_from_chi(chi: np.ndarray, tol: float = 1e-10) -> list[np.ndarray]:
    """Recover a minimal Kraus set from a chi-matrix (trace-s normalization).

    Eigenpairs with eigenvalue above ``tol * max_eigenvalue`` are kept, so the
    returned list has exactly rank-many operators.  Each operator's global
    phase is fixed by making its largest-magnitude entry real and positive,
    which makes the output deterministic despite the unitary mixing freedom.
    """
    w, u = hermitian_eig(chi)
    keep = w > tol * w[0]
    ops = []
    for lam, col in zip(w[keep], u[:, keep].T):
        op = unvectorize(np.sqrt(lam) * col)
        anchor = op.flat[np.argmax(np.abs(op))]
        op = op * (abs(anchor) / anchor)
        ops.append(op)
    return ops


def apply_channel(kraus_ops: Sequence[np.ndarray], rho_in: np.ndarray) -> np.ndarray:
    """Operator-sum action ``sum_k E_k rho E_k^+``."""
    rho_in = np.asarray(rho_in, dtype=complex)
    s = rho_in.shape[0]
    out = np.zeros_like(rho_in)
    for e in kraus_ops:
        e = np.asarray(e, dtype=complex)
        if e.shape != (s, s):
            raise ValueError(f"Kraus operator shape {e.shape} does not match state dim {s}")
        out += e @ rho_in @ e.conj().T
    return out


def choi_from_channel(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Choi state (trace 1) by sending half of a maximally entangled pair
    through the channel.

    This is an independent construction from :func:`chi_from_kraus` (explicit
    Kraus action on the output factor of ``|Phi><Phi|``); the two must agree
    up to the 1/s normalization, which the tests use as a cross-check.
    """
    s = np.asarray(kraus_ops[0]).shape[0]
    phi = np.zeros(s * s, dtype=complex)
    for j in range(s):
        basis_j = np.zeros(s)
        basis_j[j] = 1.0
        phi += np.kron(basis_j, basis_j)
    phi /= np.sqrt(s)
    rho_phi = np.outer(phi, phi.conj())
    eye = np.eye(s)
    out = np.zeros_like(rho_phi)
    for e in kraus_ops:
        big = np.kron(eye, np.asarray(e, dtype=complex))
        out += big @ rho_phi @ big.conj().T
    return out


def _check_normalized(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).ravel()
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError(f"{name} is not normalized (norm {np.linalg.norm(vec)!r})")
    return vec


def direct_probability(
    kraus_ops: Sequence[np.ndarray], c_in: np.ndarray, c_m: np.ndarray
) -> float:
    """Outcome probability tr(E(|c_in><c_in|) |c_m><c_m|)."""
    c_in = _check_normalized(c_in, "c_in")
    c_m = _check_normalized(c_m, "c_m")
    rho_out = apply_channel(kraus_ops, np.outer(c_in, c_in.conj()))
    return float(np.real(c_m.conj() @ rho_out @ c_m))


def effective_probability(chi: np.ndarray, c_in: np.ndarray, c_m: np.ndarray) -> float:
    """Same probability from the chi-matrix (trace-s normalization) via the
    effective projector onto ``conj(c_in) (x) c_m``."""
    chi = np.asarray(chi, dtype=complex)
    c_in = _check_normalized(c_in, "c_in")
    c_m = _check_normalized(c_m, "c_m")
    c_eff = np.kron(c_in.conj(), c_m)
    if c_eff.size != chi.shape[0]:
        raise ValueError(
            f"state dims {c_in.size}x{c_m.size} do not match chi dim {chi.shape[0]}"
        )
    return float(np.real(c_eff.conj() @ chi @ c_eff))


def pauli_basis_matrices(n_qubits: int = 1) -> list[np.ndarray]:
    """Orthonormal operator basis {I, X, Y, Z}/sqrt(2) tensor-powered.

    The Y element is the real matrix ``-i sigma_y / sqrt(2)``; the set is
    orthonormal under ``tr(a_j a_k^+)`` either way, and this form is the one
    the basis-change convention below is defined with.  Ordering is
    lexicographic in (I, X, Y, Z) per tensor position.
    """
    single = [
        np.eye(2, dtype=complex) / np.sqrt(2),
        _SIGMA_X / np.sqrt(2),
        -1j * _SIGMA_Y / np.sqrt(2),
        _SIGMA_Z / np.sqrt(2),
    ]
    basis = single
    for _ in range(n_qubits - 1):
        basis = [np.kron(a, b) for a in basis for b in single]
    return basis


def _pauli_change_matrix(s: int) -> np.ndarray:
    n_qubits = int(round(np.log2(s)))
    if 2**n_qubits != s:
        raise ValueError(f"system dim {s} is not a power of 2")
    return np.column_stack([vectorize(b) for b in pauli_basis_matrices(n_qubits)])


def chi_change_basis(chi: np.ndarray, direction: str) -> np.ndarray:
    """Rewrite a chi-matrix between the natural |j><k| basis and the Pauli one.

    ``direction`` is ``"natural->pauli"`` or ``"pauli->natural"``.  The change
    is the unitary conjugation by the matrix whose columns are the vectorized
    basis elements, so trace and spectrum are preserved exactly.
    """
    chi = np.asarray(chi, dtype=complex)
    s = int(round(np.sqrt(chi.shape[0])))
    u0 = _pauli_change_matrix(s)
    if direction == "natural->pauli":
        return u0.conj().T @ chi @ u0
    if direction == "pauli->natural":
        return u0 @ chi @ u0.conj().T
    raise ValueError(f"unknown direction {direction!r}")


def parameter_count(s: int, r: int) -> int:
    """Number of real parameters of a rank-r operation on an s-dim system:
    ``2 s**2 r - r**2 - s**2``."""
    if not 1 <= r <= s * s:
        raise ValueError(f"rank {r} outside [1, {s * s}]")
    return 2 * s * s * r - r * r - s * s


def process_rank(chi: np.ndarray, tol: float = 1e-10) -> int:
    """Number of chi eigenvalues above ``tol * max_eigenvalue``."""
    w, _ = hermitian_eig(chi)
    return int(np.sum(w > tol * w[0]))
