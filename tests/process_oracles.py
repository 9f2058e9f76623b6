"""Test-only checks of Kraus sets, operator bases and the unitary mixing
freedom of a chi-matrix factor."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["completeness_residual", "basis_orthonormality_check", "unitary_mix"]


def completeness_residual(kraus_ops: Sequence[np.ndarray]) -> float:
    """Max-norm deviation of ``sum_k E_k^+ E_k`` from the identity."""
    ops = [np.asarray(e, dtype=complex) for e in kraus_ops]
    s = ops[0].shape[0]
    acc = sum(e.conj().T @ e for e in ops)
    return float(np.max(np.abs(acc - np.eye(s))))


def basis_orthonormality_check(basis: Sequence[np.ndarray]) -> float:
    """Max deviation of ``tr(a_j a_k^+)`` from the Kronecker delta."""
    mats = [np.asarray(b, dtype=complex) for b in basis]
    gram = np.array([[np.trace(a @ b.conj().T) for b in mats] for a in mats])
    return float(np.max(np.abs(gram - np.eye(len(mats)))))


def unitary_mix(e: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply the unitary mixing freedom e -> e u; the chi-matrix e e^+ is
    invariant under this."""
    e = np.asarray(e, dtype=complex)
    u = np.asarray(u, dtype=complex)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])))
    if defect > 1e-10:
        raise ValueError(f"mixing matrix is not unitary: defect {defect:.3e}")
    return e @ u
