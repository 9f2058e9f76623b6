"""Complex-matrix and quantum-state primitives shared by the whole package.

Conventions fixed here once and used everywhere:

* Vectorization is column-stacking: the second column of a matrix goes under
  the first one.  For an s x s matrix ``M``, entry ``M[k, j]`` lands at flat
  index ``j*s + k`` (0-based).
* Composite s**2-dimensional objects are ordered (input (x) output) with the
  input factor slow, i.e. ``vec(E) = sum_j |j>_in (x) (E|j>)_out`` and tensor
  products are built as ``kron(input_factor, output_factor)``.
* Hermitian eigendecompositions return eigenvalues in descending order.
* Entropies are in bits (base-2 logarithm).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vectorize",
    "unvectorize",
    "partial_trace",
    "hermitian_eig",
    "fidelity",
    "von_neumann_entropy",
]


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def vectorize(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a square matrix into one vector of length s**2."""
    return _as_complex_matrix(m).flatten(order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; the vector length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    s = int(round(np.sqrt(v.size)))
    if s * s != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((s, s), order="F")


def partial_trace(m: np.ndarray, which: str) -> np.ndarray:
    """Trace out one tensor factor of a composite (input (x) output) matrix.

    ``which`` names the factor that is traced *out*: ``"output"`` leaves the
    input-side reduction (identity for a trace-preserving chi-matrix),
    ``"input"`` leaves the output-side one.
    """
    m = _as_complex_matrix(m)
    s = int(round(np.sqrt(m.shape[0])))
    if s * s != m.shape[0]:
        raise ValueError(f"dimension {m.shape[0]} is not a perfect square")
    r = m.reshape(s, s, s, s)  # [in_row, out_row, in_col, out_col]
    if which == "output":
        return np.einsum("iaja->ij", r)
    if which == "input":
        return np.einsum("iaib->ab", r)
    raise ValueError(f"which must be 'input' or 'output', got {which!r}")


def hermitian_eig(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before decomposition; deviations from Hermiticity
    beyond ``tol`` (max-norm) are rejected.  Returns ``(w, u)`` with real
    eigenvalues ``w`` sorted descending and unitary eigenvector columns ``u``
    such that ``m = u @ diag(w) @ u.conj().T``.
    """
    m = _as_complex_matrix(m)
    herm_defect = np.max(np.abs(m - m.conj().T))
    if herm_defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e} > {tol:.3e}")
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    return w[::-1], u[:, ::-1]


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def fidelity(rho0: np.ndarray, rho: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho0) rho sqrt(rho0)))**2`` in [0, 1].

    Negative round-off eigenvalues are clipped at zero; values may exceed the
    [0, 1] interval only by numerical slack (<= 1e-9), which is clipped too.
    """
    rho0 = _as_complex_matrix(rho0)
    rho = _as_complex_matrix(rho)
    if rho0.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {rho0.shape} vs {rho.shape}")
    for name, r in (("rho0", rho0), ("rho", rho)):
        wmin = np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min()
        if wmin < -1e-10:
            raise ValueError(f"{name} is not PSD: min eigenvalue {wmin:.3e}")
    s0 = _sqrtm_psd(rho0)
    w = np.linalg.eigvalsh(s0 @ rho @ s0)
    # Round-off noise of order eps**2 would contribute sqrt(eps) to the sum;
    # zero everything below the relative noise floor before the square root.
    w[w < 1e-13 * max(w.max(), 0.0)] = 0.0
    f = float(np.sum(np.sqrt(w)) ** 2)
    if f > 1.0 + 1e-9 or f < -1e-9:
        raise ValueError(f"fidelity {f!r} outside [0, 1] beyond numerical slack")
    return min(max(f, 0.0), 1.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, with the 0*log(0) = 0 convention."""
    w = np.linalg.eigvalsh(_as_complex_matrix(rho))
    w = np.clip(w.real, 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))
