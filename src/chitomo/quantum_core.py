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


def _as_square_stack(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _as_square_stack(m)


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
    ``"input"`` leaves the output-side one.  A stack ``(..., s*s, s*s)``
    gives the stack of reductions.
    """
    m = _as_square_stack(m)
    s = int(round(np.sqrt(m.shape[-1])))
    if s * s != m.shape[-1]:
        raise ValueError(f"dimension {m.shape[-1]} is not a perfect square")
    r = m.reshape(*m.shape[:-2], s, s, s, s)  # [..., in_row, out_row, in_col, out_col]
    if which == "output":
        return np.einsum("...iaja->...ij", r)
    if which == "input":
        return np.einsum("...iaib->...ab", r)
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
    w = np.maximum(w, 0.0)  # the ufunc np.clip(w, 0.0, None) calls
    return (u * np.sqrt(w)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def fidelity(rho0: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho0) rho sqrt(rho0)))**2`` in [0, 1].

    Negative round-off eigenvalues are clipped at zero; values may exceed the
    [0, 1] interval only by numerical slack (<= 1e-9), which is clipped too.
    The reference ``rho0`` broadcasts against ``rho`` over the leading axes:
    one reference ``(d, d)`` against a stack ``(..., d, d)``, whose PSD check
    and square root then run once, or a stack of references, one per matrix.
    Stacks give the array of fidelities of the broadcast shape, each
    bit-identical to the 2-D call on its pair; two 2-D inputs give a float.
    Every eigendecomposition and matrix product is one LAPACK or BLAS call
    per matrix.
    """
    rho0 = _as_square_stack(rho0)
    rho = _as_square_stack(rho)
    try:
        shape = np.broadcast_shapes(rho0.shape[:-2], rho.shape[:-2])
    except ValueError:
        shape = None
    if shape is None or rho0.shape[-1] != rho.shape[-1]:
        raise ValueError(f"dimension mismatch: {rho0.shape} vs {rho.shape}")
    for name, r in (("rho0", rho0), ("rho", rho)):
        wmin = np.linalg.eigvalsh(0.5 * (r + r.conj().swapaxes(-1, -2)))[..., 0]
        if (wmin < -1e-10).any():
            first = np.argmax(wmin < -1e-10)
            where = "" if r.ndim == 2 else [int(i) for i in np.unravel_index(first, wmin.shape)]
            raise ValueError(f"{name}{where} is not PSD: min eigenvalue {wmin.flat[first]:.3e}")
    s0 = _sqrtm_psd(rho0)
    w = np.linalg.eigvalsh(s0 @ rho @ s0)
    # Round-off noise of order eps**2 would contribute sqrt(eps) to the sum;
    # zero everything below the relative noise floor before the square root.
    w[w < 1e-13 * np.maximum(w.max(axis=-1, keepdims=True), 0.0)] = 0.0
    values = []
    for root_sum in np.sum(np.sqrt(w), axis=-1).reshape(-1):
        f = float(root_sum**2)
        if f > 1.0 + 1e-9 or f < -1e-9:
            raise ValueError(f"fidelity {f!r} outside [0, 1] beyond numerical slack")
        values.append(min(max(f, 0.0), 1.0))
    return values[0] if not shape else np.reshape(values, shape)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, with the 0*log(0) = 0 convention.

    A stack ``(..., d, d)`` gives the array of entropies, each bit-identical
    to the 2-D call on its matrix; 2-D input gives a float.  Zero eigenvalues
    add zero terms; numpy sums fewer than 8 terms in order, so for d < 8 the
    result is bit-identical to a sum over the positive eigenvalues alone.
    """
    w = np.maximum(np.linalg.eigvalsh(_as_square_stack(rho)), 0.0)
    entropy = -np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
