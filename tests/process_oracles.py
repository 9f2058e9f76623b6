"""Test-only checks and oracles: Kraus sets, operator bases, the unitary
mixing freedom of a chi-matrix factor, the two matrices of the likelihood
equation ``I c = J c``, density-matrix validation, the SU(2) form of a
retarder, a bootstrap bound on a ratio of means, the draw-by-draw Poisson
sampler, the per-row count rates, one count set and each subset's
component sum as computed before their stacked forms, and the channel action,
Choi state, outcome probabilities and rank of a process computed
directly."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from chitomo.ml_engine import expected_rates
from chitomo.protocols import ExperimentPlan, Measurements, poisson_counts
from chitomo.quantum_core import _as_complex_matrix, hermitian_eig
from chitomo.waveplate import SU2Retarder

__all__ = [
    "completeness_residual",
    "basis_orthonormality_check",
    "unitary_mix",
    "fisher_matrices",
    "check_density_matrix",
    "su2_from_retarder",
    "bootstrap_ratio_lower_bound",
    "sample_poisson",
    "per_row_rates",
    "generate_counts_per_set",
    "component_sums_per_subset",
    "apply_channel",
    "choi_from_channel",
    "direct_probability",
    "effective_probability",
    "process_rank",
]


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


def fisher_matrices(c: np.ndarray, data: Measurements) -> tuple[np.ndarray, np.ndarray]:
    """Theoretical ``I = sum_j t_j Lambda_j`` and empirical ``J = sum_j (k_j /
    lambda_j) Lambda_j`` at the purified vector c."""
    lam = expected_rates(c, data)
    i_mat = np.tensordot(data.exposures, data.operators, axes=1)
    j_mat = np.tensordot(data.counts / lam, data.operators, axes=1)
    return i_mat, j_mat


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    eig_floor: float = -1e-10,
    trace_tol: float = 1e-10,
) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return the array.

    Raises ValueError naming the violated invariant.
    """
    rho = _as_complex_matrix(rho)
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > herm_tol:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < eig_floor:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w.min():.3e}")
    tr = rho.trace().real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr!r} differs from 1 beyond {trace_tol:.0e}")
    return rho


def su2_from_retarder(delta: float, alpha_rad: float) -> SU2Retarder:
    """Coefficients t = cos(d) + i sin(d) cos(2a), r = i sin(d) sin(2a)."""
    t = np.cos(delta) + 1j * np.sin(delta) * np.cos(2 * alpha_rad)
    r = 1j * np.sin(delta) * np.sin(2 * alpha_rad)
    return SU2Retarder(complex(t), complex(r))


def bootstrap_ratio_lower_bound(
    numerator: np.ndarray,
    denominator: np.ndarray,
    alpha: float = 0.05,
    n_boot: int = 4000,
    seed: int = 0,
) -> float:
    """One-sided lower confidence bound of mean(numerator)/mean(denominator)
    by independent nonparametric bootstrap."""
    rng = np.random.default_rng(seed)
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    idx_n = rng.integers(0, num.size, (n_boot, num.size))
    idx_d = rng.integers(0, den.size, (n_boot, den.size))
    ratios = num[idx_n].mean(axis=1) / den[idx_d].mean(axis=1)
    return float(np.quantile(ratios, alpha))


def _poisson_inversion(mu: float, rng: np.random.Generator) -> int:
    p = math.exp(-mu)
    cum = p
    k = 0
    u = rng.random()
    k_max = int(mu + 60.0 * math.sqrt(mu) + 60.0)
    while u > cum and k < k_max:
        k += 1
        p *= mu / k
        cum += p
    return k


def _poisson_ptrs(mu: float, rng: np.random.Generator) -> int:
    # Transformed rejection with squeeze (Hormann 1993); exact for mu >= 10.
    log_mu = math.log(mu)
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= k * log_mu - mu - math.lgamma(
            k + 1.0
        ):
            return int(k)


def sample_poisson(mu: float, rng: np.random.Generator) -> int:
    """One Poisson draw with mean mu, one ``rng.random()`` call per uniform:
    the scalar oracle of ``protocols.poisson_counts``."""
    if not np.isfinite(mu) or mu < 0:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mu}")
    if mu == 0.0:
        return 0
    if mu < 30.0:
        return _poisson_inversion(mu, rng)
    return _poisson_ptrs(mu, rng)


def per_row_rates(rows: Measurements, truth: np.ndarray) -> np.ndarray:
    """``tr(Lambda_j rho)`` row by row: the oracle of the rates in
    ``protocols.generate_counts``."""
    return np.array([np.trace(op @ truth).real for op in rows.operators])


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




def process_rank(chi: np.ndarray, tol: float = 1e-10) -> int:
    """Number of chi eigenvalues above ``tol * max_eigenvalue``."""
    w, _ = hermitian_eig(chi)
    return int(np.sum(w > tol * w[0]))


def generate_counts_per_set(
    rows: Measurements, truth: np.ndarray, plan: ExperimentPlan
) -> Measurements:
    """One count set as ``protocols.generate_counts`` drew it before the
    batched synthesis: the rates from one ``(m*d, d) @ (d, d)`` product,
    the total from ``np.dot``, exposures scaled by a Python float, and the
    draws from the generator seeded with plan.seed."""
    truth = np.asarray(truth, dtype=complex)
    m, d, _ = rows.operators.shape
    products = (rows.operators.reshape(m * d, d) @ truth).reshape(m, d, d)
    rates = np.clip(np.trace(products, axis1=1, axis2=2).real, 0.0, None)
    base = float(np.dot(rates, rows.exposures))
    exposures = rows.exposures * (plan.n_total / base)
    counts = poisson_counts(rates * exposures, np.random.default_rng(plan.seed))
    return replace(rows, exposures=exposures, counts=counts)


def component_sums_per_subset(
    states: np.ndarray, weights: np.ndarray, subsets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Each subset's mixture as ``waveplate.component_sum_state`` formed it
    before the stacked sums: a Python sum of the weighted states in subset
    order (0-based indices), divided by the ``np.sum`` of their weights."""
    mixtures = []
    for subset in subsets:
        w = np.array([weights[j] for j in subset], dtype=float)
        terms = (float(weights[j]) * np.asarray(states[j], dtype=complex) for j in subset)
        mixtures.append(sum(terms) / w.sum())
    return np.stack(mixtures)
