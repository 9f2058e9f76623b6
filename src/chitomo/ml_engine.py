"""Purification-parameterized maximum-likelihood reconstruction.

The density matrix (state or Choi state) is written as ``rho = c c^+`` with a
d x r complex matrix c, r the model rank.  Poisson likelihood stationarity is
the equation ``I c = J c`` with the constant matrix ``I = sum_j t_j Lambda_j``
and the data-dependent ``J = sum_j (k_j / lambda_j) Lambda_j`` evaluated at
the current rates ``lambda_j = tr(c^+ Lambda_j c)``.  The normalization
``sum_j lambda_j t_j = sum_j k_j`` replaces unit trace during the iteration;
the returned estimate is trace-normalized at the end.

The solver runs the damped fixed point ``c <- (1 - beta) c + beta I^{-1} J c``
with geometric-series extrapolation of the iterate differences, and switches
to Levenberg-damped Fisher scoring steps ``delta = (F + mu)^{-1} grad`` once
the relative residual is moderate; scoring is what makes near-boundary
solutions (model rank above the true rank) converge in tens of iterations
instead of hundreds of thousands.  The scoring step and all its Levenberg
retries come from one eigendecomposition of F per iteration.

Steps are compared on the likelihood written without its constant offset,
``sum_{k>0} k ln(lambda t / k) - sum (lambda t - k)``: it has the same
maximizer, but its value is O(number of rows) instead of O(total counts), so
the relative slack of the acceptance tests stays near float resolution.  A
scoring step, and a fixed-point step above the damping floor, is accepted
only if it does not decrease this surrogate beyond that slack, so accepted
iterations are a monotone ascent; a rejected fixed-point step halves beta,
and at the floor beta = 1e-3 the fixed-point step is taken without the test.

Two rules stop the iteration as converged: the relative residual
``|Ic - Jc| / |Ic|`` falls below ``convergence_tol`` (stop reason
``"residual"``), or the Newton decrement ``1/2 grad^T F^+ grad``, taken over
the eigenvalues of F above a relative cutoff, falls below
``_DECREMENT_TOL * (1 + |surrogate|)`` (``"stationary"``; Boyd & Vandenberghe,
Convex Optimization, 9.5.2).  The second rule ends solves whose residual
stalls at float resolution short of ``convergence_tol``.  A solve that meets
neither rule within ``max_iterations`` stops with ``"iteration_cap"`` and is
reported as not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process_algebra import parameter_count
from .protocols import Config, IncompleteProtocolError, Measurements
from .quantum_core import partial_trace

__all__ = [
    "ReconstructionConfig",
    "ReconstructionResult",
    "expected_rates",
    "log_likelihood",
    "fisher_matrices",
    "information_matrix",
    "solve_likelihood",
]

_RATE_FLOOR = 1e-300  # only inside logs and divisions, never in the model
_SCORING_RESIDUAL = 3e-2  # switch to Fisher scoring below this residual
_INIT_PERTURBATION = 1e-3  # size of the seeded random start around c0
_INIT_SEED = 0
_SCORING_SLACK = 1e-12  # relative surrogate slack of a scoring step
_FIXED_POINT_SLACK = 1e-9  # relative surrogate slack of a fixed-point step
_EIGEN_CUTOFF = 1e-8  # F's range: eigenvalues above this times the largest
_DECREMENT_TOL = 1e-9  # stationary when the decrement is below this times (1 + |ll|)


@dataclass(frozen=True)
class ReconstructionConfig(Config):
    """Solver controls: model rank, damping and stopping rules."""

    rank: int
    damping: float = 0.5
    max_iterations: int = 20000
    convergence_tol: float = 1e-9

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        if self.convergence_tol <= 0 or self.max_iterations < 1:
            raise ValueError("stopping controls must be positive")


@dataclass(frozen=True)
class ReconstructionResult:
    estimate: np.ndarray  # trace-1 density / Choi matrix
    rank: int
    iterations: int
    converged: bool
    stop_reason: str  # "residual", "stationary" or "iteration_cap"
    residual: float
    log_likelihood: float
    normalization_gap: float
    nu: int | None
    tp_residual: float | None
    info_spectrum: np.ndarray


def expected_rates(c: np.ndarray, data: Measurements) -> np.ndarray:
    """Rates ``lambda_j = tr(c^+ Lambda_j c)`` for every row."""
    c = np.asarray(c, dtype=complex)
    ops = data.operators
    if ops.shape[1] != c.shape[0]:
        raise ValueError(f"operator dim {ops.shape[1]} does not match c dim {c.shape[0]}")
    return np.einsum("mij,ir,jr->m", ops, c.conj(), c).real


def log_likelihood(c: np.ndarray, data: Measurements, include_factorial: bool = True) -> float:
    """Poisson log-likelihood sum_j [k ln(lambda t) - lambda t - ln k!].

    Returns -inf when some row has a positive count but zero rate.  The
    factorial constant does not depend on c; dropping it gives the monotone
    surrogate the solver tracks.
    """
    k = data.counts
    mean = expected_rates(c, data) * data.exposures
    if np.any((mean <= 0) & (k > 0)):
        return -math.inf
    ll = float(np.sum(k * np.log(np.maximum(mean, _RATE_FLOOR))) - mean.sum())
    if include_factorial:
        ll -= float(sum(math.lgamma(ki + 1.0) for ki in k))
    return ll


def fisher_matrices(c: np.ndarray, data: Measurements) -> tuple[np.ndarray, np.ndarray]:
    """Theoretical I = sum t Lambda and empirical J = sum (k/lambda) Lambda."""
    ops, k = data.operators, data.counts
    lam = expected_rates(c, data)
    if np.any((lam <= 0) & (k > 0)):
        raise ValueError("vanishing rate on a row with observed counts")
    i_mat = np.tensordot(data.exposures, ops, axes=1)
    j_mat = np.tensordot(k / np.maximum(lam, _RATE_FLOOR), ops, axes=1)
    return i_mat, j_mat


def _stacked_vectors(ops: np.ndarray, c: np.ndarray) -> np.ndarray:
    # Row j is vec(Lambda_j c), column-major, shape (m, d*r).
    return np.einsum("mij,jr->mir", ops, c).transpose(0, 2, 1).reshape(ops.shape[0], -1)


def information_matrix(c: np.ndarray, data: Measurements) -> tuple[np.ndarray, np.ndarray]:
    """Complete-information matrix ``2 sum_j t_j v_j v_j^+ / lambda_j`` with
    ``v_j = vec(Lambda_j c)``, embedded in the doubled real space (imaginary
    part of the purified vector under its real part).

    Returns (H, spectrum) with the spectrum sorted descending; each complex
    rank-1 term contributes rank 2 in the real representation.
    """
    c = np.asarray(c, dtype=complex)
    lam = expected_rates(c, data)
    v = _stacked_vectors(data.operators, c)
    coeff = 2.0 * data.exposures / np.maximum(lam, _RATE_FLOOR)
    h_c = (v.conj().T * coeff) @ v
    h_real = np.block([[h_c.real, -h_c.imag], [h_c.imag, h_c.real]])
    spectrum = np.linalg.eigvalsh(h_real)[::-1]
    return h_real, spectrum


def _initial_point(d: int, rank: int) -> np.ndarray:
    c0 = np.zeros((d, rank), dtype=complex)
    for i in range(rank):
        c0[i % d, i] = 1.0 / np.sqrt(rank)
    rng = np.random.default_rng(_INIT_SEED)
    return c0 + _INIT_PERTURBATION * (
        rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    )


def solve_likelihood(
    data: Measurements, config: ReconstructionConfig
) -> ReconstructionResult:
    """Solve ``I c = J c`` for the purified vector and return the estimate.

    Auxiliary rows participate exactly like measured ones.  Raises
    IncompleteProtocolError when I is singular (protocol cannot identify the
    model); non-convergence within the iteration budget is reported through
    the result flags, not raised.
    """
    ops, t, k = data.operators, data.exposures, data.counts
    m, d, _ = ops.shape
    if config.rank > d:
        raise ValueError(f"rank {config.rank} exceeds dimension {d}")
    ops_flat = ops.reshape(m, d * d)

    i_mat = np.tensordot(t, ops, axes=1)
    w_i = np.linalg.eigvalsh(i_mat)
    if w_i.min() <= 1e-12 * w_i.max():
        raise IncompleteProtocolError(
            f"information matrix I is singular (eigenvalues {w_i.min():.3e}.."
            f"{w_i.max():.3e}); the protocol cannot identify rank {config.rank}"
        )
    i_inv = np.linalg.inv(i_mat)

    n_observed = k.sum()
    if n_observed <= 0:
        raise ValueError("no observed counts")
    observed = k > 0
    k_obs = k[observed]

    def rates_of(c: np.ndarray) -> np.ndarray:
        rho_flat = (c @ c.conj().T).T.ravel()
        return (ops_flat @ rho_flat).real

    def surrogate(lam: np.ndarray) -> float:
        # log-likelihood without its constant offset: each observed term is
        # O(1) near the data, so the sum keeps float resolution
        mean = lam * t
        mean_obs = mean[observed]
        if np.any(mean_obs <= 0):
            return -math.inf
        return float(
            np.sum(k_obs * np.log(mean_obs / k_obs) - (mean_obs - k_obs))
            - mean[~observed].sum()
        )

    c = _initial_point(d, config.rank)
    lam = rates_of(c)
    c = c * np.sqrt(n_observed / float(np.dot(lam, t)))
    lam = rates_of(c)
    ll = surrogate(lam)

    beta = config.damping
    mu = 1e-3  # Levenberg parameter of the scoring phase
    prev_diff: np.ndarray | None = None
    residual = math.inf
    iterations = 0
    stop_reason = "iteration_cap"
    for iterations in range(1, config.max_iterations + 1):
        weights = k / np.maximum(lam, _RATE_FLOOR)
        j_mat = (weights @ ops_flat).reshape(d, d)
        jc = j_mat @ c
        ic = i_mat @ c
        residual = float(np.linalg.norm(ic - jc) / np.linalg.norm(ic))
        if residual < config.convergence_tol:
            stop_reason = "residual"
            break

        accepted = False
        if residual < _SCORING_RESIDUAL:
            v = _stacked_vectors(ops, c)
            v_real = np.concatenate([v.real, v.imag], axis=1)
            fisher = 4.0 * (v_real * (t / np.maximum(lam, _RATE_FLOOR))[:, None]).T @ v_real
            grad_c = jc - ic
            grad = 2.0 * np.concatenate(
                [grad_c.real.flatten(order="F"), grad_c.imag.flatten(order="F")]
            )
            w, u = np.linalg.eigh(fisher)
            g_eig = u.T @ grad
            # the decrement over F's range: gauge directions (c -> c U) and
            # other null directions of F carry no predicted ascent
            in_range = w > _EIGEN_CUTOFF * w[-1]
            decrement = 0.5 * float(np.sum(g_eig[in_range] ** 2 / w[in_range]))
            if decrement < _DECREMENT_TOL * (1.0 + abs(ll)):
                stop_reason = "stationary"
                break
            w = np.maximum(w, 0.0)
            ridge = np.trace(fisher) / fisher.shape[0]
            half = grad.size // 2
            for _ in range(8):
                delta = u @ (g_eig / (w + mu * ridge))
                c_try = c + (
                    delta[:half].reshape(c.shape, order="F")
                    + 1j * delta[half:].reshape(c.shape, order="F")
                )
                lam_try = rates_of(c_try)
                ll_try = surrogate(lam_try)
                if ll_try >= ll - _SCORING_SLACK * (1.0 + abs(ll)):
                    c, lam, ll = c_try, lam_try, ll_try
                    mu = max(mu * 0.3, 1e-12)
                    accepted = True
                    prev_diff = None
                    break
                mu *= 10.0
        if not accepted:
            step = i_inv @ jc
            halved = False
            while True:
                c_new = (1.0 - beta) * c + beta * step
                lam_new = rates_of(c_new)
                ll_new = surrogate(lam_new)
                if ll_new >= ll - _FIXED_POINT_SLACK * (1.0 + abs(ll)) or beta <= 1e-3:
                    break
                beta = max(beta / 2.0, 1e-3)
                halved = True
            if not halved:
                beta = min(config.damping, beta * 1.5)
            diff = c_new - c
            if prev_diff is not None and iterations % 5 == 0:
                denom = float(np.vdot(prev_diff, prev_diff).real)
                q = float(np.vdot(prev_diff, diff).real) / denom if denom > 0 else 0.0
                if 0.0 < q < 0.9999:
                    c_acc = c_new + diff * (q / (1.0 - q))
                    lam_acc = rates_of(c_acc)
                    ll_acc = surrogate(lam_acc)
                    if ll_acc >= ll_new:
                        c_new, lam_new, ll_new = c_acc, lam_acc, ll_acc
                        diff = None
            prev_diff = diff
            c, lam, ll = c_new, lam_new, ll_new

    gap = abs(float(np.dot(lam, t)) - n_observed) / n_observed
    rho = c @ c.conj().T
    rho /= rho.trace().real

    s = math.isqrt(d)
    is_process = s >= 2 and s * s == d
    tp_residual = None
    nu = None
    if is_process:
        tp_residual = float(np.max(np.abs(partial_trace(s * rho, "output") - np.eye(s))))
        nu = parameter_count(s, config.rank)
    _, spectrum = information_matrix(c, data)

    return ReconstructionResult(
        estimate=rho,
        rank=config.rank,
        iterations=iterations,
        converged=stop_reason != "iteration_cap",
        stop_reason=stop_reason,
        residual=residual,
        log_likelihood=log_likelihood(c, data),
        normalization_gap=gap,
        nu=nu,
        tp_residual=tp_residual,
        info_spectrum=spectrum,
    )
