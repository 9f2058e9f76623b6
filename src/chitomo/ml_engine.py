"""Purification-parameterized maximum-likelihood reconstruction.

The density matrix (state or Choi state) is written as ``rho = c c^+`` with a
d x r complex matrix c, r the model rank.  Poisson likelihood stationarity is
the equation ``I c = J c`` with the constant matrix ``I = sum_j t_j Lambda_j``
and the data-dependent ``J = sum_j (k_j / lambda_j) Lambda_j`` evaluated at
the current rates ``lambda_j = tr(c^+ Lambda_j c)``.  The normalization
``sum_j lambda_j t_j = sum_j k_j`` replaces unit trace during the iteration;
the returned estimate is trace-normalized at the end.

Every solve starts from the data: the Poisson-weighted linear-inversion
estimate, ``rho`` minimizing ``sum_j (t_j tr(Lambda_j rho) - k_j)^2 /
max(k_j, 1)`` (minimum-norm if the design is rank-deficient), truncated to its
top ``r`` eigenvectors with eigenvalues floored at 1e-3 times the largest,
plus a small seeded perturbation.

Every iteration takes one Levenberg-damped Fisher scoring step ``delta = (F +
mu)^{-1} grad``; scoring is what makes near-boundary solutions (model rank
above the true rank) converge in tens of iterations instead of hundreds of
thousands.  The step and all its Levenberg tries come from one symmetric
eigendecomposition per iteration.  Write ``F = M^T M``, M the m x 2dr matrix
with rows ``2 sqrt(t_j / lambda_j) v_j``.  With at least as many rows m as
real parameters 2dr the eigendecomposition is F's.  With fewer rows (R4, J4
and B4 at rank 3 and 4: 20 rows for 24 and 32 parameters) it is that of the
m x m Gram matrix ``G = M M^T = P diag(w) P^T``, which has F's nonzero
spectrum: the gradient is ``M^T y`` with ``y_j = (k_j / lambda_j - t_j) /
sqrt(t_j / lambda_j)``, a try is ``M^T P diag(1 / (w + mu R)) P^T y`` and
the decrement below sums ``(p_i^T y)^2``.  The ridge R is ``tr F / 2dr = tr
G / 2dr`` on either side.  A try is accepted only if the likelihood
surrogate below drops by no more than a relative slack of 1e-12, so
accepted iterations are a monotone ascent.  An accepted try multiplies
``mu`` by 0.3 and a failed one by 10; a solve whose 8 tries all fail takes no
step in that iteration and starts the next one from the raised ``mu``.

Steps are compared on the likelihood written without its constant offset,
``sum_{k>0} k ln(lambda t / k) - sum (lambda t - k)``: it has the same
maximizer, but its value is O(number of rows) instead of O(total counts), so
the relative slack of the acceptance test stays near float resolution.

Two rules stop the iteration as converged: the relative residual
``|Ic - Jc| / |Ic|`` falls below ``_RESIDUAL_TOL`` = 1e-9 (stop reason
``"residual"``), or the Newton decrement ``1/2 grad^T F^+ grad``, taken over
the eigenvalues of F above a relative cutoff, falls below
``_DECREMENT_TOL * (1 + |surrogate|)`` (``"stationary"``; Boyd & Vandenberghe,
Convex Optimization, 9.5.2).  The second rule ends solves whose residual
stalls at float resolution short of ``_RESIDUAL_TOL``.  A solve that meets
neither rule within ``max_iterations`` stops with ``"iteration_cap"`` and is
reported as not converged.

``info_spectrum`` holds the 2*d*r eigenvalues, descending, of the real
Fisher matrix F at the returned c, taken from the matrix the scoring step
decomposes: a stationary stop reuses that step's eigendecomposition, and
the other stops decompose the same matrix when the results are made.  On
the Gram side the 2dr - m eigenvalues of F beyond G's are exact zeros,
placed in sorted position among G's round-off values.  For a process on an s-level system
under an adequate model they split into s^2 modes pinned by the auxiliary
rows, ``nu`` data modes and r^2 gauge nulls (``c -> c U``): ``nu + s^2`` lie
above 1e-8 times the largest.  Each result also counts its accepted scoring
steps and its rejected steps (failed Levenberg tries).

A result's ``log_likelihood`` is the surrogate at the c the lane stopped
with, the value its solve maximized: the log-likelihood ratio of the
estimate against the saturated model, whose rate on every row is its
count.  It lies in (-inf, 0], and -2 times it is the Poisson deviance.  The
full Poisson log-likelihood differs from it by ``sum_j (k_j ln k_j - k_j -
ln k_j!)``, a constant of the data, so values on the same data compare
alike.

There is one solver, ``solve_likelihood_batch``; ``solve_likelihood`` is a
batch of one.  A batch solves the lanes of one ``Measurements`` record at
once: the rows of its ``(B, m)`` exposures and counts over its one operator
array, which the solver reads as they are.  Each lane runs the algorithm
above with its own iterate, step controls, step counts and stop rule.
Every per-lane quantity is computed by an operation that treats the lanes
independently (one BLAS or LAPACK call per lane, or an elementwise
operation, or a sum along a lane's own row), so a lane's result is
bit-identical whether it is solved alone or inside any batch.  A lane
leaves the batch where its stop rule fires: a residual stop before the
iteration's eigendecomposition, a stationary stop right after it, with that
decomposition's spectrum, and a capped lane after the last iteration.  All
three leave through ``_Lanes.leave``, which writes what the lane stopped
with to the ``end`` table the results are made from and compacts the
remaining lanes, so a long solve costs only its own lane's iterations.  An
iteration's Levenberg tries start over every lane still in the batch, and
a lane whose try is accepted takes no further tries.  The set-up (I, its
spectrum, the data start and its rescale) and the results of every lane
are stacked the same way: one array call for all lanes, per-lane LAPACK
and BLAS calls inside it.  A batch with a lane that has no counts or a
singular I raises at the set-up, before any iteration, for the first such
lane.  The batch returns one ``ReconstructionResult`` of stacked columns, a
row per lane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .process_algebra import parameter_count
from .protocols import Config, IncompleteProtocolError, Measurements
from .quantum_core import partial_trace

__all__ = [
    "ReconstructionConfig",
    "ReconstructionResult",
    "solve_likelihood",
    "solve_likelihood_batch",
]

_RATE_FLOOR = 1e-300  # only inside logs and divisions, never in the model
_INIT_PERTURBATION = 1e-3  # size of the seeded random start around c0
_INIT_SEED = 0
_START_FLOOR = 1e-3  # start eigenvalues floored at this times the largest
_START_RIDGE = 1e-12  # ridge of the start's normal equations, times their mean diagonal
_SCORING_SLACK = 1e-12  # relative surrogate slack of a scoring step
EIGEN_CUTOFF = 1e-8  # F's range: eigenvalues above this times the largest
_RESIDUAL_TOL = 1e-9  # converged when the relative residual is below this
_DECREMENT_TOL = 1e-9  # stationary when the decrement is below this times (1 + |ll|)


@dataclass(frozen=True)
class ReconstructionConfig(Config):
    """Solver controls: model rank and iteration budget."""

    rank: int
    max_iterations: int = 20000

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ReconstructionResult:
    """The results of a batch, one row per lane."""

    estimate: np.ndarray  # (B, d, d) trace-1 density / Choi matrices
    rank: int
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) stopped on "residual" or "stationary"
    stop_reason: np.ndarray  # (B,) "residual", "stationary" or "iteration_cap"
    residual: np.ndarray  # (B,)
    normalization_gap: np.ndarray  # (B,)
    nu: int | None
    tp_residual: np.ndarray | None  # (B,) for a process, None for a state
    info_spectrum: np.ndarray  # (B, 2*d*r) the real Fisher matrix's eigenvalues, descending
    scoring_steps: np.ndarray  # (B,) accepted scoring steps
    rejected_steps: np.ndarray  # (B,) failed Levenberg tries
    log_likelihood: np.ndarray  # (B,) the log-likelihood ratio to the saturated model, <= 0

    def lanes(self, index: int | slice | np.ndarray) -> "ReconstructionResult":
        """The lanes a numpy index selects; an int gives one lane, its
        per-lane fields Python scalars, its estimate and spectrum arrays."""
        picked = {k: v[index] for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        scalars = {k: v.item() for k, v in picked.items() if isinstance(v, np.generic)}
        return ReconstructionResult(**{**vars(self), **picked, **scalars})


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a @ x over the last axes, one matrix-vector product per lane
    return (a @ x[..., None])[..., 0]


def _rates(c: np.ndarray, ops_flat: np.ndarray) -> np.ndarray:
    # row j of ops_flat, the (m, d*d) view of the operators, dotted with
    # vec((c c^+)^T) is tr(Lambda_j c c^+); c is (d, r) or a batch (B, d, r),
    # and each lane gets its own matrix-vector product
    rho = c @ c.conj().swapaxes(-1, -2)
    return _matvec(ops_flat, rho.swapaxes(-1, -2).reshape(*c.shape[:-2], ops_flat.shape[1])).real


def _tangents(c: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The vectors ``v_j = vec(Lambda_j c)`` of a batch c (B, d, r), one row
    per operator, over the real parameters (Re c, then Im c, each
    column-major): (B, m, 2*d*r)."""
    v = np.einsum("mij,bjr->bmir", ops, c).swapaxes(2, 3).reshape(len(c), len(ops), -1)
    return np.concatenate([v.real, v.imag], axis=2)


def _fisher(c: np.ndarray, ops: np.ndarray, t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Real Fisher matrices ``4 sum_j (t_j / lambda_j) v_j v_j^T`` of a batch
    c (B, d, r) with exposures t and rates lam (B, m)."""
    v_real = _tangents(c, ops)
    weighted = v_real * (t / np.maximum(lam, _RATE_FLOOR))[:, :, None]
    return 4.0 * weighted.swapaxes(1, 2) @ v_real


def _information(
    c: np.ndarray, ops: np.ndarray, t: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """The matrix whose eigenproblem each lane's scoring step solves, and its
    factor.  With at least as many rows m as real parameters 2*d*r it is F,
    factor None.  With fewer it is the smaller Gram matrix ``M M^T`` (B, m,
    m), which shares F's nonzero spectrum, with its factor M (B, m, 2*d*r):
    ``F = M^T M``, row j of M ``2 sqrt(t_j / lambda_j) v_j``."""
    _, d, rank = c.shape
    if len(ops) >= 2 * d * rank:
        return _fisher(c, ops, t, lam), None
    factor = (2.0 * np.sqrt(t / np.maximum(lam, _RATE_FLOOR)))[:, :, None] * _tangents(c, ops)
    return factor @ factor.swapaxes(1, 2), factor


def _descending(w: np.ndarray, n_par: int) -> np.ndarray:
    """Ascending eigenvalues (B, n) as F's ``n_par`` eigenvalues, descending:
    a Gram matrix's n < n_par eigenvalues are joined by F's ``n_par - n``
    structural zeros in sorted position."""
    if w.shape[1] < n_par:
        w = np.sort(np.concatenate([w, np.zeros((len(w), n_par - w.shape[1]))], axis=1), axis=1)
    return w[:, ::-1]


def _scoring_system(
    c: np.ndarray,
    grad_c: np.ndarray,
    ops: np.ndarray,
    t: np.ndarray,
    lam: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One eigendecomposition per lane of c (B, d, r), with gradient
    ``grad_c = (J - I) c``, exposures t, rates lam and ``weights = k / lam``
    (B, m).  Returns the ascending eigenvalues w, the gradient's coordinates
    g, the (B, 2*d*r, n) basis with the Levenberg step ``basis @ (g / (w +
    mu * ridge))``, the ridge ``tr F / (2*d*r)`` and twice the Newton
    decrement over the eigenvalues above ``EIGEN_CUTOFF`` times the largest.

    On F, ``F = U diag(w) U^T``: g = U^T grad, basis U, and the decrement
    sums g^2 / w.  On the Gram matrix, ``M M^T = P diag(w) P^T``: the
    gradient is ``M^T y``, ``y_j = (k_j / lambda_j - t_j) / sqrt(t_j /
    lambda_j)``, so g = P^T y, basis M^T P, and the decrement sums g^2."""
    _, d, rank = c.shape
    info, factor = _information(c, ops, t, lam)
    w, basis = np.linalg.eigh(info)
    if factor is None:
        g = grad_c.swapaxes(1, 2).reshape(len(c), -1)  # each lane column-major
        grad = 2.0 * np.concatenate([g.real, g.imag], axis=1)
        g_eig = _matvec(basis.swapaxes(1, 2), grad)
        curvature = w
    else:
        root = np.sqrt(t / np.maximum(lam, _RATE_FLOOR))
        g_eig = _matvec(basis.swapaxes(1, 2), (weights - t) / np.maximum(root, _RATE_FLOOR))
        basis = factor.swapaxes(1, 2) @ basis
        curvature = 1.0
    # the decrement over F's range: gauge directions (c -> c U) and other
    # null directions of F carry no predicted ascent
    in_range = w > EIGEN_CUTOFF * w[:, -1:]
    twice_decrement = np.add.reduce(g_eig**2 / np.where(in_range, curvature, np.inf), axis=1)
    return w, g_eig, basis, info.trace(axis1=1, axis2=2) / (2 * d * rank), twice_decrement


@functools.cache
def _perturbation(d: int, rank: int) -> np.ndarray:
    rng = np.random.default_rng(_INIT_SEED)
    p = _INIT_PERTURBATION * (
        rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    )
    p.flags.writeable = False
    return p


def _initial_point(ops_flat: np.ndarray, t: np.ndarray, k: np.ndarray, rank: int) -> np.ndarray:
    """Start of each lane's solve, computed from its exposures and counts
    ``t, k (B, m)``: the top-``rank`` eigenvectors of the lane's
    Poisson-weighted linear-inversion estimate, scaled by the square roots of
    their eigenvalues (floored at ``_START_FLOOR`` times the largest) to
    trace 1, plus the seeded perturbation; ``(B, d, rank)``.

    The estimate minimizes ``sum_j (t_j tr(Lambda_j rho) - k_j)^2 / max(k_j, 1)``
    through its normal equations with a ridge of ``_START_RIDGE`` times their
    mean diagonal: a full-rank solution moves only at that relative order,
    and a rank-deficient design gets the minimum-norm solution.
    """
    n_lanes, dd = len(t), ops_flat.shape[1]
    d = math.isqrt(dd)
    # row j of a lane's design, dotted with rho.T.ravel(), is t_j tr(Lambda_j rho)
    design = ops_flat * t[:, :, None]
    design_h = design.conj().swapaxes(1, 2)
    weights = 1.0 / np.maximum(k, 1.0)
    normal = (design_h * weights[:, None, :]) @ design
    ridge = _START_RIDGE * np.trace(normal, axis1=1, axis2=2).real / dd
    normal.reshape(n_lanes, -1)[:, :: dd + 1] += ridge[:, None]
    x = np.linalg.solve(normal, _matvec(design_h, weights * k)[..., None])[..., 0]
    rho = x.reshape(n_lanes, d, d).swapaxes(1, 2)
    w, u = np.linalg.eigh(rho + rho.conj().swapaxes(1, 2))
    w = np.maximum(w[:, : -rank - 1 : -1], _START_FLOOR * w[:, -1:])
    scale = np.sqrt(w / w.sum(axis=1, keepdims=True))
    return u[:, :, : -rank - 1 : -1] * scale[:, None, :] + _perturbation(d, rank)


class _Lanes:
    """Per-lane arrays, one row per lane: the state of the lanes still
    iterating, or of every lane where it stopped; ``keep`` compacts every
    array at once."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        self.__dict__.update({name: a[mask] for name, a in vars(self).items()})

    def put(self, rows: slice | np.ndarray, **values) -> None:
        for name, value in values.items():
            getattr(self, name)[rows] = value

    def leave(self, stop: np.ndarray, end: _Lanes, **values) -> bool:
        """Moves the lanes where ``stop`` holds out: their rows of every
        array ``end`` shares, and ``values``, are written to their lanes'
        rows of ``end``, and the other lanes are kept.  Returns whether any
        lane is left."""
        shared = {name: a[stop] for name, a in vars(self).items() if name in vars(end)}
        end.put(self.lane[stop], **shared, **values)
        self.keep(~stop)
        return len(self.lane) > 0


def _sq_norm(x: np.ndarray) -> np.ndarray:
    # per lane, the squared norm np.linalg.norm takes: one dot product of the
    # real parts plus one of the imaginary parts
    v = x.reshape(len(x), -1)
    re, im = v.real, v.imag
    return (re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0]


def _surrogate(
    lam: np.ndarray, k: np.ndarray, t: np.ndarray, k_div: np.ndarray
) -> np.ndarray:
    """Log-likelihood without its constant offset, per lane: each observed
    term is O(1) near the data, so the sum keeps float resolution; -inf
    where an observed row has a rate <= 0.  ``k_div`` is k with zeros
    replaced by one."""
    mean = lam * t
    safe = mean if np.minimum.reduce(mean, axis=None) > 0 else np.where(mean > 0, mean, 1.0)
    ll = np.add.reduce(k * np.log(safe / k_div) - (mean - k), axis=-1)
    if safe is not mean:
        ll = np.where(np.logical_or.reduce((mean <= 0) & (k > 0), axis=-1), -np.inf, ll)
    return ll


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per lane, the dot product np.dot takes of two real rows
    return (a[:, None] @ b[:, :, None])[:, 0, 0]


def _set_up(t: np.ndarray, k: np.ndarray, ops: np.ndarray, rank: int) -> np.ndarray:
    """Each lane's ``I = sum_j t_j Lambda_j`` (B, d, d) from its exposures
    ``t (B, m)``.  Raises for the first lane, in lane order, that cannot be
    solved: IncompleteProtocolError where its I is singular, else ValueError
    where its counts ``k (B, m)`` are all zero, the message prefixed ``"lane
    b: "`` in a batch of more than one lane."""
    n_lanes = len(t)
    m, d, _ = ops.shape
    # what np.tensordot(t, ops, axes=1) computes, lane by lane
    i_mat = (t[:, None] @ ops.reshape(m, d * d)).reshape(n_lanes, d, d)
    w_i = np.linalg.eigvalsh(i_mat)
    w_min, w_max = w_i.min(axis=1), w_i.max(axis=1)
    singular = w_min <= 1e-12 * w_max
    failing = np.flatnonzero(singular | (k.sum(axis=1) <= 0))
    if failing.size:
        b = failing[0]
        lane = f"lane {b}: " if n_lanes > 1 else ""
        if singular[b]:
            raise IncompleteProtocolError(
                f"{lane}information matrix I is singular (eigenvalues {w_min[b]:.3e}.."
                f"{w_max[b]:.3e}); the protocol cannot identify rank {rank}"
            )
        raise ValueError(f"{lane}no observed counts")
    return i_mat


def solve_likelihood(
    data: Measurements, config: ReconstructionConfig
) -> ReconstructionResult:
    """Solve ``I c = J c`` for one data set, exposures and counts ``(m,)``:
    lane 0 of a batch of one lane, whose per-lane fields are scalars."""
    if data.exposures.ndim != 1:
        raise ValueError(f"solve_likelihood takes one data set, got {len(data.exposures)} lanes")
    return solve_likelihood_batch(data, config).lanes(0)


def solve_likelihood_batch(
    data: Measurements, config: ReconstructionConfig
) -> ReconstructionResult:
    """Solve ``I c = J c`` for every lane of ``data``; row b of the record
    is lane b's.

    The lanes are the rows of the record's ``(B, m)`` exposures and counts
    over its one operator array; a record of one data set ``(m,)`` is a
    batch of one lane.  Auxiliary rows participate exactly like measured
    ones.  A lane with no counts raises ValueError, and one whose I is
    singular (the protocol cannot identify the model) raises
    IncompleteProtocolError, before any iteration; the message names the
    first such lane.  Non-convergence within the iteration budget is
    reported through the result flags, not raised.
    """
    exposures, counts = np.atleast_2d(data.exposures), np.atleast_2d(data.counts)
    if not len(exposures):
        raise ValueError("no lanes to solve")
    ops = data.operators
    m, d, _ = ops.shape
    rank = config.rank
    if rank > d:
        raise ValueError(f"rank {rank} exceeds dimension {d}")
    ops_flat = ops.reshape(m, d * d)
    n_lanes, n_par = len(exposures), 2 * d * rank
    s = _Lanes(
        lane=np.arange(n_lanes), k=counts, t=exposures,
        i_mat=_set_up(exposures, counts, ops, rank),
    )
    # each lane as it stopped; the spectrum is filled in here on a
    # stationary stop and by _results on the others, and ll is the
    # surrogate the lane stopped with
    end = _Lanes(
        c=np.full((n_lanes, d, rank), np.nan, complex),
        residual=np.full(n_lanes, np.nan),
        iterations=np.zeros(n_lanes, int),
        steps=np.zeros(n_lanes, int),
        rejected=np.zeros(n_lanes, int),
        reason=np.full(n_lanes, None, object),
        spectrum=np.full((n_lanes, n_par), np.nan),
        ll=np.full(n_lanes, np.nan),
    )
    c = _initial_point(ops_flat, s.t, s.k, rank)
    s.c = c * np.sqrt(s.k.sum(axis=1) / _dots(_rates(c, ops_flat), s.t))[:, None, None]
    s.mu = np.full(n_lanes, 1e-3)  # Levenberg parameter
    s.steps = np.zeros(n_lanes, int)  # accepted scoring steps
    s.rejected = np.zeros(n_lanes, int)  # failed Levenberg tries
    s.k_div = np.where(s.k > 0, s.k, 1.0)
    s.lam = _rates(s.c, ops_flat)
    s.ll = _surrogate(s.lam, s.k, s.t, s.k_div)

    for iterations in range(1, config.max_iterations + 1):
        n_active = len(s.lane)
        weights = s.k / np.maximum(s.lam, _RATE_FLOOR)
        jc = (weights[:, None, :] @ ops_flat).reshape(n_active, d, d) @ s.c
        ic = s.i_mat @ s.c
        grad_c = jc - ic
        norms = np.sqrt(_sq_norm(np.concatenate([grad_c, ic])))
        s.residual = norms[:n_active] / norms[n_active:]
        stop = s.residual < _RESIDUAL_TOL
        if np.logical_or.reduce(stop):
            if not s.leave(stop, end, iterations=iterations, reason="residual"):
                break
            weights, grad_c = weights[~stop], grad_c[~stop]

        w, g_eig, basis, ridge, twice_decrement = _scoring_system(
            s.c, grad_c, ops, s.t, s.lam, weights
        )
        scale = 1.0 + np.abs(s.ll)
        stop = twice_decrement < (2.0 * _DECREMENT_TOL) * scale
        if np.logical_or.reduce(stop):
            if not s.leave(
                stop, end, iterations=iterations, reason="stationary",
                spectrum=_descending(w[stop], n_par),
            ):
                break
            w, g_eig, basis, ridge, scale = (x[~stop] for x in (w, g_eig, basis, ridge, scale))

        # Levenberg-damped scoring steps; pos is the lanes still trying, a
        # basic slice while every lane is, so the write is in place
        pos = slice(None)
        c, ll, k, t, k_div, mu = s.c, s.ll, s.k, s.t, s.k_div, s.mu
        w = np.maximum(w, 0.0)
        for _ in range(8):
            dc = _matvec(basis, g_eig / (w + (mu * ridge)[:, None])).reshape(-1, 2, rank, d)
            c_try = c + (dc[:, 0] + 1j * dc[:, 1]).swapaxes(1, 2)
            lam_try = _rates(c_try, ops_flat)
            ll_try = _surrogate(lam_try, k, t, k_div)
            ok = ll_try >= ll - _SCORING_SLACK * scale
            if np.logical_and.reduce(ok):  # every pending lane takes its step
                mu = np.maximum(mu * 0.3, 1e-12)
                s.put(pos, mu=mu, c=c_try, lam=lam_try, ll=ll_try)
                s.steps[pos] += 1
                break
            s.rejected[pos] += ~ok
            mu = np.where(ok, np.maximum(mu * 0.3, 1e-12), mu * 10.0)
            if np.logical_or.reduce(ok):
                pos = np.arange(len(s.lane))[pos]
                p = pos[ok]
                s.put(p, mu=mu[ok], c=c_try[ok], lam=lam_try[ok], ll=ll_try[ok])
                s.steps[p] += 1
                pos, c, ll, scale, k, t, k_div, w, g_eig, basis, ridge, mu = (
                    x[~ok] for x in (pos, c, ll, scale, k, t, k_div, w, g_eig, basis, ridge, mu)
                )
        else:
            s.mu[pos] = mu  # no step after 8 tries: the next starts from this mu
    else:
        s.leave(np.ones(len(s.lane), bool), end, iterations=iterations, reason="iteration_cap")
    return _results(ops, exposures, counts, rank, end)


def _results(
    ops: np.ndarray, t: np.ndarray, k: np.ndarray, rank: int, end: _Lanes
) -> ReconstructionResult:
    """The record of every lane at the c it stopped with, its results
    computed for all lanes at once, each quantity by one BLAS or LAPACK call
    per lane, an elementwise operation or a sum along the lane's own row.
    ``end`` holds each lane's c, residual, surrogate, iterations, accepted
    and rejected step counts, stop reason and, on a stationary stop, the
    spectrum of its last scoring step, taken at exactly that c; the other
    lanes' spectra are computed here from the same kind of matrix."""
    c = end.c
    m, d, _ = ops.shape
    lam = _rates(c, ops.reshape(m, d * d))
    n_observed = k.sum(axis=1)
    gap = np.abs(_dots(lam, t) - n_observed) / n_observed
    rho = c @ c.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    s = math.isqrt(d)
    tp_residual = nu = None
    if s >= 2 and s * s == d:
        reduced = partial_trace(s * rho, "output")
        tp_residual = np.max(np.abs(reduced - np.eye(s)), axis=(1, 2))
        nu = parameter_count(s, rank)
    missing = np.flatnonzero(end.reason != "stationary")
    if missing.size:
        info, _ = _information(c[missing], ops, t[missing], lam[missing])
        end.spectrum[missing] = _descending(np.linalg.eigvalsh(info), 2 * d * rank)
    return ReconstructionResult(
        estimate=rho,
        rank=rank,
        iterations=end.iterations,
        converged=end.reason != "iteration_cap",
        stop_reason=end.reason,
        residual=end.residual,
        normalization_gap=gap,
        nu=nu,
        tp_residual=tp_residual,
        info_spectrum=end.spectrum,
        scoring_steps=end.steps,
        rejected_steps=end.rejected,
        log_likelihood=end.ll,
    )
