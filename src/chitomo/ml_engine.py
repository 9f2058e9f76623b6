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

Every iteration takes one Levenberg-damped Newton step ``delta = (H + mu R
I)^{-1} grad`` on the real parameters (Re c, then Im c, each column-major):
the gradient is ``grad = 2 (J - I) c`` and the curvature ``H = F + D+``.  F
is the real Fisher matrix ``4 sum_j (t_j / lambda_j) v_j v_j^T``, v_j the
real form of ``Lambda_j c``.  D+ is ``I_r (x) (-2 (J - I)_-)`` in the same
layout, ``(J - I)_-`` the part of ``J - I`` on its negative eigenvalues
(one d x d eigendecomposition per lane): the observed Hessian's
second-derivative term ``-2 tr(delta^+ (J - I) delta)``, clipped so that H
stays positive semidefinite.  It carries the curvature F lacks when the
model rank exceeds the true rank: along a column c_k that tends to zero F's
curvature is O(|c_k|^2) and D+'s is O(1), so those solves converge in tens
of iterations where Fisher scoring alone crawled for hundreds.  Each try is
one LAPACK solve per lane, with the ridge R = ``tr H / 2dr``.  A try is
accepted only if the likelihood surrogate below drops by no more than a
relative slack of 1e-12, so accepted iterations are a monotone ascent.  An
accepted try multiplies ``mu`` by 0.3 and a failed one by 10; a solve whose
8 tries all fail takes no step in that iteration and starts the next one
from the raised ``mu``.

Steps are compared on the likelihood written without its constant offset,
``sum_{k>0} k ln(lambda t / k) - sum (lambda t - k)``: it has the same
maximizer, but its value is O(number of rows) instead of O(total counts), so
the relative slack of the acceptance test stays near float resolution.

Two rules stop the iteration as converged, both checked at the start of
an iteration.  The relative residual ``|Ic - Jc| / |Ic|`` below
``_RESIDUAL_TOL`` = 1e-9 stops it with ``"residual"``.  The
``"stationary"`` stop ends solves whose residual stalls at float resolution
short of that: the Newton decrement ``1/2 grad^T (H + 1e-12 R I)^{-1}
grad`` was below ``_DECREMENT_TOL * (1 + |surrogate|)`` (Boyd &
Vandenberghe, Convex Optimization, 9.5.2), and the step taken from there
gained less than ``_GAIN_TOL * (1 + |surrogate|)``, ``_GAIN_TOL`` = 1e-10
(8 failed tries gain nothing).  The decrement alone stops too early where
the ascent is slow: on noiseless data under an over-rank model the
likelihood is quartic in the columns of c that tend to zero, each step
gains only a fraction of what is left, and the decrement alone stopped
such a fit (B4, identity channel, rank 4) at an infidelity of 2.8e-6,
where the gain rule stops it at 7.5e-7.  A lane that converges
quadratically takes the step its small decrement gives and mostly stops on
the residual at the next iteration.  As ``mu >= 1e-12``, the first try's
``grad^T delta`` is at most twice the decrement, so only a lane already
below the threshold with it takes the decrement's own solve.  A solve that
meets neither rule within ``max_iterations`` stops with
``"iteration_cap"`` and is reported as not converged.

``info_spectrum`` holds the 2*d*r eigenvalues, descending, of the real
Fisher matrix F at the returned c, one ``eigvalsh`` per lane in the
results.  For a process on an s-level system under an
adequate model the eigenvalues split into s^2 modes pinned by the auxiliary
rows, ``nu`` data modes and r^2 gauge nulls (``c -> c U``): ``nu + s^2``
lie above ``EIGEN_CUTOFF`` = 1e-8 times the largest.  With fewer rows m than
parameters (R4, J4 and B4 at rank 3 and 4: 20 rows for 24 and 32
parameters) at most m of them are nonzero, the others round-off.  Each
result also counts its accepted steps (``scoring_steps``) and its rejected
steps (failed Levenberg tries).

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
leaves the batch where its stop rule fires: a residual or stationary stop
at the start of an iteration, before its Newton system is built, and a
capped lane after the last iteration.  All of them leave through
``_Lanes.leave``, which writes what the lane stopped with to the
``end`` table the results are made from and compacts the remaining lanes,
so a long solve costs only its own lane's iterations.  An
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
_STEP_SLACK = 1e-12  # relative surrogate slack of a Newton step
_DECREMENT_RIDGE = 1e-12  # ridge of the decrement's solve, times tr H / 2dr, and mu's floor
EIGEN_CUTOFF = 1e-8  # F's range: eigenvalues above this times the largest
_RESIDUAL_TOL = 1e-9  # converged when the relative residual is below this
_DECREMENT_TOL = 1e-9  # stationary when the decrement is below this times (1 + |ll|)
_GAIN_TOL = 1e-10  # and the step after it gained less than this times (1 + |ll|)


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
    scoring_steps: np.ndarray  # (B,) accepted Newton steps
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


def _tangent_layout(ops: np.ndarray) -> np.ndarray:
    """The operators as the (d, d*m) matrix whose entry ``[l, i*m + j]`` is
    ``Lambda_j[i, l]``: ``c^T`` times it is, per lane, the (r, d*m) matrix
    of every ``(Lambda_j c)[i, k]`` at ``[k, i*m + j]``."""
    m, d, _ = ops.shape
    return ops.transpose(2, 1, 0).reshape(d, d * m)


def _fisher(c: np.ndarray, ops_t: np.ndarray, t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Real Fisher matrices ``4 sum_j (t_j / lambda_j) v_j v_j^T`` of a batch
    c (B, d, r) with exposures t and rates lam (B, m), ``ops_t`` the
    operators' ``_tangent_layout``; ``v_j = vec(Lambda_j c)`` over the real
    parameters (Re c, then Im c, each column-major)."""
    n_lanes, d, rank = c.shape
    v = (c.swapaxes(1, 2) @ ops_t).reshape(n_lanes, d * rank, -1)  # v_j as column j
    v = np.concatenate([v.real, v.imag], axis=1)
    return (v * (4.0 * t / np.maximum(lam, _RATE_FLOOR))[:, None, :]) @ v.swapaxes(1, 2)


@functools.cache
def _embedding(d: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``I_r (x) A`` of a Hermitian d x d A lands in the real 2dr x 2dr
    layout: flat indices into the matrix, and the entries of A's float view
    (d rows of interleaved real and imaginary parts) that go there.  The
    real form of A is ``[[Re A, -Im A], [Im A, Re A]]``, and ``-Im A[i, l]
    = Im A[l, i]``."""
    half, n = d * rank, 2 * d * rank
    i, l = np.divmod(np.arange(d * d), d)
    re, im, im_t = 2 * d * i + 2 * l, 2 * d * i + 2 * l + 1, 2 * d * l + 2 * i + 1
    rows, cols, source = [], [], []
    for k in range(rank):
        a, b = k * d + i, k * d + l
        for row, col, src in (
            (a, b, re), (half + a, half + b, re), (half + a, b, im), (a, half + b, im_t)
        ):
            rows.append(row), cols.append(col), source.append(src)
    dest, source = np.concatenate(rows) * n + np.concatenate(cols), np.concatenate(source)
    dest.flags.writeable = source.flags.writeable = False
    return dest, source


def _newton_system(
    c: np.ndarray, grad_c: np.ndarray, j_minus_i: np.ndarray, ops_t: np.ndarray,
    t: np.ndarray, lam: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's Newton system at c (B, d, r): the curvature ``H = F +
    D+`` (B, 2dr, 2dr), the real gradient ``2 (J - I) c`` (B, 2dr) and the
    ridge ``tr H / 2dr``.  ``D+`` is ``I_r (x) (-2 (J - I)_-)`` in the real
    layout, ``(J - I)_-`` the negative part of the lane's ``J - I``: the
    likelihood's second-derivative term ``-2 tr(delta^+ (J - I) delta)``
    clipped to keep H positive semidefinite."""
    n_lanes, d, rank = c.shape
    h = _fisher(c, ops_t, t, lam)
    w, u = np.linalg.eigh(j_minus_i)
    a = (u * (-2.0 * np.minimum(w, 0.0))[:, None, :]) @ u.conj().swapaxes(1, 2)
    dest, source = _embedding(d, rank)
    flat = h.reshape(n_lanes, -1)
    flat[:, dest] += a.view(float).reshape(n_lanes, -1)[:, source]
    g = grad_c.swapaxes(1, 2).reshape(n_lanes, -1)  # each lane column-major
    grad = 2.0 * np.concatenate([g.real, g.imag], axis=1)
    return h, grad, flat[:, :: 2 * d * rank + 1].sum(axis=1) / (2 * d * rank)


def _damped_solve(h: np.ndarray, grad: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The solution x of ``(h + shift I) x = grad`` for h (B, n, n), grad
    (B, n) and shift (B,), one LAPACK solve per matrix."""
    n = h.shape[-1]
    a = h.copy()
    a.reshape(len(h), n * n)[:, :: n + 1] += shift[:, None]
    return np.linalg.solve(a, grad[..., None])[..., 0]


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
    ops_flat, ops_t = ops.reshape(m, d * d), _tangent_layout(ops)
    n_lanes = len(exposures)
    s = _Lanes(
        lane=np.arange(n_lanes), k=counts, t=exposures,
        i_mat=_set_up(exposures, counts, ops, rank),
    )
    # each lane as it stopped; ll is the surrogate the lane stopped with
    end = _Lanes(
        c=np.full((n_lanes, d, rank), np.nan, complex),
        residual=np.full(n_lanes, np.nan),
        iterations=np.zeros(n_lanes, int),
        steps=np.zeros(n_lanes, int),
        rejected=np.zeros(n_lanes, int),
        reason=np.full(n_lanes, None, object),
        ll=np.full(n_lanes, np.nan),
    )
    c = _initial_point(ops_flat, s.t, s.k, rank)
    s.c = c * np.sqrt(s.k.sum(axis=1) / _dots(_rates(c, ops_flat), s.t))[:, None, None]
    s.mu = np.full(n_lanes, 1e-3)  # Levenberg parameter
    s.steps = np.zeros(n_lanes, int)  # accepted Newton steps
    s.rejected = np.zeros(n_lanes, int)  # failed Levenberg tries
    s.k_div = np.where(s.k > 0, s.k, 1.0)
    s.lam = _rates(s.c, ops_flat)
    s.ll = _surrogate(s.lam, s.k, s.t, s.k_div)
    s.gain = np.full(n_lanes, np.inf)  # what the last accepted step gained
    s.flat = np.zeros(n_lanes, bool)  # the decrement was below its threshold where it started

    for iterations in range(1, config.max_iterations + 1):
        n_active = len(s.lane)
        weights = s.k / np.maximum(s.lam, _RATE_FLOOR)
        j_minus_i = (weights[:, None, :] @ ops_flat).reshape(n_active, d, d) - s.i_mat
        grad_c = j_minus_i @ s.c
        ic = s.i_mat @ s.c
        norms = np.sqrt(_sq_norm(np.concatenate([grad_c, ic])))
        s.residual = norms[:n_active] / norms[n_active:]
        scale = 1.0 + np.abs(s.ll)
        converged = s.residual < _RESIDUAL_TOL
        stop = converged | (s.flat & (s.gain < _GAIN_TOL * scale))
        if np.logical_or.reduce(stop):
            reason = np.where(converged, "residual", "stationary")[stop]
            if not s.leave(stop, end, iterations=iterations, reason=reason):
                break
            j_minus_i, grad_c, scale = j_minus_i[~stop], grad_c[~stop], scale[~stop]

        h, grad, ridge = _newton_system(s.c, grad_c, j_minus_i, ops_t, s.t, s.lam)
        step = _damped_solve(h, grad, s.mu * ridge)  # the first Levenberg try
        threshold = (2.0 * _DECREMENT_TOL) * scale
        # mu >= _DECREMENT_RIDGE, so the try's grad^T step is at most twice
        # the decrement: only lanes already below the threshold with it take
        # the decrement's own solve, mostly in their last iterations
        flat = _dots(grad, step) < threshold
        if np.logical_or.reduce(flat):
            near = np.flatnonzero(flat)
            x = _damped_solve(h[near], grad[near], _DECREMENT_RIDGE * ridge[near])
            flat[near] = _dots(grad[near], x) < threshold[near]
        s.flat = flat

        # Levenberg-damped Newton steps; pos is the lanes still trying, a
        # basic slice while every lane is, so the write is in place
        pos = slice(None)
        c, ll, k, t, k_div, mu = s.c, s.ll, s.k, s.t, s.k_div, s.mu
        for attempt in range(8):
            if attempt:
                step = _damped_solve(h, grad, mu * ridge)
            dc = step.reshape(-1, 2, rank, d)
            c_try = c + (dc[:, 0] + 1j * dc[:, 1]).swapaxes(1, 2)
            lam_try = _rates(c_try, ops_flat)
            ll_try = _surrogate(lam_try, k, t, k_div)
            ok = ll_try >= ll - _STEP_SLACK * scale
            if np.logical_and.reduce(ok):  # every pending lane takes its step
                mu = np.maximum(mu * 0.3, _DECREMENT_RIDGE)
                s.put(pos, mu=mu, c=c_try, lam=lam_try, ll=ll_try, gain=ll_try - ll)
                s.steps[pos] += 1
                break
            s.rejected[pos] += ~ok
            mu = np.where(ok, np.maximum(mu * 0.3, _DECREMENT_RIDGE), mu * 10.0)
            if np.logical_or.reduce(ok):
                pos = np.arange(len(s.lane))[pos]
                p = pos[ok]
                gain = ll_try - ll
                s.put(p, mu=mu[ok], c=c_try[ok], lam=lam_try[ok], ll=ll_try[ok], gain=gain[ok])
                s.steps[p] += 1
                pos, c, ll, scale, k, t, k_div, h, grad, ridge, mu = (
                    v[~ok] for v in (pos, c, ll, scale, k, t, k_div, h, grad, ridge, mu)
                )
        else:
            # no step after 8 tries: the next starts from this mu
            s.put(pos, mu=mu, gain=0.0)
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
    and rejected step counts and stop reason."""
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
        info_spectrum=np.linalg.eigvalsh(_fisher(c, _tangent_layout(ops), t, lam))[:, ::-1],
        scoring_steps=end.steps,
        rejected_steps=end.rejected,
        log_likelihood=end.ll,
    )
