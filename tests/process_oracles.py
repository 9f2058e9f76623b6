"""Test-only checks and oracles: Kraus sets, operator bases, the unitary
mixing freedom of a chi-matrix factor, the two matrices of the likelihood
equation ``I c = J c``, the solver's scoring step taken on the Fisher side,
density-matrix validation, the SU(2) form of a retarder, a bootstrap bound
on a ratio of means, the draw-by-draw Poisson sampler, the per-row count
rates, one count set, each subset's component sum, the process-protocol and
auxiliary-row operators, a plate's Choi state and a campaign's Monte-Carlo
replications as computed before their stacked forms, and the channel
action, Choi state, outcome probabilities and rank of a process computed
directly.  ``matrix_to_json`` is the list form of a matrix that
``cli.write_json`` writes from the array itself.

Also the single-item forms of package functions that no command calls: one
derived seed, the retarder unitary about one axis, the monochromatic states
behind a plate stack, one component sum, the Poisson sampler over one list
of means and one count set; and a batch record's lanes as a list."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from chitomo import harness, protocols, waveplate
from chitomo.ml_engine import EIGEN_CUTOFF, ReconstructionResult, _fisher, expected_rates
from chitomo.protocols import Measurements, auxiliary_rows, process_protocol
from chitomo.quantum_core import _as_complex_matrix, hermitian_eig, vectorize
from chitomo.waveplate import (
    SpectralProfile,
    SU2Retarder,
    WaveplateSpec,
    axis_from_orientation,
    quartz_indices,
)

__all__ = [
    "derive_seed",
    "retarder_unitary",
    "monochromatic_states",
    "component_sum_state",
    "poisson_counts",
    "generate_counts",
    "each_lane",
    "completeness_residual",
    "basis_orthonormality_check",
    "unitary_mix",
    "fisher_matrices",
    "fisher_scoring_step",
    "check_density_matrix",
    "su2_from_retarder",
    "bootstrap_ratio_lower_bound",
    "sample_poisson",
    "per_row_rates",
    "generate_counts_per_set",
    "component_sums_per_subset",
    "process_operators_per_row",
    "auxiliary_operators_per_row",
    "plate_choi_state_per_knot",
    "replications_one_by_one",
    "apply_channel",
    "choi_from_channel",
    "direct_probability",
    "effective_probability",
    "process_rank",
    "matrix_to_json",
    "json_lists",
]


_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def derive_seed(campaign_seed: int, index: int) -> int:
    """Counter-based per-replication seed (documented derivation rule):
    the first 64-bit word of ``SeedSequence(campaign_seed,
    spawn_key=(index,)).generate_state``."""
    return harness.derive_seeds(campaign_seed, [index])[0]


def retarder_unitary(delta: float, axis: np.ndarray) -> np.ndarray:
    """SU(2) rotation ``I cos(delta) - i (sigma . n) sin(delta)``; unit axis.
    Its own expression, so that it checks the package's rotation builder."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError(f"axis norm {np.linalg.norm(axis)!r} is not 1")
    sigma_n = np.tensordot(axis, _SIGMA, axes=1)
    return np.cos(delta) * np.eye(2, dtype=complex) - 1j * np.sin(delta) * sigma_n


def monochromatic_states(
    input_state: np.ndarray,
    plates: list[WaveplateSpec],
    wavelengths: np.ndarray,
) -> np.ndarray:
    """Pure output states ``|psi_k><psi_k|`` at each wavelength, ``(K, 2, 2)``.

    State k is what ``broadband_mixed_state`` returns, to the bit, for the
    one-knot profile at ``wavelengths[k]``: a one-knot profile's central
    knot is the knot itself, so a thin plate also acts with its unitary at
    that wavelength.  An out-of-window wavelength raises the error of the
    first such one-knot call.
    """
    lam = np.asarray(wavelengths, dtype=float)
    return waveplate._projectors(waveplate._output_states(input_state, plates, lam, lam)[-1])


def component_sum_state(components: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Weighted mixture of density matrices, renormalized to unit trace.

    Weights must be nonnegative with at least one positive; they are divided
    by their sum, so only relative weights matter.
    """
    weights = [w for w, _ in components]
    states = [r for _, r in components]
    return waveplate.component_sum_states(states, weights, [range(len(components))])[0]


def poisson_counts(means: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Independent Poisson draws with the given means, in order, by the
    sampler of ``protocols.generate_counts_batch``.

    Each draw consumes only ``rng.random()`` uniforms, in stream order: one
    by inversion below mean 30, two per attempt of the transformed rejection
    (Hormann 1993) from 30 up, none for a zero mean.  The generator ends
    past the last block of uniforms fetched, not at the last uniform used.
    """
    means = np.asarray(means, dtype=float)
    protocols._check_means(means)
    return protocols._draw_counts(
        means.tolist(), rng, protocols._block_sizes(means), protocols._rejection_constants(means)
    )


def generate_counts(
    rows: Measurements, truth: np.ndarray, n_total: int, seed: int
) -> Measurements:
    """Fill observed counts for the non-auxiliary rows of a protocol: the
    one lane of a batch of one of ``protocols.generate_counts_batch``."""
    return protocols.generate_counts_batch(rows, truth, n_total, [seed]).lanes(0)


def each_lane(data: Measurements) -> list[Measurements]:
    """Every lane of a batch record, in lane order, as one data set each."""
    return [data.lanes(b) for b in range(len(data.exposures))]


def each_result(record: ReconstructionResult) -> list[ReconstructionResult]:
    """Every lane of a solver's result record, in lane order, as the
    one-lane record ``solve_likelihood`` returns."""
    return [record.lanes(b) for b in range(len(record.iterations))]


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


def fisher_scoring_step(
    c: np.ndarray, data: Measurements, mus: Sequence[float]
) -> tuple[np.ndarray, float, list[np.ndarray]]:
    """The scoring step at the purified vector c (d, r) taken on the Fisher
    side: ``np.linalg.eigh`` of the real Fisher matrix F (``ml_engine._fisher``)
    and the gradient ``2 (J - I) c`` in F's real layout.  Returns F's
    eigenvalues, descending; twice the Newton decrement ``grad^T F^+ grad``
    over the eigenvalues above ``EIGEN_CUTOFF`` times the largest; and for
    each mu the Levenberg step ``(F + mu tr(F) / 2dr)^{-1} grad``, negative
    round-off eigenvalues taken as zero, as a (d, r) complex array."""
    d, r = c.shape
    lam = expected_rates(c, data)
    fisher = _fisher(c[None], data.operators, data.exposures[None], lam[None])[0]
    i_mat, j_mat = fisher_matrices(c, data)
    g = ((j_mat - i_mat) @ c).T.ravel()
    w, u = np.linalg.eigh(fisher)
    g_eig = u.T @ (2.0 * np.concatenate([g.real, g.imag]))
    in_range = w > EIGEN_CUTOFF * w[-1]
    twice_decrement = float(np.sum(g_eig[in_range] ** 2 / w[in_range]))
    ridge = np.trace(fisher) / len(fisher)
    steps = []
    for mu in mus:
        x = u @ (g_eig / (np.maximum(w, 0.0) + mu * ridge))
        steps.append((x[: d * r] + 1j * x[d * r :]).reshape(r, d).T)
    return w[::-1], twice_decrement, steps


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
    ``protocols.generate_counts_batch``."""
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
    rows: Measurements, truth: np.ndarray, n_total: int, seed: int
) -> Measurements:
    """One count set as ``generate_counts`` drew it before the
    batched synthesis: the rates from one ``(m*d, d) @ (d, d)`` product,
    the total from ``np.dot``, exposures scaled by a Python float, and the
    draws from the generator seeded with seed."""
    truth = np.asarray(truth, dtype=complex)
    m, d, _ = rows.operators.shape
    products = (rows.operators.reshape(m * d, d) @ truth).reshape(m, d, d)
    rates = np.clip(np.trace(products, axis1=1, axis2=2).real, 0.0, None)
    base = float(np.dot(rates, rows.exposures))
    exposures = rows.exposures * (n_total / base)
    counts = poisson_counts(rates * exposures, np.random.default_rng(seed))
    return replace(rows, exposures=exposures, counts=counts)


def component_sums_per_subset(
    states: np.ndarray, weights: np.ndarray, subsets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Each subset's mixture as ``component_sum_state`` formed it
    before the stacked sums: a Python sum of the weighted states in subset
    order (0-based indices), divided by the ``np.sum`` of their weights."""
    mixtures = []
    for subset in subsets:
        w = np.array([weights[j] for j in subset], dtype=float)
        terms = (float(weights[j]) * np.asarray(states[j], dtype=complex) for j in subset)
        mixtures.append(sum(terms) / w.sum())
    return np.stack(mixtures)


def process_operators_per_row(states: Sequence[np.ndarray]) -> np.ndarray:
    """The process-protocol row operators as ``protocols.process_protocol``
    built them before the broadcast product: one ``np.kron`` per (input,
    projector) pair, input states slow."""
    return np.array(
        [
            np.kron(np.outer(c_in.conj(), c_in), np.outer(c_m, c_m.conj()))
            for c_in in states
            for c_m in states
        ]
    )


def auxiliary_operators_per_row(states: Sequence[np.ndarray]) -> np.ndarray:
    """The auxiliary-row operators as ``protocols.auxiliary_rows`` built them
    before the broadcast product: one ``np.kron`` with the identity per input
    state."""
    return np.array([np.kron(np.outer(c.conj(), c), np.eye(c.size)) for c in states])


def plate_choi_state_per_knot(spec: WaveplateSpec, profile: SpectralProfile) -> np.ndarray:
    """``waveplate.plate_choi_state`` as it computed the Choi state before its
    array pass: one knot at a time, each with its own signed optical
    thickness from ``quartz_indices`` (which raises for the first knot
    outside the quartz window) and its own vectorized retarder unitary."""
    axis = axis_from_orientation(spec.alpha_rad)
    psis = np.empty((len(profile), 4), dtype=complex)
    for j, lam in enumerate(profile.wavelengths):
        n_o, n_e = quartz_indices(lam)
        delta = np.pi * (n_o - n_e) * spec.thickness_um / lam
        psis[j] = vectorize(retarder_unitary(delta, axis)) / np.sqrt(2.0)
    weighted = psis * profile.weights[:, None]
    return weighted.T @ psis.conj()


def replications_one_by_one(
    config: harness.CampaignConfig, truth: np.ndarray, seeds: Sequence[int]
) -> ReconstructionResult | str:
    """The record of ``harness._solve_replications`` as it was computed
    before the batched synthesis and solve: each replication generates its
    own count set, builds its own auxiliary rows and has its own solve, a
    batch of one lane, and the lanes' records are stacked.  A synthesis
    error, which is every replication's, gives its text.  The solver is
    looked up in ``harness``, so a test's patch there reaches both paths."""
    proto = process_protocol(config.protocol, config.truth.lam0_um)
    solver = harness._solver_config(config)
    records = []
    for seed in seeds:
        try:
            data = generate_counts(proto.rows, truth, config.n_events, seed)
            total_t = sum(data.exposures)
            aux = auxiliary_rows(proto.input_states, total_t)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        records.append(harness.solve_likelihood_batch(data + aux, solver))
    stacked = {
        name: np.concatenate([getattr(record, name) for record in records])
        for name, column in vars(records[0]).items()
        if isinstance(column, np.ndarray)
    }
    return replace(records[0], **stacked)


def matrix_to_json(m: np.ndarray) -> list:
    """A matrix as rows of ``[re, im]`` pairs of Python floats."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def json_lists(obj: object) -> object:
    """obj with every numpy array replaced by its ``matrix_to_json`` form, as
    ``json.dumps`` needs it."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, dict):
        return {key: json_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(json_lists(value) for value in obj)
    return obj
