"""Reproducible experiment campaigns: Monte-Carlo fidelity studies, loss
scaling in the sample size, the component-wise mixed-state workflow, and
retarder parameter extraction from reconstructed processes.

Determinism contract: a campaign is a pure function of its config (including
the seed).  Per-replication seeds are derived from the campaign seed with the
counter-based rule ``SeedSequence(seed, spawn_key=(index,))``, so replications
can run in any order or in parallel without changing results.  The rule is
computed by ``derive_seeds`` for many keys at once: it builds the pool of
``SeedSequence(seed)`` once and mixes each key into a copy of it with
SeedSequence's own arithmetic, giving the same integers.

A Monte-Carlo campaign runs in one process and does once what is the same
for every replication: one truth, one protocol, one ``generate_counts_batch``
call for all its seeds, one set of auxiliary rows, one
``solve_likelihood_batch`` call and one stacked ``fidelity`` call.  Each
replication draws from its own seeded generator and is its own lane of the
batch, whose lanes are bit-identical to lone solves, so the outputs equal
those of one replication at a time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .ml_engine import (
    EIGEN_CUTOFF,
    ReconstructionConfig,
    ReconstructionResult,
    solve_likelihood,
    solve_likelihood_batch,
)
from .process_algebra import kraus_from_chi, chi_from_kraus
from .protocols import (
    AUXILIARY_WEIGHT,
    LAMBDA_DEFAULT_UM,
    Config,
    Measurements,
    ProcessProtocolName,
    bn_state_protocol,
    check_synthesis,
    generate_counts_batch,
    process_datasets,
    process_protocol,
)
from .quantum_core import fidelity, hermitian_eig, von_neumann_entropy
from .waveplate import (
    THIN_PLATE_LIMIT_UM,
    SpectralProfile,
    SU2Retarder,
    WaveplateSpec,
    birefringence_from_delta,
    check_quartz_window,
    component_sum_states,
    fit_su2_retarder,
    plate_choi_state,
    plate_count_states,
    sinc2_profile,
    sinc2_weights,
)

__all__ = [
    "PlateSpec",
    "TruthSpec",
    "CampaignConfig",
    "ScalingConfig",
    "CampaignResult",
    "MixedWorkflowConfig",
    "EstimateTooMixedError",
    "derive_seeds",
    "build_truth",
    "run_mc_campaign",
    "run_scaling_study",
    "run_mixed_state_workflow",
    "run_retarder_fit",
]

HISTOGRAM_BINS = 30
# the per-replication fields of CampaignResult.replications, in column order
REPLICATION_FIELDS = (
    "seed",
    "iterations",
    "stop_reason",
    "residual",
    "scoring_steps",
    "fixed_point_steps",
    "rejected_steps",
)


class EstimateTooMixedError(ValueError):
    """A retarder fit was requested on an estimate that is not close enough
    to a unitary process."""


@dataclass(frozen=True)
class PlateSpec(Config):
    """A quartz plate (thickness, optical axis in degrees from vertical) under
    a sinc^2 spectrum (centre, FWHM, odd knot count, half-window in FWHM)."""

    thickness_um: float = 5024.0
    alpha_deg: float = 45.0
    lam0_um: float = LAMBDA_DEFAULT_UM
    fwhm_um: float = 0.008
    knots: int = 801
    span: float = 40.0

    def __post_init__(self) -> None:
        super().__post_init__()
        # the checks that build_truth's plate, profile and knots would fail
        self.plate()
        check_quartz_window(self.profile.wavelengths)

    def plate(self) -> WaveplateSpec:
        return WaveplateSpec(self.thickness_um, np.deg2rad(self.alpha_deg))

    @functools.cached_property
    def profile(self) -> SpectralProfile:
        """The sinc^2 spectrum, built once per spec, when it is checked."""
        return sinc2_profile(self.lam0_um, self.fwhm_um, self.knots, self.span)


@dataclass(frozen=True)
class TruthSpec(PlateSpec):
    """True process for data generation: the plate, optionally truncated to
    its ``rank`` dominant Kraus operators, or the identity channel."""

    kind: str = "plate"
    rank: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in ("plate", "identity"):
            raise ValueError(f"unknown truth kind {self.kind!r}; expected plate or identity")
        if self.rank is not None and not 1 <= self.rank <= 4:
            raise ValueError(f"rank must be in 1..4 or null, got {self.rank}")


@dataclass(frozen=True)
class CampaignConfig(Config):
    scenario: str = "plate-r4"
    protocol: ProcessProtocolName = "R4"
    truth: TruthSpec = field(default_factory=TruthSpec)
    n_events: int = 10_000
    replications: int = 50
    reconstruction_rank: int = 2
    seed: int = 0
    auxiliary_weight: float = AUXILIARY_WEIGHT
    damping: float = ReconstructionConfig.damping
    max_iterations: int = ReconstructionConfig.max_iterations
    convergence_tol: float = ReconstructionConfig.convergence_tol

    def __post_init__(self) -> None:
        super().__post_init__()
        check_synthesis(self.n_events, self.auxiliary_weight)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 1 <= self.reconstruction_rank <= 4:
            raise ValueError("reconstruction rank must be in [1, 4]")
        _solver_config(self)  # damping and the stopping controls


@dataclass(frozen=True)
class ScalingConfig(CampaignConfig):
    """A campaign per (rank, sample size) cell of the scaling study."""

    n_list: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6)
    ranks: tuple[int, ...] = (2, 4)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.n_list) < 3:
            raise ValueError(f"n_list must hold at least 3 sample sizes, got {len(self.n_list)}")
        for i, n in enumerate(self.n_list):
            if n < 1:
                raise ValueError(f"n_list[{i}] must be >= 1, got {n}")
        if not self.ranks:
            raise ValueError("ranks must not be empty")
        for i, rank in enumerate(self.ranks):
            if not 1 <= rank <= 4:
                raise ValueError(f"ranks[{i}] must be in 1..4, got {rank}")
            if rank in self.ranks[:i]:
                raise ValueError(f"ranks[{i}] repeats rank {rank}; each rank runs one study")


@dataclass(frozen=True)
class CampaignResult:
    fidelities: np.ndarray  # NaN where the solver raised
    mean_loss: float
    failures: list[int]
    failure_reasons: dict[int, str]  # failed replication -> error text or stop reason
    histogram: dict  # bin_left / bin_right / count arrays
    info_spectrum: np.ndarray
    info_modes_above_cut: int
    nu: int | None
    metadata: dict
    # per replication, in index order: derived seed and the solve's
    # iterations, stop reason, residual and step counts (None where the
    # solver raised)
    replications: list[dict]


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _words32(n: int) -> list[int]:
    # SeedSequence's entropy words of a non-negative integer, least
    # significant first; 0 is one word
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def derive_seeds(campaign_seed: int, keys: Sequence[int]) -> list[int]:
    """Counter-based per-replication seeds (documented derivation rule): for
    every key, in order, the first 64-bit word of ``SeedSequence(
    campaign_seed, spawn_key=(key,)).generate_state``.

    A spawned SeedSequence hashes the seed's words, padded with zeros to its
    pool of 4 words, into the pool, then mixes each spawn-key word into every
    pool word.  Up to the key words that is the pool of
    ``SeedSequence(campaign_seed)``, so it is built once and each key
    continues a copy of it with SeedSequence's hashmix and mix on Python
    ints; the seed is generate_state's first 64-bit word, which reads pool
    words 0 and 1 only.  The results equal numpy's integers (tested against
    ``SeedSequence`` itself).
    """
    seed = operator.index(campaign_seed)
    pool = [int(word) for word in np.random.SeedSequence(seed).pool]
    # the hash constant after the pool's hashmix calls: one per pool word,
    # one per ordered pair of pool words, one per pool word for every seed
    # word past the pool
    n_calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, len(_words32(seed)) - _POOL_SIZE)
    start = _INIT_A * pow(_MULT_A, n_calls, 1 << 32) & _MASK32
    skip = pow(_MULT_A, _POOL_SIZE - 2, 1 << 32)  # the hashmix calls into pool words 2, 3
    seeds = []
    for key in keys:
        key = operator.index(key)
        if key < 0:
            raise ValueError(f"spawn key must be a non-negative integer, got {key}")
        p0, p1, h = pool[0], pool[1], start
        for word in _words32(key):
            # mix(p, hashmix(word)) into pool words 0 and 1
            v = word ^ h
            h = h * _MULT_A & _MASK32
            v = v * h & _MASK32
            v = (_MIX_MULT_L * p0 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
            p0 = v ^ v >> 16
            v = word ^ h
            h = h * _MULT_A & _MASK32
            v = v * h & _MASK32
            v = (_MIX_MULT_L * p1 - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
            p1 = v ^ v >> 16
            h = h * skip & _MASK32
        # generate_state(1, np.uint64): two hashed 32-bit words, low first
        h = _INIT_B * _MULT_B & _MASK32
        low = (p0 ^ _INIT_B) * h & _MASK32
        high = (p1 ^ h) * (h * _MULT_B & _MASK32) & _MASK32
        seeds.append(low ^ low >> 16 | (high ^ high >> 16) << 32)
    return seeds


def _truncate_rank(choi: np.ndarray, rank: int) -> np.ndarray:
    ops = kraus_from_chi(2.0 * choi, tol=0.0)[:rank]
    chi = chi_from_kraus(ops)
    return chi / chi.trace().real


def build_truth(spec: TruthSpec) -> np.ndarray:
    """Trace-1 Choi state of the configured true process."""
    if spec.kind == "identity":
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / np.sqrt(2)
        return np.outer(phi, phi.conj())
    choi = plate_choi_state(spec.plate(), spec.profile)
    if spec.rank is not None:
        choi = _truncate_rank(choi, spec.rank)
    return choi


def _solver_config(config: CampaignConfig) -> ReconstructionConfig:
    return ReconstructionConfig(
        rank=config.reconstruction_rank,
        damping=config.damping,
        max_iterations=config.max_iterations,
        convergence_tol=config.convergence_tol,
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _solve_replications(config: CampaignConfig, truth: np.ndarray, seeds: list[int]) -> list:
    # each replication's ReconstructionResult, or the error text of its
    # synthesis or solve: a synthesis error is every replication's
    proto = process_protocol(config.protocol, config.truth.lam0_um)
    solver = _solver_config(config)
    try:
        datasets = process_datasets(proto, truth, config.n_events, seeds, config.auxiliary_weight)
    except Exception as exc:
        return [_error_text(exc)] * len(seeds)
    return _each(
        lambda lanes: solve_likelihood_batch(lanes, solver),
        lambda data: solve_likelihood(data, solver),
        datasets,
    )


def _each(batch: Callable[[list], list], single: Callable, items: list) -> list:
    # batch(items), one result per item, or, when that raises, single(item)
    # for each item, with the error text of each one that raises: a batch's
    # checks raise when some item's would, and its error may name the item's
    # place in the batch, so only the items' own calls give their own texts
    try:
        return batch(items)
    except Exception:
        pass
    results = []
    for item in items:
        try:
            results.append(single(item))
        except Exception as exc:
            results.append(_error_text(exc))
    return results


def run_mc_campaign(config: CampaignConfig) -> CampaignResult:
    """Generate -> reconstruct -> fidelity for every replication.

    A replication enters the mean loss and the histogram when its solve
    converged, i.e. stopped on the residual or on stationarity (stop reason
    ``"residual"`` or ``"stationary"``).  It fails when the solver raised or
    stopped at the iteration cap; failures are listed in ``failures`` with
    their error text in ``failure_reasons``.  A failed replication's
    fidelity slot holds NaN when the solver raised and its fidelity when it
    only hit the cap.

    The campaign runs in one process: one synthesis of every count set,
    one set of auxiliary rows, one ``solve_likelihood_batch`` call with a
    lane per replication and one stacked ``fidelity`` call.  Each
    replication draws from its own seeded generator and a lane's result is
    that of its lone solve, so every output bit is that of one replication
    at a time.  A synthesis error fails every replication with the same
    text.  When the batch raises, each replication is solved alone, so a
    solve or scoring error fails its replication alone, with the text of
    its own call.
    """
    n = config.replications
    truth = build_truth(config.truth)
    seeds = derive_seeds(config.seed, range(n))
    # failure is data, not a crash: a replication whose synthesis, solve or
    # scoring raises records the error text
    results = _solve_replications(config, truth, seeds)
    errors = [res if isinstance(res, str) else None for res in results]
    solved = [i for i, error in enumerate(errors) if error is None]
    scores = _each(
        lambda estimates: fidelity(truth, np.stack(estimates)).tolist(),
        lambda estimate: fidelity(truth, estimate),
        [results[i].estimate for i in solved],
    )
    fidelities = np.full(n, np.nan)
    replications = [{**dict.fromkeys(REPLICATION_FIELDS), "seed": seed} for seed in seeds]
    info_spectrum, nu = np.array([]), None
    for i, score in zip(solved, scores):
        if isinstance(score, str):
            errors[i] = score
            continue
        res = results[i]
        fidelities[i] = score
        replications[i].update(_solve_status(res), residual=res.residual)
        if not res.converged:
            errors[i] = (
                f"not converged: {res.stop_reason} after {res.iterations} "
                f"iterations, residual {res.residual:.3e}"
            )
        if i == 0:
            info_spectrum, nu = res.info_spectrum, res.nu
    failure_reasons = {i: error for i, error in enumerate(errors) if error is not None}

    failures = list(failure_reasons)
    # a replication without a fidelity has failed
    losses = 1.0 - np.delete(fidelities, failures)
    mean_loss = float(losses.mean()) if losses.size else math.nan
    if losses.size:
        lo, hi = float(losses.min()), float(losses.max())
        hi = hi if hi > lo else lo + 1e-12
        counts, edges = np.histogram(losses, bins=HISTOGRAM_BINS, range=(lo, hi))
    else:
        counts, edges = np.zeros(HISTOGRAM_BINS, int), np.linspace(0, 1, HISTOGRAM_BINS + 1)
    # the solver's cutoff of F's range
    modes_above = (
        int(np.sum(info_spectrum > EIGEN_CUTOFF * info_spectrum[0])) if info_spectrum.size else 0
    )
    from . import __version__

    return CampaignResult(
        fidelities=fidelities,
        mean_loss=mean_loss,
        failures=failures,
        failure_reasons=failure_reasons,
        histogram={
            "bin_left": edges[:-1].tolist(),
            "bin_right": edges[1:].tolist(),
            "count": counts.tolist(),
        },
        info_spectrum=info_spectrum,
        info_modes_above_cut=modes_above,
        nu=nu,
        metadata={
            "seed": config.seed,
            "config": config.to_dict(),
            "chitomo_version": __version__,
            "numpy_version": np.__version__,
        },
        replications=replications,
    )


def run_scaling_study(config: ScalingConfig) -> dict:
    """Mean loss vs n on a log-log grid with least-squares slopes per rank:
    one campaign per (rank, n) cell of ``config.ranks`` x ``config.n_list``."""
    n_list = list(config.n_list)
    study: dict = {"n_list": n_list, "per_rank": {}}
    for rank_idx, rank in enumerate(config.ranks):
        means = []
        for n_idx, n in enumerate(n_list):
            cell_seed = int(
                np.random.SeedSequence(
                    config.seed, spawn_key=(rank_idx, n_idx)
                ).generate_state(1, np.uint64)[0]
            )
            cell = replace(
                config,
                scenario=f"{config.scenario}-rank{rank}-n{n}",
                n_events=n,
                reconstruction_rank=rank,
                seed=cell_seed,
            )
            means.append(run_mc_campaign(cell).mean_loss)
        slope, intercept = np.polyfit(np.log10(n_list), np.log10(means), 1)
        study["per_rank"][rank] = {
            "mean_loss": means,
            "slope": float(slope),
            "intercept": float(intercept),
        }
    return study


@dataclass(frozen=True)
class MixedWorkflowConfig(Config):
    """Component-wise reconstruction of broadband mixed polarization states."""

    plate_thickness_um: float = 5031.0
    plate_alpha_deg: float = 45.0
    lam0_um: float = 1.0
    fwhm_um: float = 0.008
    knots: int = 801
    span: float = 40.0
    component_lams_um: tuple[float, ...] = (
        0.994,
        0.996,
        0.998,
        1.000,
        1.002,
        1.004,
        1.006,
    )
    n_events: int = 100_000
    measurement_orientations: int = 36
    measurement_plate_um: float = 312.7
    component_rank: int = 1
    broadband_rank: int = 2
    seed: int = 0
    subsets: tuple[tuple[int, ...], ...] = (
        (1, 2, 3, 4, 5, 6, 7),
        (2, 3, 4, 5, 6),
        (3, 4, 5),
        (2, 4, 6),
        (1, 2, 3, 4),
        (2, 3, 7),
    )

    def __post_init__(self) -> None:
        # the subset checks run first so that their messages name the subset
        n_components = len(self.component_lams_um)
        if n_components == 0:
            raise ValueError("component_lams_um must not be empty")
        if n_components > 999:
            # the count-set seed keys 1000 * n_plates + 1 + index would
            # reach the next plate count's keys
            raise ValueError(
                f"component_lams_um holds {n_components} wavelengths; at most 999 keep "
                "every count set's seed distinct"
            )
        for k, subset in enumerate(self.subsets):
            if len(subset) == 0:
                raise ValueError(f"subsets[{k}] must not be empty")
            for i in subset:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"subsets[{k}]: index {i!r} is not an integer")
                if not 1 <= i <= n_components:
                    raise ValueError(
                        f"subsets[{k}]: index {i} outside 1..{n_components} "
                        "(1-based into component_lams_um)"
                    )
        super().__post_init__()
        if self.n_events < 1:
            raise ValueError(f"n_events must be >= 1, got {self.n_events}")
        for name in ("component_rank", "broadband_rank"):
            rank = getattr(self, name)
            if not 1 <= rank <= 2:
                raise ValueError(f"{name} must be in 1..2 (a polarization state), got {rank}")
        # the plate, spectrum and component checks of
        # run_mixed_state_workflow: a thick plate uses every knot, a thin one
        # the central knot only
        knots = self.profile.wavelengths
        if self.plate().thickness_um < THIN_PLATE_LIMIT_UM:
            knots = knots[len(knots) // 2 :][:1]
        check_quartz_window(knots)
        check_quartz_window(np.asarray(self.component_lams_um))
        self.measurement_rows  # builds the protocol: its count and completeness checks

    def plate(self) -> WaveplateSpec:
        return WaveplateSpec(self.plate_thickness_um, np.deg2rad(self.plate_alpha_deg))

    @functools.cached_property
    def profile(self) -> SpectralProfile:
        """The sinc^2 spectrum of the broadband light, built once per config,
        when the config is checked."""
        return sinc2_profile(self.lam0_um, self.fwhm_um, self.knots, self.span)

    @functools.cached_property
    def measurement_rows(self) -> Measurements:
        """The rows of the B-N state protocol every solve measures with,
        built once per config, when the config is checked."""
        return bn_state_protocol(
            self.measurement_orientations, self.measurement_plate_um, self.lam0_um
        )


def run_mixed_state_workflow(config: MixedWorkflowConfig) -> dict:
    """Three-stage report: broadband truth + reconstruction, per-component
    reconstructions, and component-sum states for the configured subsets.

    Returned fidelities compare against the broadband truth of the matching
    plate count; entropies are in bits.  Every stage-1 and stage-2 entry
    carries its solve's ``iterations``, ``stop_reason`` and step counts.

    Each layer runs once for the whole report: the broadband and component
    truths of both plate counts come from one ``plate_count_states`` pass
    under the config's ``profile``, all 16 count sets from one
    ``generate_counts_batch`` call over the config's ``measurement_rows``,
    the solves from two batches (the broadband solves at ``broadband_rank``,
    the component solves at ``component_rank``), the component sums of both
    plate counts from one ``component_sum_states`` call, and all fidelities
    and entropies from one stacked call each; the per-plate-count blocks of
    the report are sliced from those.
    """
    input_v = np.array([0.0, 1.0], dtype=complex)
    # the spectral shape at each component wavelength, 1 at the centre
    weights = sinc2_weights(np.asarray(config.component_lams_um), config.lam0_um, config.fwhm_um)
    plate_counts = (1, 2)
    n_plate_counts = len(plate_counts)
    n_components = len(config.component_lams_um)
    truths, component_truths = plate_count_states(
        input_v,
        [config.plate()] * n_plate_counts,
        config.profile,
        config.component_lams_um,
    )
    # per plate count n, the broadband set (seed key 1000 n), then the
    # component sets (keys 1000 n + 1 + index)
    width = 1 + n_components
    count_sets = generate_counts_batch(
        config.measurement_rows,
        np.concatenate([truths[:, None], component_truths], axis=1).reshape(-1, 2, 2),
        config.n_events,
        derive_seeds(config.seed, [1000 * n + j for n in plate_counts for j in range(width)]),
    )
    broadband = solve_likelihood_batch(
        count_sets[::width], ReconstructionConfig(rank=config.broadband_rank)
    )
    components = solve_likelihood_batch(
        [data for i, data in enumerate(count_sets) if i % width],
        ReconstructionConfig(rank=config.component_rank),
    )

    # plate count i's component estimates are the block i of the stack, and
    # its subsets index that block
    estimates = np.stack([r.estimate for r in components])
    subsets = [
        [i * n_components + j - 1 for j in subset]
        for i in range(n_plate_counts)
        for subset in config.subsets
    ]
    mixes = component_sum_states(estimates, np.tile(weights, n_plate_counts), subsets)
    mixes = mixes.reshape(n_plate_counts, -1, 2, 2)
    # one call each, a row per plate count: the stage-1, stage-2 and stage-3
    # fidelities, and the truth's and the component sums' entropies
    fidelities = fidelity(
        np.concatenate(
            [truths[:, None], component_truths, np.broadcast_to(truths[:, None], mixes.shape)],
            axis=1,
        ),
        np.concatenate(
            [
                np.stack([r.estimate for r in broadband])[:, None],
                estimates.reshape(n_plate_counts, n_components, 2, 2),
                mixes,
            ],
            axis=1,
        ),
    ).tolist()
    entropies = von_neumann_entropy(np.concatenate([truths[:, None], mixes], axis=1)).tolist()

    report: dict = {"config": config.to_dict(), "per_plate_count": {}}
    component_weights = weights.tolist()
    component_statuses = [_solve_status(r) for r in components]
    for i, n_plates in enumerate(plate_counts):
        fid, ent = fidelities[i], entropies[i]
        stage1 = {
            "truth_entropy_bits": ent[0],
            "reconstruction_fidelity": fid[0],
            **_solve_status(broadband[i]),
        }
        stage2 = [
            {"lam_um": lam, "weight": w, "fidelity_vs_pure_truth": f, **status}
            for lam, w, f, status in zip(
                config.component_lams_um,
                component_weights,
                fid[1 : 1 + n_components],
                component_statuses[i * n_components : (i + 1) * n_components],
            )
        ]
        stage3 = [
            {"subset": list(subset), "fidelity_vs_broadband": f, "entropy_bits": e}
            for subset, f, e in zip(config.subsets, fid[1 + n_components :], ent[1:])
        ]
        report["per_plate_count"][n_plates] = {
            "stage1": stage1,
            "stage2": stage2,
            "stage3": stage3,
        }
    return report


def _solve_status(res: ReconstructionResult) -> dict:
    return {
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "scoring_steps": res.scoring_steps,
        "fixed_point_steps": res.fixed_point_steps,
        "rejected_steps": res.rejected_steps,
    }


def run_retarder_fit(
    choi: np.ndarray,
    lam_um: float,
    thickness_um: float,
    min_dominant_share: float,
) -> dict:
    """Extract retarder orientation and birefringence from a reconstructed
    process that is approximately unitary.

    The dominant Kraus operator is projected onto SU(2) (polar projection,
    determinant normalized); refuses with a diagnostic when the dominant
    Choi eigenvalue share is below ``min_dominant_share``.
    """
    choi = np.asarray(choi, dtype=complex)
    choi = choi / choi.trace().real
    w, _ = hermitian_eig(choi)
    share = float(w[0] / w.sum())
    mixedness = 1.0 - share
    if share < min_dominant_share:
        raise EstimateTooMixedError(
            f"dominant eigenvalue share {share:.4f} < {min_dominant_share}; "
            "the process is too mixed for a single-retarder fit"
        )
    s = math.isqrt(choi.shape[0])
    dominant = kraus_from_chi(s * choi, tol=1e-12)[0]
    u_left, _, v_right = np.linalg.svd(dominant)
    unitary = u_left @ v_right
    unitary = unitary / np.sqrt(np.linalg.det(unitary))
    # plate_unitary matrices map to the (t, r) parameterization by
    # entrywise conjugation.
    g = SU2Retarder(complex(np.conj(unitary[0, 0])), complex(np.conj(unitary[0, 1])))
    delta, alpha, degenerate = fit_su2_retarder(g)
    return {
        "delta_rad": delta,
        "alpha_rad": alpha,
        "alpha_deg": float(np.rad2deg(alpha)),
        "birefringence": birefringence_from_delta(delta, lam_um, thickness_um),
        "degenerate": degenerate,
        "dominant_share": share,
        "mixedness": mixedness,
        "entropy_bits": von_neumann_entropy(choi),
    }
