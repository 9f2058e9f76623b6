"""Reproducible experiment campaigns: Monte-Carlo fidelity studies, loss
scaling in the sample size, the component-wise mixed-state workflow, and
retarder parameter extraction from reconstructed processes.

Determinism contract: a campaign is a pure function of its config (including
the seed).  Per-replication seeds are derived from the campaign seed with the
counter-based rule ``SeedSequence(seed, spawn_key=(index,))`` (the first
64-bit word of its ``generate_state``), so replications can run in any order
or in parallel without changing results; a scaling study's cells take theirs
by the same rule at ``spawn_key=(rank_index, n_index)``.

A Monte-Carlo campaign runs in one process and does once what is the same
for every replication: one truth, one protocol, one ``process_datasets``
call that draws every count set and adds one set of auxiliary rows, one
``solve_likelihood_batch`` call and one stacked ``fidelity`` call.  The data
sets are one ``Measurements`` record with a lane per replication, and the
solves one ``ReconstructionResult`` record with a row per replication,
whose columns the campaign's outputs are read from.  Each replication
draws from its own seeded generator, and a lane's result is bit-identical
to its lone solve, so the outputs equal those of one replication at a
time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Literal, Sequence

import numpy as np

from .ml_engine import (
    EIGEN_CUTOFF,
    ReconstructionConfig,
    ReconstructionResult,
    solve_likelihood_batch,
)
from .process_algebra import chi_from_kraus, kraus_from_chi, parameter_count
from .protocols import (
    LAMBDA_DEFAULT_UM,
    Config,
    Measurements,
    ProcessProtocolName,
    bn_state_protocol,
    check_event_count,
    generate_counts_batch,
    process_datasets,
    process_protocol,
)
from .quantum_core import fidelity, hermitian_eig, von_neumann_entropy
from .waveplate import (
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
# the plate counts of the mixed-state workflow's truths and report
_PLATE_COUNTS = (1, 2)
# the solve's fields of every mixed-workflow stage-1 and stage-2 entry
_STATUS_FIELDS = ("iterations", "stop_reason", "scoring_steps", "rejected_steps")
# the per-replication fields of CampaignResult.replications, in column order
REPLICATION_FIELDS = (
    "seed",
    "iterations",
    "stop_reason",
    "residual",
    "scoring_steps",
    "rejected_steps",
    "log_likelihood",
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

    kind: Literal["plate", "identity"] = "plate"
    rank: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rank is not None and not 1 <= self.rank <= 4:
            raise ValueError(f"rank must be in 1..4 or null, got {self.rank}")


@dataclass(frozen=True)
class _CampaignFields(Config):
    """The fields a Monte-Carlo campaign shares with a scaling study."""

    scenario: str = "plate-r4"
    protocol: ProcessProtocolName = "R4"
    truth: TruthSpec = field(default_factory=TruthSpec)
    replications: int = 50
    seed: int = 0
    max_iterations: int = ReconstructionConfig.max_iterations


@dataclass(frozen=True)
class CampaignConfig(_CampaignFields):
    n_events: int = 10_000
    reconstruction_rank: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        check_event_count(self.n_events, "n_events")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 1 <= self.reconstruction_rank <= 4:
            raise ValueError("reconstruction rank must be in [1, 4]")
        _solver_config(self)  # checks max_iterations


@dataclass(frozen=True)
class ScalingConfig(_CampaignFields):
    """A campaign per (rank, sample size) cell of the scaling study."""

    n_list: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6)
    ranks: tuple[int, ...] = (2, 4)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.n_list) < 3:
            raise ValueError(f"n_list must hold at least 3 sample sizes, got {len(self.n_list)}")
        for i, n in enumerate(self.n_list):
            check_event_count(n, f"n_list[{i}]")
        if not self.ranks:
            raise ValueError("ranks must not be empty")
        for i, rank in enumerate(self.ranks):
            if not 1 <= rank <= 4:
                raise ValueError(f"ranks[{i}] must be in 1..4, got {rank}")
            if rank in self.ranks[:i]:
                raise ValueError(f"ranks[{i}] repeats rank {rank}; each rank runs one study")
        self.cell(self.ranks[0], self.n_list[0], self.seed)  # the checks of every cell

    def cell(self, rank: int, n: int, seed: int) -> CampaignConfig:
        """The campaign of a cell: its seed, n_events n and reconstruction_rank rank."""
        shared = {f.name: getattr(self, f.name) for f in fields(_CampaignFields)}
        return CampaignConfig(**{**shared, "seed": seed}, n_events=n, reconstruction_rank=rank)


@dataclass(frozen=True)
class CampaignResult:
    fidelities: np.ndarray  # per replication, capped solves' included
    mean_loss: float
    failures: list[int]  # the replications whose solve stopped at the iteration cap
    failure_reasons: dict[int, str]  # failed replication -> its stop, iterations and residual
    histogram: dict  # bin_left / bin_right / count arrays
    info_spectrum: np.ndarray
    info_modes_above_cut: int
    nu: int  # the model's data modes, parameter_count(2, reconstruction_rank)
    metadata: dict
    # per replication, in index order: derived seed and the solve's
    # iterations, stop reason, residual, step counts and log-likelihood
    replications: list[dict]


def _spawned_seed(seed: int, *spawn_key: int) -> int:
    # the documented seed rule: the first 64-bit word of the SeedSequence
    # spawned from seed at spawn_key; a negative value raises ValueError
    state = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(1, np.uint64)
    return int(state[0])


def derive_seeds(campaign_seed: int, keys: Sequence[int]) -> list[int]:
    """Counter-based per-replication seeds (documented derivation rule): for
    every key, in order, the first 64-bit word of ``SeedSequence(
    campaign_seed, spawn_key=(key,)).generate_state``.  A negative seed or
    key raises ValueError."""
    return [_spawned_seed(campaign_seed, key) for key in keys]


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
        rank=config.reconstruction_rank, max_iterations=config.max_iterations
    )


def _solve_replications(
    config: CampaignConfig, truth: np.ndarray, seeds: list[int]
) -> ReconstructionResult:
    # the record of the campaign's batch, a lane per replication
    proto = process_protocol(config.protocol, config.truth.lam0_um)
    data = process_datasets(proto, truth, config.n_events, seeds)
    return solve_likelihood_batch(data, _solver_config(config))


def _lane_fields(record: ReconstructionResult, names: Sequence[str]) -> list[dict]:
    # each lane's fields names as Python values
    columns = [getattr(record, name).tolist() for name in names]
    return [dict(zip(names, row)) for row in zip(*columns)]


def run_mc_campaign(config: CampaignConfig) -> CampaignResult:
    """Generate -> reconstruct -> fidelity for every replication.

    A replication enters the mean loss and the histogram when its solve
    converged, i.e. stopped on the residual or on stationarity (stop reason
    ``"residual"`` or ``"stationary"``).  It fails when its solve stopped
    at the iteration cap; failures are listed in ``failures`` with their
    stop in ``failure_reasons``, and their fidelity slot holds the capped
    estimate's fidelity.

    The campaign runs in one process: one synthesis of every count set,
    one set of auxiliary rows, one ``solve_likelihood_batch`` call with a
    lane per replication and one stacked ``fidelity`` call over the lanes.
    Each replication draws from its own seeded generator and a lane's
    result is that of its lone solve, so every output bit is that of one
    replication at a time.  A synthesis or set-up error raises.  A solver
    estimate is ``c c^+`` over its trace at a finite c, so the fidelity
    call does not raise on it.
    """
    truth = build_truth(config.truth)
    seeds = derive_seeds(config.seed, range(config.replications))
    record = _solve_replications(config, truth, seeds)
    fidelities = fidelity(truth, record.estimate)
    failures = np.flatnonzero(~record.converged).tolist()
    failure_reasons = {
        i: f"not converged: {record.stop_reason[i]} after {record.iterations[i]} "
        f"iterations, residual {record.residual[i]:.3e}"
        for i in failures
    }
    statuses = _lane_fields(record, REPLICATION_FIELDS[1:])
    replications = [{"seed": seed, **status} for seed, status in zip(seeds, statuses)]
    info_spectrum = record.info_spectrum[0]  # replication 0's

    losses = 1.0 - np.delete(fidelities, failures)
    mean_loss = float(losses.mean()) if losses.size else math.nan
    if losses.size:
        lo, hi = float(losses.min()), float(losses.max())
        hi = hi if hi > lo else lo + 1e-12
        counts, edges = np.histogram(losses, bins=HISTOGRAM_BINS, range=(lo, hi))
    else:
        counts, edges = np.zeros(HISTOGRAM_BINS, int), np.linspace(0, 1, HISTOGRAM_BINS + 1)
    # F's range as ml_engine defines it
    modes_above = int(np.sum(info_spectrum > EIGEN_CUTOFF * info_spectrum[0]))
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
        nu=parameter_count(2, config.reconstruction_rank),
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
    one campaign per (rank, n) cell of ``config.ranks`` x ``config.n_list``,
    each cell's failed replications counted in ``n_failures``."""
    n_list = list(config.n_list)
    study: dict = {"n_list": n_list, "per_rank": {}}
    for rank_idx, rank in enumerate(config.ranks):
        means, n_failures = [], []
        for n_idx, n in enumerate(n_list):
            cell_seed = _spawned_seed(config.seed, rank_idx, n_idx)
            result = run_mc_campaign(config.cell(rank, n, cell_seed))
            means.append(result.mean_loss)
            n_failures.append(len(result.failures))
        slope, intercept = np.polyfit(np.log10(n_list), np.log10(means), 1)
        study["per_rank"][rank] = {
            "mean_loss": means,
            "n_failures": n_failures,
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
        super().__post_init__()
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
                if not 1 <= i <= n_components:
                    raise ValueError(
                        f"subsets[{k}]: index {i} outside 1..{n_components} "
                        "(1-based into component_lams_um)"
                    )
        check_event_count(self.n_events, "n_events")
        for name in ("component_rank", "broadband_rank"):
            rank = getattr(self, name)
            if not 1 <= rank <= 2:
                raise ValueError(f"{name} must be in 1..2 (a polarization state), got {rank}")
        self.truth_states  # builds the truths: the plate, spectrum and component checks
        self.measurement_rows  # builds the protocol: its count and completeness checks

    def plate(self) -> WaveplateSpec:
        return WaveplateSpec(self.plate_thickness_um, np.deg2rad(self.plate_alpha_deg))

    @functools.cached_property
    def profile(self) -> SpectralProfile:
        """The sinc^2 spectrum of the broadband light, built once per config,
        when the config is checked."""
        return sinc2_profile(self.lam0_um, self.fwhm_um, self.knots, self.span)

    @functools.cached_property
    def truth_states(self) -> tuple[np.ndarray, np.ndarray]:
        """``plate_count_states`` of vertical polarization behind 1 and 2
        plates under the config's spectrum and at its component wavelengths,
        built once per config, when the config is checked."""
        return plate_count_states(
            np.array([0.0, 1.0], dtype=complex),
            [self.plate()] * len(_PLATE_COUNTS),
            self.profile,
            self.component_lams_um,
        )

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
    truths of both plate counts are the config's ``truth_states``, one
    ``plate_count_states`` pass made when the config is checked, all 16
    count sets, the lanes of one record, from one ``generate_counts_batch``
    call over the config's ``measurement_rows``, the solves from two batches
    of its lanes (the broadband ones at ``broadband_rank``, the component
    ones at ``component_rank``), the component sums of both plate counts
    from one ``component_sum_states`` call, and all fidelities and entropies
    from one stacked call each; the per-plate-count blocks of the report are
    sliced from those, the solve statuses from the records' columns.  A count
    set that fails its solve's set-up raises, naming its lane of the batch.
    """
    # the spectral shape at each component wavelength, 1 at the centre
    weights = sinc2_weights(np.asarray(config.component_lams_um), config.lam0_um, config.fwhm_um)
    n_plate_counts = len(_PLATE_COUNTS)
    n_components = len(config.component_lams_um)
    truths, component_truths = config.truth_states
    # per plate count n, the broadband set (seed key 1000 n), then the
    # component sets (keys 1000 n + 1 + index)
    width = 1 + n_components
    count_sets = generate_counts_batch(
        config.measurement_rows,
        np.concatenate([truths[:, None], component_truths], axis=1).reshape(-1, 2, 2),
        config.n_events,
        derive_seeds(config.seed, [1000 * n + j for n in _PLATE_COUNTS for j in range(width)]),
    )
    is_broadband = np.arange(n_plate_counts * width) % width == 0
    broadband = solve_likelihood_batch(
        count_sets.lanes(is_broadband), ReconstructionConfig(rank=config.broadband_rank)
    )
    components = solve_likelihood_batch(
        count_sets.lanes(~is_broadband), ReconstructionConfig(rank=config.component_rank)
    )

    # plate count i's component estimates are the block i of the stack, and
    # its subsets index that block
    estimates = components.estimate
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
                broadband.estimate[:, None],
                estimates.reshape(n_plate_counts, n_components, 2, 2),
                mixes,
            ],
            axis=1,
        ),
    ).tolist()
    entropies = von_neumann_entropy(np.concatenate([truths[:, None], mixes], axis=1)).tolist()

    report: dict = {"config": config.to_dict(), "per_plate_count": {}}
    component_weights = weights.tolist()
    broadband_statuses = _lane_fields(broadband, _STATUS_FIELDS)
    component_statuses = _lane_fields(components, _STATUS_FIELDS)
    for i, n_plates in enumerate(_PLATE_COUNTS):
        fid, ent = fidelities[i], entropies[i]
        stage1 = {
            "truth_entropy_bits": ent[0],
            "reconstruction_fidelity": fid[0],
            **broadband_statuses[i],
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
