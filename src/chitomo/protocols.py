"""Tomographic protocol construction and Poisson count synthesis.

Measurement data travel as one ``Measurements`` record of arrays: m
Hermitian PSD intensity operators (m, d, d), their exposures and (after data
generation) observed counts (m,), and a mask of the auxiliary rows.  For
process tomography the operators act on the composite (input (x) output)
space and have the effective-projector form ``|conj(c_in)><conj(c_in)| (x)
|c_m><c_m|``; expected rates are traces against the trace-1 Choi state, so a
probability-1 outcome corresponds to rate 1/s.  Auxiliary rows with the
operator ``|conj(c_in)><conj(c_in)| (x) I`` and virtual counts pin the
trace-preservation constraint softly.

Counts are Poisson draws with a sampler built directly on the generator's
uniform stream (inversion below mean 30, transformed rejection above), so a
fixed seed gives bit-identical counts across platforms and numpy versions.
The sampler runs on Python floats and fetches its uniforms in blocks.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .waveplate import WaveplateSpec, optical_thickness, plate_unitary

__all__ = [
    "Measurements",
    "ProcessProtocol",
    "StateProtocol",
    "ExperimentPlan",
    "IncompleteProtocolError",
    "j4_states",
    "r4_states",
    "b4_states",
    "state_from_bloch",
    "bloch_vector",
    "check_orientation_count",
    "bn_state_protocol",
    "process_protocol",
    "auxiliary_rows",
    "generate_counts",
    "generate_counts_batch",
    "poisson_counts",
]

# Central wavelength of the reference numerical experiments, micrometers.
LAMBDA_DEFAULT_UM = 1.1509
ProcessProtocolName = typing.Literal["J4", "R4", "B4"]

_V = np.array([0.0, 1.0], dtype=complex)


class IncompleteProtocolError(ValueError):
    """The measurement set cannot identify the model parameters."""


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_INTEGER = (int, np.integer)  # a bool is neither an integer nor a number here
_NUMBER = (int, float, np.integer, np.floating)


def _check_field(name: str, kind: object, value: object) -> None:
    if kind is int or (kind == int | None and value is not None):
        if isinstance(value, bool) or not isinstance(value, _INTEGER):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, _NUMBER):
            raise ValueError(f"{name} must be a number, got {value!r}")
    elif typing.get_origin(kind) is typing.Literal:
        if value not in typing.get_args(kind):
            choices = ", ".join(typing.get_args(kind))
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    elif typing.get_origin(kind) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_field(f"{name}[{i}]", typing.get_args(kind)[0], item)


def _from_json(name: str, kind: object, value: object) -> object:
    if isinstance(kind, type) and issubclass(kind, Config):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        return kind.from_dict(value)
    if typing.get_origin(kind) is tuple and isinstance(value, (list, tuple)):
        return tuple(_from_json(name, typing.get_args(kind)[0], item) for item in value)
    return value


class Config:
    """Base of the frozen config dataclasses.

    Construction checks every field against its annotation: an ``int`` (or
    ``int | None``) field must hold an integer, a ``float`` field a number,
    a ``Literal[...]`` field one of its values, element-wise in ``tuple[...]``
    fields, and a ``seed`` must be >= 0; each error names the field.
    ``from_dict`` builds a config from parsed JSON.
    """

    def __post_init__(self) -> None:
        for name, kind in _field_types(type(self)).items():
            _check_field(name, kind, getattr(self, name))
        if getattr(self, "seed", 0) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """Reject unknown keys, build nested configs from their objects and
        turn lists into tuples; omitted keys take the defaults."""
        types = _field_types(cls)
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(map(repr, unknown))} for {cls.__name__}"
            )
        return cls(**{k: _from_json(k, types[k], v) for k, v in data.items()})

    def to_dict(self) -> dict:
        """The fields by name, a nested config as its own dict; every other
        value as it is (tuples stay tuples), as ``dataclasses.asdict`` gives
        them but without its deep copy."""
        out = {}
        for name in _field_types(type(self)):
            value = getattr(self, name)
            out[name] = value.to_dict() if isinstance(value, Config) else value
        return out


@dataclass(frozen=True, eq=False)
class Measurements:
    """Row j of a protocol: intensity operator ``operators[j]``, exposure,
    observed count (zero before data generation; float, so that noiseless
    expected counts fit) and whether it is an auxiliary row.

    Shapes are checked on construction; ``a + b`` concatenates the rows.
    """

    operators: np.ndarray  # (m, d, d) complex
    exposures: np.ndarray  # (m,) float
    counts: np.ndarray | None = None  # (m,) float; None means all zero
    auxiliary: np.ndarray | None = None  # (m,) bool; None means none

    def __post_init__(self) -> None:
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:
            raise ValueError("operators must all have the same shape (d, d)") from None
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"operators must have shape (m, d, d), got {ops.shape}")
        m = len(ops)
        object.__setattr__(self, "operators", ops)
        for name, dtype in (("exposures", float), ("counts", float), ("auxiliary", bool)):
            value = getattr(self, name)
            value = np.zeros(m, dtype) if value is None else np.asarray(value, dtype)
            if value.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {value.shape}")
            if dtype is float and not np.all(np.isfinite(value) & (value >= 0)):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, value)

    def __add__(self, other: "Measurements") -> "Measurements":
        return Measurements(
            np.concatenate([self.operators, other.operators]),
            np.concatenate([self.exposures, other.exposures]),
            np.concatenate([self.counts, other.counts]),
            np.concatenate([self.auxiliary, other.auxiliary]),
        )


@dataclass(frozen=True)
class ProcessProtocol:
    name: str
    input_states: list[np.ndarray]
    projectors: list[np.ndarray]
    rows: Measurements


@dataclass(frozen=True)
class StateProtocol:
    name: str
    rows: Measurements


@dataclass(frozen=True)
class ExperimentPlan(Config):
    """Total expected number of events, RNG seed and auxiliary-row weight."""

    n_total: int
    seed: int
    auxiliary_weight: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.check(self.n_total, self.auxiliary_weight)

    @staticmethod
    def check(n_total: int, auxiliary_weight: float, name: str = "n_total") -> None:
        """Raise the error a plan with these values raises, naming n_total
        ``name``: a config checks its ``n_events`` with this before any plan
        is built."""
        if n_total < 1:
            raise ValueError(f"{name} must be >= 1, got {n_total}")
        if auxiliary_weight <= 0:
            raise ValueError(f"auxiliary_weight must be positive, got {auxiliary_weight}")


def j4_states() -> list[np.ndarray]:
    """|H>, |V>, |-45deg> = (|H>-|V>)/sqrt2 and |L> = (|H>-i|V>)/sqrt2."""
    h = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    return [h, v, (h - v) / np.sqrt(2), (h - 1j * v) / np.sqrt(2)]


def state_from_bloch(a: np.ndarray) -> np.ndarray:
    """Pure qubit state with Bloch vector a (unit 3-vector)."""
    ax, ay, az = np.asarray(a, dtype=float)
    theta = np.arccos(np.clip(az, -1.0, 1.0))
    phi = np.arctan2(ay, ax)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def bloch_vector(psi: np.ndarray) -> np.ndarray:
    """Expectation values of (sigma_x, sigma_y, sigma_z)."""
    a, b = np.asarray(psi, dtype=complex).ravel()
    return np.array(
        [2 * np.real(np.conj(a) * b), 2 * np.imag(np.conj(a) * b), abs(a) ** 2 - abs(b) ** 2]
    )


def r4_states() -> list[np.ndarray]:
    """Tetrahedral state set: Bloch vectors (+-1, +-1, +-1)/sqrt3 with an even
    number of minus signs, pairwise dot products -1/3."""
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return [state_from_bloch(v) for v in vertices]


def b4_states(central_lam_um: float = LAMBDA_DEFAULT_UM) -> list[np.ndarray]:
    """States made by rotating a 214 um plate to 0, 15, 30, 45 degrees in
    front of vertical polarization."""
    plate = WaveplateSpec(214.0, 0.0)
    delta = optical_thickness(plate, central_lam_um)
    return [
        plate_unitary(delta, np.deg2rad(angle)) @ _V for angle in (0.0, 15.0, 30.0, 45.0)
    ]


def _protocol_states(name: str, central_lam_um: float) -> list[np.ndarray]:
    if name not in typing.get_args(ProcessProtocolName):
        raise ValueError(f"unknown protocol {name!r}; expected J4, R4 or B4")
    if name == "J4":
        return j4_states()
    if name == "R4":
        return r4_states()
    return b4_states(central_lam_um)


def _affine_bloch_rank(states: Sequence[np.ndarray]) -> int:
    rows = np.array([[1.0, *bloch_vector(s)] for s in states])
    return int(np.linalg.matrix_rank(rows, tol=1e-8))


def check_orientation_count(n_orientations: int) -> None:
    """Raise IncompleteProtocolError when a BN protocol has too few
    orientations to be tomographically complete."""
    if n_orientations < 4:
        raise IncompleteProtocolError(f"need at least 4 orientations, got {n_orientations}")


def bn_state_protocol(
    n_orientations: int,
    plate_thickness_um: float = 312.7,
    lam_um: float = 1.0,
) -> StateProtocol:
    """State protocol from N orientations of one plate with step 180/N degrees.

    Row j projects onto the plate-rotated vertical polarizer,
    ``U(a_j)^+ |V><V| U(a_j)`` with a_j = j * 180/N degrees; exposures are
    uniform.  Degenerate plates (retardance a multiple of pi, which makes the
    plate act as the identity up to phase) are rejected.
    """
    check_orientation_count(n_orientations)
    delta = optical_thickness(WaveplateSpec(plate_thickness_um, 0.0), lam_um)
    u = plate_unitary(delta, np.arange(n_orientations) * np.pi / n_orientations)
    ops = u.conj().swapaxes(1, 2) @ np.outer(_V, _V.conj()) @ u
    coords = np.stack(
        [ops[:, 0, 0].real, ops[:, 1, 1].real, ops[:, 0, 1].real, ops[:, 0, 1].imag], axis=1
    )
    if np.linalg.matrix_rank(coords, tol=1e-8) < 4:
        raise IncompleteProtocolError(
            f"B{n_orientations} with plate retardance {delta:.4f} rad is "
            "tomographically incomplete (plate acts as identity up to phase)"
        )
    return StateProtocol(
        name=f"B{n_orientations}", rows=Measurements(ops, np.ones(n_orientations))
    )


def process_protocol(
    name: str, central_lam_um: float = LAMBDA_DEFAULT_UM
) -> ProcessProtocol:
    """16-row process protocol: every input state of the family against every
    projector of the same family.

    Row operators are ``|conj(c_in)><conj(c_in)| (x) |c_m><c_m|``; exposures
    are uniform placeholders, rescaled at data-generation time.
    """
    states = _protocol_states(name, central_lam_um)
    ops = [
        np.kron(np.outer(c_in.conj(), c_in), np.outer(c_m, c_m.conj()))
        for c_in in states
        for c_m in states
    ]
    rows = Measurements(ops, np.ones(len(ops)))
    return ProcessProtocol(name=name, input_states=states, projectors=states, rows=rows)


def auxiliary_rows(
    input_states: Sequence[np.ndarray], total_exposure: float, weight: float = 10.0
) -> Measurements:
    """Trace-preservation rows: operator ``|conj(c_in)><conj(c_in)| (x) I``
    with exposure weight*total_exposure and the virtual count round(t/s) that
    a trace-preserving process would produce exactly."""
    if _affine_bloch_rank(input_states) < 4:
        raise IncompleteProtocolError("input states are not tomographically complete")
    s = input_states[0].size
    t_aux = weight * total_exposure
    m = len(input_states)
    return Measurements(
        [np.kron(np.outer(c_in.conj(), c_in), np.eye(s)) for c_in in input_states],
        np.full(m, t_aux),
        np.full(m, round(t_aux / s)),
        np.ones(m, bool),
    )


def _uniform_stream(rng: np.random.Generator, block: int) -> typing.Iterator[float]:
    # rng.random() values in stream order, fetched block by block:
    # rng.random(n) yields the same doubles as n scalar calls
    while True:
        yield from rng.random(block).tolist()


def _poisson_inversion(mu: float, uniform: typing.Callable[[], float]) -> int:
    p = math.exp(-mu)
    cum = p
    k = 0
    u = uniform()
    k_max = int(mu + 60.0 * math.sqrt(mu) + 60.0)
    while u > cum and k < k_max:
        k += 1
        p *= mu / k
        cum += p
    return k


def _poisson_ptrs(mu: float, uniform: typing.Callable[[], float]) -> int:
    # Transformed rejection with squeeze (Hormann 1993); exact for mu >= 10.
    log_mu = math.log(mu)
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= k * log_mu - mu - math.lgamma(
            k + 1.0
        ):
            return k


def poisson_counts(means: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Independent Poisson draws with the given means, in order.

    Each draw consumes only ``rng.random()`` uniforms, in stream order: one
    by inversion below mean 30, two per attempt of the transformed rejection
    from 30 up, none for a zero mean.  The uniforms are fetched in blocks of
    ``rng.random(n)``, which yields the same stream as one call per uniform,
    so the draws equal those of a draw-by-draw sampler; the generator ends
    past the last block, not at the last uniform used.
    """
    means = np.asarray(means, dtype=float)
    bad = means[~(np.isfinite(means) & (means >= 0))]
    if bad.size:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {bad[0]}")
    # one uniform per inversion draw and two per rejection attempt: the
    # first block covers the draws unless some attempts are rejected
    block = np.count_nonzero(means) + np.count_nonzero(means >= 30.0) + 16
    uniform = _uniform_stream(rng, int(block)).__next__
    counts = []
    for mu in means.tolist():
        if mu == 0.0:
            counts.append(0)
        elif mu < 30.0:
            counts.append(_poisson_inversion(mu, uniform))
        else:
            counts.append(_poisson_ptrs(mu, uniform))
    return counts


def generate_counts(
    rows: Measurements, truth: np.ndarray, plan: ExperimentPlan
) -> Measurements:
    """Fill observed counts for the non-auxiliary rows of a protocol.

    Rates are ``tr(Lambda_j rho)`` against the trace-1 truth (state or Choi
    state); uniform exposures are rescaled so the total expected count equals
    plan.n_total exactly, then each count is an independent Poisson draw from
    the generator seeded with plan.seed.  This is a batch of one of
    :func:`generate_counts_batch`.
    """
    return generate_counts_batch(rows, [truth], plan.n_total, [plan.seed])[0]


def generate_counts_batch(
    rows: Measurements, truths: Sequence[np.ndarray], n_total: int, seeds: Sequence[int]
) -> list[Measurements]:
    """``generate_counts`` for several truths over one protocol: count set s
    is ``generate_counts(rows, truths[s], ExperimentPlan(n_total,
    seeds[s]))``, to the bit (tested), and every set shares the operator
    array of ``rows``.

    All sets' rates come from one ``(m*d, d) @ (S, d, d)`` product, the
    operators stacked row-block by row-block, whose diagonal blocks are then
    traced.  Each entry is the same length-d dot product as in the per-row
    ``np.trace(Lambda_j @ rho)``, so the rates equal the per-row ones to the
    bit; an einsum would move the last bit of some.  Each set's total
    expected rate is the dot product ``np.dot`` takes of its rates and the
    exposures (a plain ``rates @ exposures`` moves the last bit), and each
    set draws from its own generator with the scalar-stream sampler of
    :func:`poisson_counts`.
    """
    truths = np.asarray(truths, dtype=complex)
    if rows.auxiliary.any():
        raise ValueError("generate_counts expects only non-auxiliary rows")
    n_sets = len(truths)
    if len(seeds) != n_sets:
        raise ValueError(f"{len(seeds)} seeds for {n_sets} truths")
    m, d, _ = rows.operators.shape
    products = (rows.operators.reshape(m * d, d) @ truths).reshape(n_sets, m, d, d)
    rates = np.clip(np.trace(products, axis1=2, axis2=3).real, 0.0, None)
    base = (rates[:, None] @ rows.exposures[:, None])[:, 0, 0]
    for s, total in enumerate(base.tolist()):
        if not (math.isfinite(total) and total > 0):
            name = f"set {s}: " if n_sets > 1 else ""
            raise ValueError(f"{name}total expected rate {total!r} is not usable")
    exposures = rows.exposures * (n_total / base)[:, None]
    means = rates * exposures
    return [
        _with_counts(rows, exposures[s], poisson_counts(means[s], np.random.default_rng(seed)))
        for s, seed in enumerate(seeds)
    ]


def _with_counts(rows: Measurements, exposures: np.ndarray, counts: list[int]) -> Measurements:
    # rows with drawn exposures and counts, skipping the checks of
    # construction, which they pass: the exposures are >= 0 and finite (an
    # infinite one gives an infinite mean, and its draw raises first) and
    # the counts are non-negative integers
    data = object.__new__(Measurements)
    for name, value in (
        ("operators", rows.operators),
        ("exposures", exposures),
        ("counts", np.array(counts, dtype=float)),
        ("auxiliary", rows.auxiliary),
    ):
        object.__setattr__(data, name, value)
    return data
