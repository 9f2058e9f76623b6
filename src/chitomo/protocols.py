"""Tomographic protocol construction and Poisson count synthesis.

Measurement data travel as one ``Measurements`` record of arrays: m
Hermitian PSD intensity operators (m, d, d), and exposures and (after data
generation) observed counts, (m,) for one data set or (B, m) for B data
sets, the lanes of a batch.  For process tomography the operators act on
the composite (input (x) output) space and have the effective-projector
form ``|conj(c_in)><conj(c_in)| (x) |c_m><c_m|``; expected rates are traces
against the trace-1 Choi state, so a probability-1 outcome corresponds to
rate 1/s.  Auxiliary rows with the operator ``|conj(c_in)><conj(c_in)| (x)
I`` and virtual counts pin the trace-preservation constraint softly, at the
fixed weight ``AUXILIARY_WEIGHT``.  The record carries no mark of them:
they are fitted exactly like measured rows, and ``process_datasets`` puts
them after the protocol's rows, the order a reader of the rows relies on.
An event count must be an integer in 1..2**53 (``check_event_count``).

Counts are Poisson draws with a sampler built directly on the generator's
uniform stream (inversion below mean 30, transformed rejection above), so a
fixed seed gives bit-identical counts across platforms and numpy versions.
The sampler is one loop per count set on Python floats: it reads its
uniforms by index from a list fetched block by block, and takes each
rejection draw's constants from one array pass over the means.
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
    "IncompleteProtocolError",
    "check_event_count",
    "j4_states",
    "r4_states",
    "b4_states",
    "state_from_bloch",
    "bloch_vector",
    "bn_state_protocol",
    "process_protocol",
    "auxiliary_rows",
    "process_datasets",
    "generate_counts_batch",
]

# Central wavelength of the reference numerical experiments, micrometers.
LAMBDA_DEFAULT_UM = 1.1509
# Weight of the auxiliary rows: their exposure per unit of the protocol's
# total exposure.
AUXILIARY_WEIGHT = 10.0
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


# a field's check, called with the field's name and value
_Check = typing.Callable[[str, object], None]


def _check_integer(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, _INTEGER):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_optional_integer(name: str, value: object) -> None:
    if value is not None:
        _check_integer(name, value)


def _check_number(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # json reads NaN, +-Infinity and integers past the float range; no field means them
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    # numpy takes a Python int past int64 as an object, which its ufuncs refuse
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} must be a float or an integer within int64, got {value!r}")


def _check_choice(choices: tuple, name: str, value: object) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def _check_items(check_item: _Check | None, name: str, value: object) -> None:
    if not isinstance(value, (tuple, list)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    if check_item is not None:
        for i, item in enumerate(value):
            check_item(f"{name}[{i}]", item)


def _field_check(kind: object) -> _Check | None:
    # the check of a field annotated ``kind``; None for an annotation that
    # is not checked
    if kind is int:
        return _check_integer
    if kind == int | None:
        return _check_optional_integer
    if kind is float:
        return _check_number
    if typing.get_origin(kind) is typing.Literal:
        return functools.partial(_check_choice, typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        return functools.partial(_check_items, _field_check(typing.get_args(kind)[0]))
    return None


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
    ``int | None``) field must hold an integer, a ``float`` field a finite
    number (an integer one within int64), a ``Literal[...]`` field one of its
    values, element-wise in ``tuple[...]`` fields, and a ``seed`` must be
    >= 0; each error names the field.
    ``from_dict`` builds a config from parsed JSON.
    """

    def __post_init__(self) -> None:
        for name, kind in _field_types(type(self)).items():
            check = _field_check(kind)
            if check is not None:
                check(name, getattr(self, name))
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
    """Row j of a protocol: intensity operator ``operators[j]``, exposure
    and observed count (zero before data generation; float, so that
    noiseless expected counts fit).

    One data set, or a batch of B data sets (its lanes) over shared
    operators; shapes are checked on construction.  ``a + b`` concatenates
    the rows, a one-set block broadcast over the other's lanes.
    """

    operators: np.ndarray  # (m, d, d) complex, shared by every lane
    exposures: np.ndarray  # (m,) float, or (B, m) with a row per lane
    counts: np.ndarray | None = None  # the shape of exposures; None means all zero

    def __post_init__(self) -> None:
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:
            raise ValueError("operators must all have the same shape (d, d)") from None
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"operators must have shape (m, d, d), got {ops.shape}")
        m = len(ops)
        t = np.asarray(self.exposures, dtype=float)
        if t.ndim not in (1, 2) or t.shape[-1] != m:
            raise ValueError(f"exposures must have shape ({m},) or (B, {m}), got {t.shape}")
        k = np.zeros(t.shape) if self.counts is None else np.asarray(self.counts, dtype=float)
        if k.shape != t.shape:
            raise ValueError(f"counts must have shape {t.shape}, as exposures, got {k.shape}")
        for name, value in (("exposures", t), ("counts", k)):
            if not np.all(np.isfinite(value) & (value >= 0)):
                raise ValueError(f"{name} must be finite and >= 0")
        vars(self).update(operators=ops, exposures=t, counts=k)

    def lanes(self, index: int | slice | np.ndarray) -> "Measurements":
        """The lanes a numpy index selects (an int gives one data set), over
        the same operator array."""
        return Measurements(self.operators, self.exposures[index], self.counts[index])

    def __add__(self, other: "Measurements") -> "Measurements":
        lanes = np.broadcast_shapes(self.exposures.shape[:-1], other.exposures.shape[:-1])

        def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.concatenate([np.broadcast_to(x, lanes + x.shape[-1:]) for x in (a, b)], -1)

        return Measurements(
            np.concatenate([self.operators, other.operators]),
            join(self.exposures, other.exposures),
            join(self.counts, other.counts),
        )


@dataclass(frozen=True)
class ProcessProtocol:
    """The input states of a process protocol, which are also its measured
    projectors, and its rows."""

    input_states: list[np.ndarray]
    rows: Measurements


def check_event_count(n: int, name: str) -> None:
    """Raise ValueError naming the field ``name`` unless the total expected
    number of events n is an integer in 1..2**53 (each one a float exactly):
    the one check of every event count a config or a synthesis is given."""
    _check_integer(name, n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > 2**53:
        raise ValueError(f"{name} must be <= 2**53, got {n}")


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


def bn_state_protocol(
    n_orientations: int,
    plate_thickness_um: float = 312.7,
    lam_um: float = 1.0,
) -> Measurements:
    """Rows of the state protocol from N orientations of one plate with step
    180/N degrees.

    Row j projects onto the plate-rotated vertical polarizer,
    ``U(a_j)^+ |V><V| U(a_j)`` with a_j = j * 180/N degrees; exposures are
    uniform.  Degenerate plates (retardance a multiple of pi, which makes the
    plate act as the identity up to phase) are rejected, as are fewer than 4
    orientations.
    """
    if n_orientations < 4:
        raise IncompleteProtocolError(f"need at least 4 orientations, got {n_orientations}")
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
    return Measurements(ops, np.ones(n_orientations))


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron over the last two axes of broadcast stacks: the same one
    # multiply of the same operands, so the same bits as a kron per matrix
    p, q = a.shape[-2:]
    r, s = b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], p * r, q * s)


def _input_operators(states: np.ndarray) -> np.ndarray:
    # |conj(c_in)><conj(c_in)| of every input state, as np.outer(c.conj(), c)
    return states.conj()[:, :, None] * states[:, None, :]


def process_protocol(
    name: str, central_lam_um: float = LAMBDA_DEFAULT_UM
) -> ProcessProtocol:
    """16-row process protocol: every input state of the family against every
    projector of the same family.

    Row operators are ``|conj(c_in)><conj(c_in)| (x) |c_m><c_m|``, input
    states slow, built as one broadcast outer product; exposures are uniform
    placeholders, rescaled at data-generation time.
    """
    states = _protocol_states(name, central_lam_um)
    c = np.array(states)
    projectors = c[:, :, None] * c.conj()[:, None, :]
    ops = _kron_stack(_input_operators(c)[:, None], projectors[None])
    rows = Measurements(ops.reshape(-1, *ops.shape[2:]), np.ones(len(c) ** 2))
    return ProcessProtocol(input_states=states, rows=rows)


def auxiliary_rows(input_states: Sequence[np.ndarray], total_exposure: float) -> Measurements:
    """Trace-preservation rows: operator ``|conj(c_in)><conj(c_in)| (x) I``
    with exposure ``t = AUXILIARY_WEIGHT * total_exposure`` and the virtual
    count round(t/s) that a trace-preserving process would produce exactly."""
    if _affine_bloch_rank(input_states) < 4:
        raise IncompleteProtocolError("input states are not tomographically complete")
    c = np.array(input_states, dtype=complex)
    m, s = c.shape
    t_aux = AUXILIARY_WEIGHT * total_exposure
    return Measurements(
        _kron_stack(_input_operators(c), np.eye(s)),
        np.full(m, t_aux),
        np.full(m, round(t_aux / s)),
    )


def _check_means(means: np.ndarray) -> None:
    # the first bad mean in row-major order names the error
    bad = means[~(np.isfinite(means) & (means >= 0))]
    if bad.size:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {bad[0]}")


# the transformed rejection's (b, a, 1/alpha, v_r) of consecutive means
_RejectionConstants = typing.Iterator[tuple[float, float, float, float]]


def _rejection_constants(means: np.ndarray) -> _RejectionConstants:
    # (b, a, 1/alpha, v_r) of the transformed rejection for every checked
    # mean from 30 up, in row-major order, from one array pass; sqrt, +, *
    # and / are correctly rounded in numpy as in Python, so each equals its
    # scalar expression
    mu = means[means >= 30.0]
    b = 0.931 + 2.53 * np.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    return zip(b.tolist(), a.tolist(), inv_alpha.tolist(), v_r.tolist())


def _draw_counts(
    means: list[float],
    rng: np.random.Generator,
    block: int,
    rejection: _RejectionConstants,
) -> list[int]:
    # independent Poisson draws with the checked means, in order.  Each
    # draw consumes only rng.random() uniforms, in stream order: one by
    # inversion below mean 30, two per attempt of the transformed rejection
    # from 30 up, none for a zero mean.  The uniforms are read by index from
    # a list that grows by one rng.random(block) whenever the next draw needs
    # more; a block yields the same doubles as block scalar calls, so the
    # draws equal those of a draw-by-draw sampler, and the generator ends
    # past the last block, not at the last uniform used.  Each mean from 30
    # up takes the next constants from rejection.  i is the next uniform and
    # end the list's length: the first block is fetched by the first draw
    # that needs a uniform, as every later one
    uniforms, i, end = [], 0, 0
    counts = []
    for mu in means:
        if mu == 0.0:
            counts.append(0)
        elif mu < 30.0:
            # inversion: the first k with u <= P(X <= k), capped far out in
            # the tail
            if i == end:
                uniforms += rng.random(block).tolist()
                end += block
            u = uniforms[i]
            i += 1
            p = math.exp(-mu)
            cum = p
            k = 0
            k_max = int(mu + 60.0 * math.sqrt(mu) + 60.0)
            while u > cum and k < k_max:
                k += 1
                p *= mu / k
                cum += p
            counts.append(k)
        else:
            # transformed rejection with squeeze (Hormann 1993), exact for
            # mu >= 10
            b, a, inv_alpha, v_r = next(rejection)
            while True:
                if i + 2 > end:
                    uniforms += rng.random(block).tolist()
                    end += block
                u = uniforms[i] - 0.5
                v = uniforms[i + 1]
                i += 2
                us = 0.5 - abs(u)
                k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
                if us >= 0.07 and v <= v_r:
                    break
                if k < 0 or (us < 0.013 and v > us):
                    continue
                if math.log(v * inv_alpha / (a / (us * us) + b)) <= (
                    k * math.log(mu) - mu - math.lgamma(k + 1.0)
                ):
                    break
            counts.append(k)
    return counts


def generate_counts_batch(
    rows: Measurements,
    truths: np.ndarray | Sequence[np.ndarray],
    n_total: int,
    seeds: Sequence[int],
) -> Measurements:
    """Observed counts for the rows of a protocol, one count set per seed:
    a record of S lanes over the operator array of ``rows``.

    Lane s has the rates ``tr(Lambda_j rho)`` against the trace-1 truth
    ``truths[s]`` (state or Choi state); the uniform exposures are rescaled
    so that the total expected count equals n_total exactly, then each count
    is an independent Poisson draw from the generator seeded with
    ``seeds[s]``.  Each lane is the set drawn alone to the bit (tested).
    ``truths`` is a stack ``(S, d, d)`` with one seed per truth, or one truth
    ``(d, d)`` for every seed, which is read as that truth broadcast to
    ``(S, d, d)``: the same bits as the stack of S copies (tested), with the
    errors of a single set.  ``n_total`` must be an integer in 1..2**53.

    All truths' rates come from one ``(m*d, d) @ (S, d, d)`` product, the
    operators stacked row-block by row-block, whose diagonal blocks are then
    traced.  Each entry is the same length-d dot product as in the per-row
    ``np.trace(Lambda_j @ rho)``, so the rates equal the per-row ones to the
    bit; an einsum would move the last bit of some.  Each truth's total
    expected rate is the dot product ``np.dot`` takes of its rates and the
    exposures (a plain ``rates @ exposures`` moves the last bit).  All
    truths' means are checked at once, the first bad one naming the error,
    and the rejection constants of every truth's means from 30 up are
    computed in one pass.  Each set then draws from its own generator with
    one sampler loop on Python floats (inversion below mean 30, transformed
    rejection above), fetching uniforms in blocks of ``2 m + 16``, which
    cover every draw unless some rejection attempts fail, and the counts of
    all sets fill the ``(S, m)`` counts of the record.
    """
    check_event_count(n_total, "n_total")
    truths = np.asarray(truths, dtype=complex)
    # an error names its set only when the sets have different truths
    named = truths.ndim == 3 and len(truths) > 1
    if truths.ndim == 2:
        truths = np.broadcast_to(truths, (len(seeds), *truths.shape))
    elif len(seeds) != len(truths):
        raise ValueError(f"{len(seeds)} seeds for {len(truths)} truths")
    m, d, _ = rows.operators.shape
    products = (rows.operators.reshape(m * d, d) @ truths).reshape(len(truths), m, d, d)
    # np.maximum is the ufunc np.clip(..., 0.0, None) calls
    rates = np.maximum(products.trace(axis1=2, axis2=3).real, 0.0)
    base = (rates[:, None] @ rows.exposures[:, None])[:, 0, 0]
    for s, total in enumerate(base.tolist()):
        if not (math.isfinite(total) and total > 0):
            name = f"set {s}: " if named else ""
            raise ValueError(f"{name}total expected rate {total!r} is not usable")
    exposures = rows.exposures * (n_total / base)[:, None]
    means = rates * exposures
    _check_means(means)
    # one iterator over all sets' constants, in row-major order: each set
    # takes those of its own rows, in turn
    rejection = _rejection_constants(means)
    counts = [
        _draw_counts(set_means, np.random.default_rng(seed), 2 * m + 16, rejection)
        for set_means, seed in zip(means.tolist(), seeds)
    ]
    return Measurements(rows.operators, exposures, np.array(counts, float).reshape(means.shape))


def process_datasets(
    proto: ProcessProtocol, truth: np.ndarray, n_total: int, seeds: Sequence[int]
) -> Measurements:
    """The data sets of a process protocol, a lane for each of one or more
    seeds: first the ``len(proto.rows.operators)`` rows whose counts
    ``generate_counts_batch`` draws from one truth ``(d, d)``, then the
    protocol's auxiliary rows of weight ``AUXILIARY_WEIGHT``, one per input
    state, built once and broadcast over the lanes.  ``gen-data`` flags the
    auxiliary rows in ``data.json`` by this order.  Every lane has the same
    exposures, so ``t_aux = AUXILIARY_WEIGHT * sum(exposures)`` is one
    number, summed in row order (``np.sum`` adds pairwise, which can move
    the last bit of every output)."""
    counts = generate_counts_batch(proto.rows, truth, n_total, seeds)
    return counts + auxiliary_rows(proto.input_states, sum(counts.exposures[0]))
