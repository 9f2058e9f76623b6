"""Forward physics of dispersive quartz retarders.

A retardant plate of geometric thickness h acts on the polarization qubit as
the SU(2) rotation ``U = I cos(delta) - i (sigma . n) sin(delta)`` with axis
``n = (sin 2a, 0, cos 2a)`` (a = angle between the optical axis and vertical)
and optical thickness ``delta = pi dn h / lambda``.  Quartz birefringence
``dn = n_o - n_e`` is negative in the transparency window used here; the
signed value is what the Choi-state construction uses, while
:func:`optical_thickness` reports the magnitude, which is the quantity entering
protocol geometry and retarder fits.

Broadband light turns the per-wavelength pure transformations into incoherent
mixtures: the plate's Choi state is the spectral-weight average of the
vectorized unitaries, which is why a single plate always has process rank 2.
:func:`broadband_mixed_state` evaluates the dispersion, the unitaries and the
spectral average over all knots in one array pass; its weighted sum runs in a
different order than a knot-by-knot sum, so results differ from one at the
1e-15 level.  :func:`plate_count_states` gives the states behind 1..P plates
from one pass over the plates, equal to the bit to one call per plate count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "WaveplateSpec",
    "SpectralProfile",
    "SU2Retarder",
    "quartz_indices",
    "check_quartz_window",
    "optical_thickness",
    "axis_from_orientation",
    "plate_unitary",
    "sinc2_profile",
    "sinc2_weights",
    "plate_choi_state",
    "fit_su2_retarder",
    "birefringence_from_delta",
    "broadband_mixed_state",
    "plate_count_states",
    "component_sum_states",
]

# Validity window of the quartz dispersion formulas, micrometers.
QUARTZ_LAMBDA_MIN = 0.2
QUARTZ_LAMBDA_MAX = 3.0

# sinc(x)**2 falls to 1/2 at x = a; maps the profile scale to its FWHM.
SINC_HALF_POWER = 1.391557

# Plates thinner than this are treated as non-dispersive: they transform the
# whole spectrum with the central-wavelength unitary.
THIN_PLATE_LIMIT_UM = 1000.0

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class WaveplateSpec:
    """Geometric thickness (micrometers) and optical-axis orientation
    (radians from vertical) of one quartz retardant plate."""

    thickness_um: float
    alpha_rad: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.thickness_um) and self.thickness_um >= 0):
            raise ValueError(f"thickness must be finite and >= 0, got {self.thickness_um}")


@dataclass(frozen=True)
class SpectralProfile:
    """Wavelength knots (micrometers, strictly increasing) with nonnegative
    weights normalized to unit sum."""

    wavelengths: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.wavelengths, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "wavelengths", lam)
        object.__setattr__(self, "weights", w)
        if lam.ndim != 1 or lam.shape != w.shape:
            raise ValueError("wavelengths and weights must be 1-D and equally long")
        if lam.size > 1 and not np.all(np.diff(lam) > 0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    def __len__(self) -> int:
        return self.wavelengths.size


@dataclass(frozen=True)
class SU2Retarder:
    """Complex pair (t, r) of the unimodular retarder matrix
    [[t, r], [-conj(r), conj(t)]]."""

    t: complex
    r: complex

    def __post_init__(self) -> None:
        norm = abs(self.t) ** 2 + abs(self.r) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"|t|^2 + |r|^2 = {norm!r} is not 1")


def quartz_indices(lam_um: float) -> tuple[float, float]:
    """Ordinary and extraordinary refractive indices of crystalline quartz.

    Three-term dispersion formulas, wavelength in micrometers, valid for
    0.2 < lam < 3.  Quartz is positive uniaxial here: n_e > n_o.
    """
    if not QUARTZ_LAMBDA_MIN < lam_um < QUARTZ_LAMBDA_MAX:
        raise _window_error(lam_um)
    n_o, n_e = _sellmeier(lam_um * lam_um)
    return float(n_o), float(n_e)


def _window_error(lam_um: float) -> ValueError:
    return ValueError(
        f"wavelength {lam_um} um outside quartz dispersion window "
        f"({QUARTZ_LAMBDA_MIN}, {QUARTZ_LAMBDA_MAX})"
    )


def _sellmeier(l2):
    # (n_o, n_e) from the squared wavelength; scalars or arrays elementwise.
    n_o = np.sqrt(1.30979 + 1.04683 * l2 / (l2 - 0.01025) + 1.20328 * l2 / (l2 - 108.584))
    n_e = np.sqrt(1.32888 + 1.05487 * l2 / (l2 - 0.01053) + 0.97121 * l2 / (l2 - 84.261))
    return n_o, n_e


def check_quartz_window(lam_um: np.ndarray) -> None:
    """Raise the error of quartz_indices for the first wavelength outside
    the dispersion window, if any."""
    inside = (lam_um > QUARTZ_LAMBDA_MIN) & (lam_um < QUARTZ_LAMBDA_MAX)
    if not np.all(inside):
        raise _window_error(float(lam_um[np.argmin(inside)]))


def optical_thickness(spec: WaveplateSpec, lam_um: float) -> float:
    """Optical thickness delta = pi |dn| h / lambda, radians (magnitude)."""
    n_o, n_e = quartz_indices(lam_um)
    return np.pi * abs(n_e - n_o) * spec.thickness_um / lam_um


def axis_from_orientation(alpha_rad: float | np.ndarray) -> np.ndarray:
    """Rotation axis (sin 2a, 0, cos 2a) of a plate at orientation a; an
    array of orientations gives one axis per orientation, (..., 3)."""
    two_a = 2 * np.asarray(alpha_rad, dtype=float)
    axis = np.zeros((*two_a.shape, 3))
    axis[..., 0], axis[..., 2] = np.sin(two_a), np.cos(two_a)
    return axis


def _rotations(delta: float | np.ndarray, axes: np.ndarray) -> np.ndarray:
    # the SU(2) rotations ``I cos(delta) - i (sigma . n) sin(delta)``, delta
    # (...) and unit axes n (..., 3) broadcast against each other: one angle
    # about a stack of axes, or a stack of angles about one axis
    sigma_n = np.tensordot(axes, _SIGMA, axes=1)
    delta = np.asarray(delta)[..., None, None]
    return np.cos(delta) * np.eye(2, dtype=complex) - 1j * np.sin(delta) * sigma_n


def plate_unitary(delta: float, alpha_rad: float | np.ndarray) -> np.ndarray:
    """Retarder unitary of a plate at orientation alpha_rad; an array of
    orientations gives the stack of unitaries (..., 2, 2)."""
    return _rotations(delta, axis_from_orientation(alpha_rad))


def sinc2_profile(
    lam0_um: float, fwhm_um: float, knots: int = 801, span: float = 40.0
) -> SpectralProfile:
    """Uniform wavelength grid over lam0 +- span*fwhm weighted by sinc(x)**2
    with x = 2a (lam - lam0) / fwhm, a = SINC_HALF_POWER, so the weight profile
    has full width fwhm at half maximum.  knots must be odd (>= 3) so that the
    central wavelength is a knot.

    The slowly decaying sinc**2 tails carry real weight: a window of
    span*fwhm keeps all but roughly 1/(2 pi a span) of the total, so the
    default span of 40 truncates only ~0.3%.  Narrow windows (span <~ 10)
    visibly bias spectral averages of oscillatory quantities.
    """
    if knots < 3 or knots % 2 == 0:
        raise ValueError(f"knots must be odd and >= 3, got {knots}")
    if span <= 0 or fwhm_um <= 0:
        raise ValueError("span and fwhm must be positive")
    lam = lam0_um + np.linspace(-span * fwhm_um, span * fwhm_um, knots)
    w = sinc2_weights(lam, lam0_um, fwhm_um)
    return SpectralProfile(lam, w / w.sum())


def sinc2_weights(lam_um: np.ndarray, lam0_um: float, fwhm_um: float) -> np.ndarray:
    """The sinc(x)**2 spectral shape at wavelengths lam_um, with
    x = 2a (lam - lam0) / fwhm and a = SINC_HALF_POWER: 1 at lam0, 1/2 at
    lam0 +- fwhm/2."""
    x = 2.0 * SINC_HALF_POWER * (lam_um - lam0_um) / fwhm_um
    return np.sinc(x / np.pi) ** 2  # np.sinc is sin(pi t)/(pi t)


def plate_choi_state(spec: WaveplateSpec, profile: SpectralProfile) -> np.ndarray:
    """Choi state (4x4, trace 1) of one plate under a spectral mixture.

    Each knot contributes the normalized vectorized retarder unitary at its
    own wavelength (no thin-plate rule), all knots in one array pass; the
    weighted sum of the pure projectors is rank <= 2 because all the vectors
    live in the fixed 2-dim subspace set by the plate axis.
    """
    lam = profile.wavelengths
    check_quartz_window(lam)
    # the column-stacked unitaries, one row per knot
    psis = _unitaries(spec, lam).swapaxes(1, 2).reshape(len(lam), 4) / np.sqrt(2.0)
    return _spectral_average(psis, profile.weights)


def fit_su2_retarder(g: SU2Retarder) -> tuple[float, float, bool]:
    """Invert ``t = cos(d) + i sin(d) cos(2a), r = i sin(d) sin(2a)`` up to the
    inherent retarder symmetries.

    Returns (delta, alpha, degenerate) with delta folded to [0, pi/2] and
    alpha to [0, pi).  When |sin delta| < 1e-12 the orientation is undefined;
    alpha is reported as 0 with the degenerate flag set.
    """
    cos_d = float(np.real(g.t))
    sin_cos2a = float(np.imag(g.t))
    sin_sin2a = float(np.imag(g.r))
    sin_mag = float(np.hypot(sin_cos2a, sin_sin2a))
    if sin_mag < 1e-12:
        return 0.0, 0.0, True
    delta = float(np.arctan2(sin_mag, cos_d))  # in [0, pi]
    if delta > np.pi / 2:
        # U(pi - d, -n) = -U(d, n): fold via a global sign flip.
        delta = np.pi - delta
        sin_cos2a, sin_sin2a = -sin_cos2a, -sin_sin2a
    alpha = 0.5 * float(np.arctan2(sin_sin2a, sin_cos2a))
    if alpha < 0:
        alpha += np.pi
    return delta, alpha % np.pi, False


def birefringence_from_delta(delta: float, lam_um: float, thickness_um: float) -> float:
    """dn = delta * lambda / (pi h), the inverse of the optical-thickness law."""
    if thickness_um <= 0:
        raise ValueError("thickness must be positive")
    return delta * lam_um / (np.pi * thickness_um)


def _output_states(
    input_state: np.ndarray,
    plates: list[WaveplateSpec],
    lam: np.ndarray,
    lam_thin: np.ndarray,
    parts: tuple[slice, ...] = (slice(None),),
) -> list[np.ndarray]:
    """Pure output states ``psi (K, 2)`` at the wavelengths ``lam (K,)``
    after each leading part of the plate list: entry n is the state after
    the first n plates (entry 0 the input).  A thick plate acts with each
    wavelength's own unitary and a plate thinner than THIN_PLATE_LIMIT_UM
    with the unitary at ``lam_thin`` (one wavelength for all, or one per
    wavelength).  Only the wavelengths a plate uses are checked against the
    quartz window, before any state is computed: ``parts`` splits ``lam``
    (and a per-wavelength ``lam_thin``) into consecutive sets, checked one
    after the other, each for the plates in order, so the first error is
    the one of a separate call per set.  A plate equal to the one before it
    reuses that plate's unitaries, which are the same numbers."""
    psi0 = np.asarray(input_state, dtype=complex).ravel()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("input state must be normalized")
    thick = [spec.thickness_um >= THIN_PLATE_LIMIT_UM for spec in plates]
    for part in parts:
        # the check depends on the plate only through its thickness class
        for plate_is_thick in dict.fromkeys(thick):
            check_quartz_window((lam if plate_is_thick else lam_thin)[part])
    states = [np.broadcast_to(psi0, (len(lam), 2))]
    previous = None
    for spec, plate_is_thick in zip(plates, thick):
        if spec != previous:
            u = _unitaries(spec, lam if plate_is_thick else lam_thin)
            previous = spec
        states.append(np.einsum("...ij,...j->...i", u, states[-1]))
    return states


def _unitaries(spec: WaveplateSpec, lam_um: np.ndarray) -> np.ndarray:
    # the plate's retarder unitary at each wavelength (K, 2, 2), with the
    # signed optical thickness pi (n_o - n_e) h / lambda (negative for
    # quartz); the caller checks the window
    n_o, n_e = _sellmeier(lam_um * lam_um)
    delta = np.pi * (n_o - n_e) * spec.thickness_um / lam_um
    return _rotations(delta, axis_from_orientation(spec.alpha_rad))


def _spectral_average(psi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # the mixed state sum_k w_k |psi_k><psi_k| as one product
    return (psi * weights[:, None]).T @ psi.conj()


def _projectors(psi: np.ndarray) -> np.ndarray:
    # |psi><psi| for each state of a stack (..., 2)
    return psi[..., :, None] @ psi.conj()[..., None, :]


def broadband_mixed_state(
    input_state: np.ndarray,
    plates: list[WaveplateSpec],
    profile: SpectralProfile,
) -> np.ndarray:
    """Polarization state after passing broadband light through plates.

    Plates are applied in list order to the same input state at every knot;
    the output is the spectral-weight average of the per-knot pure states.
    Plates thinner than THIN_PLATE_LIMIT_UM use the central-wavelength unitary
    for all knots (they transform the state as a whole), so only the knots a
    plate uses are checked against the quartz window.

    All knots are computed at once: per-knot unitaries ``(K, 2, 2)``, the
    states ``psi (K, 2)`` and the average ``(psi * w)^T conj(psi)``.  That
    sum's order differs from a knot-by-knot accumulation, which moves the
    result at the 1e-15 level.
    """
    lam = profile.wavelengths
    central = len(profile) // 2
    psi = _output_states(input_state, plates, lam, lam[central : central + 1])[-1]
    return _spectral_average(psi, profile.weights)


def plate_count_states(
    input_state: np.ndarray,
    plates: list[WaveplateSpec],
    profile: SpectralProfile,
    wavelengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Broadband and monochromatic output states behind 1..P plates, from
    one pass over the P plates: ``broadband[n - 1]`` (P, 2, 2) is
    ``broadband_mixed_state(input_state, plates[:n], profile)`` and
    ``monochromatic[n - 1]`` (P, K, 2, 2) holds the pure states
    ``|psi_k><psi_k|`` behind the first n plates, state k being what
    ``broadband_mixed_state`` gives for the one-knot profile at
    ``wavelengths[k]`` (so a thin plate acts at that wavelength too), each
    to the bit (tested).

    The states behind n plates are the input of plate n + 1, and equal
    plates share their unitaries, so a stack of P copies of one plate
    computes its dispersion and unitaries once.  The knots and the
    component wavelengths go through the plates in one pass: a thin plate
    acts at the central knot on the knots and at each component's own
    wavelength on the components.  The knots are checked against the quartz
    window before the components, so an error is the first one of the
    separate calls.
    """
    lam = profile.wavelengths
    n_knots = len(lam)
    lam_k = np.asarray(wavelengths, dtype=float)
    states = _output_states(
        input_state,
        plates,
        np.concatenate([lam, lam_k]),
        np.concatenate([np.full(n_knots, lam[n_knots // 2]), lam_k]),
        (slice(None, n_knots), slice(n_knots, None)),
    )[1:]
    broadband = np.stack([_spectral_average(psi[:n_knots], profile.weights) for psi in states])
    return broadband, _projectors(np.stack([psi[n_knots:] for psi in states]))


def component_sum_states(
    states: np.ndarray, weights: np.ndarray, subsets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Weighted mixtures of ``states`` (C, d, d), renormalized to unit
    trace, for every subset at once, (S, d, d): mixture s is
    ``sum_j weights[j] states[j]`` over the 0-based indices ``j`` of
    ``subsets[s]``, in subset order, divided by the sum of those weights, so
    only relative weights matter.

    Weights must be nonnegative, and each subset must hold a positive one.
    Every weighted term comes from one product, the subsets padded to the
    longest with a zero state, and each mixture sums its terms in subset
    order, as a one-subset sum does; each total is the subset's own
    ``np.sum``.  So every mixture is the one-subset result to the bit
    (tested).
    """
    states = np.asarray(states, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    totals = np.array([weights[list(subset)].sum() for subset in subsets])
    if np.any(totals <= 0):
        raise ValueError("at least one weight must be positive")
    # index len(states) is the padding: a zero state of weight 0
    index = np.full((len(subsets), max(map(len, subsets))), len(states))
    for row, subset in zip(index, subsets):
        row[: len(subset)] = subset
    padded_states = np.concatenate([states, np.zeros((1, *states.shape[1:]), complex)])
    terms = np.append(weights, 0.0)[index][..., None, None] * padded_states[index]
    return terms.sum(axis=1) / totals[:, None, None]
