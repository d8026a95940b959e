"""Truncated Fock-basis oracle for displaced thermal states.

Everything here is dense cutoff x cutoff linear algebra and serves only as an
independent check of the formulas used elsewhere: coherent-state vectors,
displacement operators, density matrices, Uhlmann fidelity and trace
distance.  It holds no closed form of its own, and of bosonid it imports only
ChannelModel, so a check never compares a formula with itself.  One builder
makes every state: D(alpha) thermal D(alpha)^dagger, whose alpha = 0 case is
the thermal state.  alpha^n is carried as a log magnitude and a unit phase, so
the matrices stay finite at any cutoff.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .photonstats import ChannelModel

__all__ = [
    "coherent_state_vector",
    "displacement_matrix",
    "displaced_thermal_density",
    "fidelity_numeric",
    "trace_distance_numeric",
]

_PSD_TOL = -1e-8
_DISPLACEMENT_DEFICIT_LIMIT = 1e-6


def _power_split(amplitude: complex, cutoff: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(|alpha|^2, n ln|alpha|, (alpha/|alpha|)^n) for n < cutoff.

    alpha^n is kept as a log magnitude and a unit phase so that it cannot
    overflow before the factorials scale it.  At alpha = 0 the log magnitude
    is 0 at n = 0 (0^0 = 1) and -inf beyond, and the phase is 1.
    """
    from scipy.special import xlogy

    alpha = complex(amplitude)
    try:  # a float power raises OverflowError past the largest float
        n2 = abs(alpha) ** 2
    except OverflowError:
        n2 = math.inf
    if not n2 < math.inf:
        raise ValueError(f"|amplitude|^2 must be finite, got amplitude {amplitude}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    ns = np.arange(cutoff)
    return n2, xlogy(ns, abs(alpha)), np.exp(1j * cmath.phase(alpha) * ns)


def coherent_state_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis coefficients of |alpha>, truncated at ``cutoff``."""
    from scipy.special import gammaln

    n2, log_pow, phase = _power_split(alpha, cutoff)
    return np.exp(log_pow - n2 / 2 - 0.5 * gammaln(np.arange(cutoff) + 1)) * phase


def displacement_matrix(amplitude: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> via the associated-Laguerre closed form.

    Amplitudes too large for the cutoff are rejected: those where the
    coherent-state mass of D(alpha)|0> beyond it (a Poisson tail) exceeds 1e-6.
    """
    from scipy.special import eval_genlaguerre, gammaln, pdtrc

    n2, log_pow, phase = _power_split(amplitude, cutoff)
    if amplitude == 0:  # the amplitude, not n2: |1e-170|^2 underflows to 0
        return np.eye(cutoff, dtype=complex)
    deficit = float(pdtrc(cutoff - 1, n2))
    if deficit > _DISPLACEMENT_DEFICIT_LIMIT:
        raise ValueError(f"|alpha|^2 = {n2:g} too large for cutoff {cutoff}: "
                         f"deficit {deficit:.3g}")
    # <m|D(alpha)|n> = sqrt(n!/m!) e^{-|alpha|^2/2} alpha^{m-n} L_n^{(m-n)}(|alpha|^2)
    # for m >= n; above the diagonal -conj(alpha) replaces alpha, a phase alone.
    high, low = np.tril_indices(cutoff)
    gap = high - low
    lg = gammaln(np.arange(cutoff) + 1)
    scale = np.exp(0.5 * (lg[low] - lg[high]) - n2 / 2 + log_pow[gap])
    laguerre = eval_genlaguerre(low, gap, n2)
    out = np.empty((cutoff, cutoff), dtype=complex)
    out[low, high] = scale * ((-1.0) ** gap * phase.conj()[gap]) * laguerre
    out[high, low] = scale * phase[gap] * laguerre
    return out


def displaced_thermal_density(
    amplitude: complex, channel: ChannelModel, cutoff: int
) -> np.ndarray:
    """D(alpha) . diag(N^n / (N+1)^{n+1}) . D(alpha)^dagger; the thermal state at alpha = 0."""
    disp = displacement_matrix(amplitude, cutoff)
    N = channel.n_thermal
    weights = (N / (N + 1)) ** np.arange(cutoff) / (N + 1)
    return (disp * weights) @ disp.conj().T


def _as_density(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return arr


def _psd_sqrt(arr: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(arr)
    if vals.min() < _PSD_TOL:
        raise ValueError(f"matrix not PSD within tolerance: min eigenvalue {vals.min():.3g}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _density_pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r, s = _as_density(rho), _as_density(sigma)
    if r.shape != s.shape:
        raise ValueError("cutoff mismatch between density matrices")
    return r, s


def fidelity_numeric(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, squared convention."""
    r, s = _density_pair(rho, sigma)
    sqrt_r = _psd_sqrt(r)
    inner = sqrt_r @ s @ sqrt_r
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if vals.min() < _PSD_TOL:
        raise ValueError(f"inner matrix not PSD: min eigenvalue {vals.min():.3g}")
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)


def trace_distance_numeric(rho, sigma) -> float:
    """Half trace norm of rho - sigma."""
    r, s = _density_pair(rho, sigma)
    vals = np.linalg.eigvalsh(r - s)
    return float(0.5 * np.sum(np.abs(vals)))
