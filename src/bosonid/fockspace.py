"""Truncated Fock-basis oracle for displaced thermal states.

Everything here is dense cutoff x cutoff linear algebra and serves only as an
independent check of the closed-form statistics used elsewhere: density
matrices, displacement operators, Uhlmann fidelity, overlaps, and trace
distance.  Each constructed matrix carries its truncation deficit so callers
can budget tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, pdtrc

from .photonstats import ChannelModel

__all__ = [
    "FockMatrix",
    "thermal_density",
    "coherent_state_vector",
    "displacement_matrix",
    "displaced_thermal_density",
    "OverlapResult",
    "overlap_closed_form",
    "fidelity_numeric",
    "fidelity_displaced_thermal",
    "trace_distance_numeric",
]

_PSD_TOL = -1e-8
_DISPLACEMENT_DEFICIT_LIMIT = 1e-6


@dataclass(frozen=True)
class FockMatrix:
    """Square operator in the photon-number basis, truncated at ``cutoff``."""

    cutoff: int
    entries: np.ndarray
    truncation_deficit: float


def thermal_density(channel: ChannelModel, cutoff: int) -> FockMatrix:
    """Thermal state diag(N^n / (N+1)^{n+1}), n < cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    N = channel.n_thermal
    if N == 0:
        diag = np.zeros(cutoff)
        diag[0] = 1.0
        deficit = 0.0
    else:
        ns = np.arange(cutoff)
        diag = np.exp(ns * math.log(N / (N + 1)) - math.log(N + 1))
        deficit = (N / (N + 1)) ** cutoff
    return FockMatrix(cutoff, np.diag(diag).astype(complex), float(deficit))


def coherent_state_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis coefficients of |alpha>, truncated at ``cutoff``."""
    alpha = complex(alpha)
    if alpha == 0:
        vec = np.zeros(cutoff, dtype=complex)
        vec[0] = 1.0
        return vec
    ns = np.arange(cutoff)
    n2 = abs(alpha) ** 2
    log_mod = -n2 / 2 + ns * math.log(abs(alpha)) - 0.5 * gammaln(ns + 1)
    return np.exp(log_mod) * np.exp(1j * ns * np.angle(alpha))


def displacement_matrix(amplitude: complex, cutoff: int) -> FockMatrix:
    """Matrix elements <m|D(alpha)|n> via the associated-Laguerre closed form.

    The reported deficit is the coherent-state mass of D(alpha)|0> beyond the
    cutoff (a Poisson tail); amplitudes too large for the cutoff are rejected.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    alpha = complex(amplitude)
    n2 = abs(alpha) ** 2
    deficit = float(pdtrc(cutoff - 1, n2))
    if deficit > _DISPLACEMENT_DEFICIT_LIMIT:
        raise ValueError(
            f"|alpha|^2 = {n2:g} too large for cutoff {cutoff}: deficit {deficit:.3g}"
        )
    # <m|D(alpha)|n> = sqrt(n!/m!) e^{-|alpha|^2/2} alpha^{m-n} L_n^{(m-n)}(|alpha|^2)
    # for m >= n; above the diagonal alpha is replaced by -conj(alpha).
    row, col = np.indices((cutoff, cutoff))
    low, high = np.minimum(row, col), np.maximum(row, col)
    gap = high - low
    lg = gammaln(np.arange(cutoff) + 1)
    scale = np.exp(0.5 * (lg[low] - lg[high]) - n2 / 2)
    phase = np.where(row >= col, alpha, -alpha.conjugate()) ** gap
    out = scale * phase * eval_genlaguerre(low, gap, n2)
    return FockMatrix(cutoff, out, deficit)


def displaced_thermal_density(
    amplitude: complex, channel: ChannelModel, cutoff: int
) -> FockMatrix:
    """D(alpha) . thermal . D(alpha)^dagger, deficit reported as 1 - trace."""
    disp = displacement_matrix(amplitude, cutoff)
    th = thermal_density(channel, cutoff)
    rho = disp.entries @ th.entries @ disp.entries.conj().T
    deficit = float(1 - np.trace(rho).real)
    return FockMatrix(cutoff, rho, deficit)


class OverlapResult(NamedTuple):
    exact: float
    bound: float


def overlap_closed_form(alpha, beta, channel: ChannelModel) -> OverlapResult:
    """Exact coherent overlap tr(S_N^k(alpha) |beta><beta|) and its upper bound.

    exact = (N+1)^{-k} exp(-||alpha-beta||^2 / (N+1)) <= bound = exp(-||.||^2/(N+1)).
    """
    a = np.asarray(alpha, dtype=complex).ravel()
    b = np.asarray(beta, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    N = channel.n_thermal
    d2 = float(np.sum(np.abs(a - b) ** 2))
    bound = math.exp(-d2 / (N + 1))
    exact = bound / (N + 1) ** a.size
    return OverlapResult(exact=exact, bound=bound)


def _as_density(mat: FockMatrix | np.ndarray) -> np.ndarray:
    arr = mat.entries if isinstance(mat, FockMatrix) else np.asarray(mat, dtype=complex)
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


def fidelity_numeric(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, squared convention."""
    r = _as_density(rho)
    s = _as_density(sigma)
    if r.shape != s.shape:
        raise ValueError("cutoff mismatch between density matrices")
    sqrt_r = _psd_sqrt(r)
    inner = sqrt_r @ s @ sqrt_r
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if vals.min() < _PSD_TOL:
        raise ValueError(f"inner matrix not PSD: min eigenvalue {vals.min():.3g}")
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)


def fidelity_displaced_thermal(alpha, beta, channel: ChannelModel) -> float:
    """Closed-form fidelity exp(-||alpha-beta||^2 / (2N+1)) of two displaced thermal states."""
    a = np.asarray(alpha, dtype=complex).ravel()
    b = np.asarray(beta, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d2 = float(np.sum(np.abs(a - b) ** 2))
    return math.exp(-d2 / (2 * channel.n_thermal + 1))


def trace_distance_numeric(rho, sigma) -> float:
    """Half trace norm of rho - sigma."""
    r = _as_density(rho)
    s = _as_density(sigma)
    if r.shape != s.shape:
        raise ValueError("cutoff mismatch between density matrices")
    vals = np.linalg.eigvalsh(r - s)
    return float(0.5 * np.sum(np.abs(vals)))
