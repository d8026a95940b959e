"""Identification-code construction and the cardinality bounds.

A code of M signatures in C^k under the energy constraint ||alpha||^2 <= k E
is built by packing the ball of radius sqrt(k E) in R^{2k} at separation
2 rho.  The calculators cover the achievable and the converse cardinality;
the detector error bounds live with the count law, in `photonstats`.  All
cardinalities are handled in log domain.  The near-k log k scaling
rho^2 = gamma ln k needs no helper of its own: at that rho the achievable log
cardinality is k ln k - k ln ln k + k ln(E/(4 gamma)).  A code is the float64
(M, 2k) rows of (re, im) pairs that the packing and the files hold; only
`SignatureSet.signatures` views them as complex (M, k).  `SignatureSet` keeps
a read-only copy of the rows it is given, and checks every code, built or
loaded: k >= 1, E > 0 with k E finite, rho finite and > 0, and finite rows 2k
wide of energy at most k E.  The file reader only parses.  Only a packing
needs 2 rho <= sqrt(k E); a loaded code's rho is a label, and `closest_pair`
measures its real separation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .photonstats import ChannelModel, RangeError, _check_k

__all__ = [
    "SignatureSet",
    "build_code",
    "achievable_users_log",
    "converse_users_log",
    "save_signature_set",
    "load_signature_set",
]


@dataclass(frozen=True, eq=False)
class SignatureSet:
    """M signatures in C^k as real rows, and the code's parameters; a code equals
    only itself.  ``min_distance`` comes from the closest pair, found on first use."""

    k: int
    energy_budget: float  # E; per-signature energy is bounded by k * E
    rho: float
    rows: np.ndarray  # float64, shape (M, 2k): each signature as (re, im) pairs

    def __post_init__(self):
        _check_energy(self.k, self.energy_budget, self.rho)
        if getattr(self.rows, "dtype", None) != float or self.rows.ndim != 2:
            raise ValueError(f"rows must be a float64 array of shape (M, 2k = {2 * self.k})")
        if self.rows.shape[1] != 2 * self.k:
            raise ValueError(f"row width {self.rows.shape[1]} != 2k = {2 * self.k}")
        # its own read-only copy: no write can move a row under the cached closest pair
        rows = np.array(self.rows, order="C")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        top = np.hypot.reduce(self.rows, axis=1).max(initial=0.0)  # no overflow
        if not top <= geometry.MAX_NORM:  # a NaN entry makes top NaN, which fails too
            raise ValueError(f"signatures must be finite, of norm at most {geometry.MAX_NORM:.6g}")
        if top**2 > self.k * self.energy_budget * (1 + 1e-9):  # beyond rounding
            raise ValueError(f"a row has energy {top**2:.12g} > k E = "
                             f"{self.k * self.energy_budget:.12g}")

    @property
    def signatures(self) -> np.ndarray:
        """The complex (M, k) view of the rows, read-only as they are."""
        return self.rows.view(complex)

    @cached_property
    def closest_pair(self) -> float:
        """The least ||Delta||^2 over pairs of signatures, found once on the real rows."""
        return geometry.closest_pair(self.rows)

    @property
    def min_distance(self) -> float:
        """Distance of the closest pair; inf for fewer than 2 signatures."""
        return math.sqrt(self.closest_pair) if len(self) >= 2 else math.inf

    def __len__(self) -> int:
        return len(self.rows)

    def energies(self) -> np.ndarray:
        return (self.rows**2).sum(axis=1)


def _check_energy(k: int, energy: float, rho: float | None = None) -> None:
    _check_k(k)
    if not (0 < energy and k * energy < math.inf):
        raise RangeError(f"E must be > 0 and k E finite, got E={energy} at k={k}", "energy")
    if rho is not None and not 0 < rho < math.inf:
        raise RangeError(f"rho must be finite and > 0, got {rho}", "rho")


def _check_rho(k: int, energy: float, rho: float) -> None:
    _check_energy(k, energy, rho)
    if 2 * rho > math.sqrt(k * energy):
        raise RangeError(f"need 2 rho <= sqrt(k E): 2*{rho} > sqrt({k}*{energy})",
                         "rho", "energy")


def build_code(k: int, energy: float, rho: float, rng: np.random.Generator,
               rejection_budget: int = geometry.DEFAULT_REJECTION_BUDGET) -> SignatureSet:
    """Pack the energy ball in R^{2k} at separation 2 rho: its points are the code's rows."""
    _check_rho(k, energy, rho)
    points = geometry.greedy_packing(2 * k, math.sqrt(k * energy), 2 * rho, rng,
                                     rejection_budget=rejection_budget)
    return SignatureSet(k=k, energy_budget=energy, rho=rho, rows=points)


def achievable_users_log(k: int, energy: float, rho: float) -> float:
    """log of the guaranteed code size (k E / (4 rho^2))^k."""
    _check_rho(k, energy, rho)
    return k * (math.log(k * energy) - 2 * math.log(2 * rho))


def converse_users_log(
    k: int, energy: float, delta_k: float, channel: ChannelModel
) -> float:
    """log of the converse cardinality bound at error level delta_k.

    The bound (1 + 4 sqrt(kE)/sqrt((2N+1) ln(1/(4 delta_k))))^{2k} is only
    meaningful for delta_k < 1/4, where the inner log is positive.
    """
    _check_energy(k, energy)
    if not (0 < delta_k < 0.25):
        raise RangeError(f"delta_k={delta_k} outside (0, 1/4): the converse bound's inner "
                         "logarithm must be positive (its stated range (0, 1/2) is vacuous "
                         "for delta_k >= 1/4)", "delta_k")
    denom = math.sqrt((2 * channel.n_thermal + 1) * -math.log(4 * delta_k))
    return 2 * k * math.log1p(4 * math.sqrt(k * energy) / denom)


def save_signature_set(path, code: SignatureSet) -> None:
    """Text file: a ``# signature-set k=.. energy_budget=.. rho=.. M=..
    min_distance=..`` header line, then one signature per row as interleaved
    real and imaginary parts."""
    with open(path, "w") as fh:
        fh.write(
            f"# signature-set k={code.k} energy_budget={code.energy_budget:.12g} "
            f"rho={code.rho:.12g} M={len(code)} min_distance={code.min_distance:.12g}\n"
        )
        np.savetxt(fh, code.rows, fmt="%.17g")


def _header_field(fields: dict, key: str, kind):
    if key not in fields:
        raise ValueError(f"signature-set header lacks {key}=")
    try:
        return kind(fields[key])
    except ValueError:
        raise ValueError(f"header field {key}={fields[key]} is not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def _read_signature_set(fh) -> SignatureSet:
    header = fh.readline().strip()
    if not header.startswith("# signature-set "):
        raise ValueError("missing signature-set header")
    fields = {}
    for tok in header[len("# signature-set ") :].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"header token {tok!r} is not key=value")
        fields[key] = value
    with warnings.catch_warnings():  # no rows is refused below, in one error line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(fh, ndmin=2)  # skips "#" comment lines
    if rows.size == 0:
        raise ValueError("the file has no signature rows")
    if "M" in fields and _header_field(fields, "M", int) != len(rows):
        raise ValueError(f"header field M={fields['M']} but the file has {len(rows)} rows")
    return SignatureSet(k=_header_field(fields, "k", int),
                        energy_budget=_header_field(fields, "energy_budget", float),
                        rho=_header_field(fields, "rho", float), rows=rows)


def load_signature_set(path) -> SignatureSet:
    """Read a :func:`save_signature_set` file.  ``#`` comments after the
    header are skipped wherever they appear, such as the ``# dim=..`` line
    older files carry.  A malformed file raises ValueError naming it."""
    with open(path) as fh:
        try:
            return _read_signature_set(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
