"""Identification-code construction and the cardinality bounds.

A code of M signatures in C^k under the energy constraint ||alpha||^2 <= k E
is built by packing the ball of radius sqrt(k E) in R^{2k} at separation
2 rho.  The calculators cover the achievable and the converse cardinality;
the detector error bounds live with the count law, in `photonstats`.  All
cardinalities are handled in log domain.  The near-k log k scaling
rho^2 = gamma ln k needs no helper of its own: at that rho the achievable log
cardinality is k ln k - k ln ln k + k ln(E/(4 gamma)).  Signatures are complex
(M, k) views of the (M, 2k) (re, im) rows that the packing and the files hold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .photonstats import ChannelModel

__all__ = [
    "SignatureSet",
    "build_code",
    "achievable_users_log",
    "converse_users_log",
    "save_signature_set",
    "load_signature_set",
]


@dataclass(frozen=True)
class SignatureSet:
    """Codebook of complex amplitude vectors plus its construction parameters;
    ``min_distance`` is derived from the closest pair, found once on first use."""

    k: int
    energy_budget: float  # E; per-signature energy is bounded by k * E
    rho: float
    signatures: np.ndarray  # complex, shape (M, k)

    def __post_init__(self):
        if self.signatures.ndim != 2 or self.signatures.shape[1] != self.k:
            raise ValueError("signatures must have shape (M, k)")
        if not np.isfinite(self.signatures).all():
            raise ValueError("signatures must be finite")
        norms = np.hypot.reduce(np.abs(self.signatures), axis=1)  # overflow-free
        if len(self) and norms.max() > geometry.MAX_NORM:
            raise ValueError(f"signature norms must be at most {geometry.MAX_NORM:.6g}")

    @cached_property
    def closest_pair(self) -> tuple[float, int, int]:
        """(squared distance, i, j) of the closest pair, found once per code."""
        return geometry.closest_pair(self.signatures)

    @property
    def min_distance(self) -> float:
        """Distance of the closest pair; inf for fewer than 2 signatures."""
        return math.sqrt(self.closest_pair[0]) if len(self) >= 2 else math.inf

    def __len__(self) -> int:
        return self.signatures.shape[0]

    def energies(self) -> np.ndarray:
        return np.sum(np.abs(self.signatures) ** 2, axis=1)


def _check_rho(k: int, energy: float, rho: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0 < energy and k * energy < math.inf):
        raise ValueError(f"E must be > 0 and k E finite, got E={energy} at k={k}")
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    if 2 * rho > math.sqrt(k * energy):
        raise ValueError(
            f"need 2 rho <= sqrt(k E): 2*{rho} > sqrt({k}*{energy})"
        )


def build_code(
    k: int, energy: float, rho: float, rng: np.random.Generator,
    rejection_budget: int = geometry.DEFAULT_REJECTION_BUDGET,
) -> SignatureSet:
    """Pack the energy ball at separation 2 rho and read points as C^k signatures."""
    _check_rho(k, energy, rho)
    spec = geometry.PackingSpec(
        dim=2 * k,
        radius=math.sqrt(k * energy),
        separation=2 * rho,
        rejection_budget=rejection_budget,
    )
    sigs = geometry.greedy_packing(spec, rng).view(complex)  # zero-copy (M, k)
    return SignatureSet(k=k, energy_budget=energy, rho=rho, signatures=sigs)


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
    if k < 1 or not (0 < energy and k * energy < math.inf):
        raise ValueError(f"k >= 1, E > 0 and k E finite required, got k={k}, E={energy}")
    if not (0 < delta_k < 0.25):
        raise ValueError(
            f"delta_k={delta_k} outside (0, 1/4): the converse bound's inner "
            "logarithm must be positive (its stated range (0, 1/2) is vacuous "
            "for delta_k >= 1/4)"
        )
    denom = math.sqrt((2 * channel.n_thermal + 1) * math.log(1 / (4 * delta_k)))
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
        rows = np.ascontiguousarray(code.signatures, dtype=complex).view(float)
        np.savetxt(fh, rows, fmt="%.17g")


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
    k = _header_field(fields, "k", int)
    energy = _header_field(fields, "energy_budget", float)
    rho = _header_field(fields, "rho", float)
    if k < 1:
        raise ValueError(f"header field k={k} must be >= 1")
    for key, value in (("energy_budget", energy), ("rho", rho)):
        if not 0 < value < math.inf:
            raise ValueError(f"header field {key}={value} must be finite and > 0")
    with warnings.catch_warnings():  # a header with no rows is an empty code
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(fh, ndmin=2)  # skips "#" comment lines
    if rows.size == 0:
        rows = rows.reshape(0, 2 * k)
    if "M" in fields and _header_field(fields, "M", int) != len(rows):
        raise ValueError(f"header field M={fields['M']} but the file has {len(rows)} rows")
    if rows.shape[1] != 2 * k:
        raise ValueError(f"row width {rows.shape[1]} != 2k = {2 * k}")
    code = SignatureSet(k=k, energy_budget=energy, rho=rho, signatures=rows.view(complex))
    top = code.energies().max() if len(code) else 0.0
    if top > k * energy * (1 + 1e-9):  # beyond rounding
        raise ValueError(f"a row has energy {top:.12g} > k E = {k * energy:.12g}")
    return code


def load_signature_set(path) -> SignatureSet:
    """Read a :func:`save_signature_set` file.  ``#`` comments after the
    header are skipped wherever they appear, such as the ``# dim=..`` line
    older files carry.  A malformed file raises ValueError naming it."""
    with open(path) as fh:
        try:
            return _read_signature_set(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
