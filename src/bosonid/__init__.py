"""Deterministic multi-user identification over noisy bosonic channels.

Library plus CLI: displaced-thermal photon statistics, Fock-space oracles,
Euclidean-ball packings, the analytic achievability/converse bounds, and
Monte Carlo verification of the threshold detector and a heterodyne baseline.
"""

__version__ = "0.1.0"

from .photonstats import ChannelModel, DetectorSpec, lambda_exponent
from .scheme import SignatureSet, build_code, achievable_users_log, converse_users_log

__all__ = [
    "__version__",
    "ChannelModel",
    "DetectorSpec",
    "SignatureSet",
    "lambda_exponent",
    "build_code",
    "achievable_users_log",
    "converse_users_log",
]
