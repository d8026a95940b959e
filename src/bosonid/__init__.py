"""Deterministic multi-user identification over noisy bosonic channels.

Library plus CLI: displaced-thermal photon statistics, Fock-space oracles,
Euclidean-ball packings, the analytic achievability/converse bounds, and
Monte Carlo verification of the threshold detector and a heterodyne baseline.
"""

__version__ = "0.1.0"
