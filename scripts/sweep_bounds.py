#!/usr/bin/env python3
"""Sweep the achievable and converse user-count bounds over k.

Reproduces the k ln k - k ln ln k scaling table: with rho^2 = gamma ln k and
delta_k = 1/k, both bounds stay within a constant-per-mode band of the
asymptote.  Next to the per-mode gaps it prints the exact log first-kind
error, ln P(S_k > k(N + delta)), against its bound -k Lambda.

Usage:
    python3 scripts/sweep_bounds.py [--energy 4] [--noise 1] [--kmax 4096]
"""

import argparse
import math
import sys

from bosonid import photonstats as ps
from bosonid import scheme
from bosonid.photonstats import ChannelModel

DELTA = 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--energy", type=float, default=4.0)
    parser.add_argument("--noise", type=float, default=1.0)
    parser.add_argument("--kmax", type=int, default=4096)
    args = parser.parse_args()

    channel = ChannelModel(args.noise)
    theta = ps.theta_exponent(DELTA, channel)
    gamma = 1 / (4 * theta)  # makes the second-kind bound <= 1/k
    lam = ps.lambda_exponent(DELTA, channel)

    print(f"gamma = {gamma:.6f} (theta = {theta:.6f}), delta = {DELTA}")
    print(f"{'k':>6} {'lower_gap/k':>12} {'upper_gap/k':>12} "
          f"{'ln lambda1':>14} {'-k Lambda':>14}")
    k = 8
    while k <= args.kmax:
        rho = math.sqrt(gamma * math.log(k))
        center = k * math.log(k) - k * math.log(math.log(k))
        low = (scheme.achievable_users_log(k, args.energy, rho) - center) / k
        high = (scheme.converse_users_log(k, args.energy, 1 / k, channel) - center) / k
        log_l1 = ps.log_tail_probability(k, 0.0, channel, k * (args.noise + DELTA), upper=True)
        print(f"{k:>6} {low:>12.4f} {high:>12.4f} {log_l1:>14.6f} {-k * lam:>14.6f}")
        k *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
