#!/usr/bin/env python3
"""Print the mean concavity trend per synthetic severity class.

The cohort generator builds classes whose Volume-Flow collapse moves to
earlier exhalation phases as the onset horizon nears, so the trend column
should decrease monotonically from WITHIN_1Y down to NON_COPD at any
moderate noise level.  Exits 1, naming the first out-of-order pair of
classes, when the class means do not strictly decrease.  A flag the cohort
generator rejects (--n-per-class below 1, a --noise that is negative or not
finite, a negative --seed) is a usage error (exit 2).
"""

import argparse
import sys

import numpy as np

from spiroflow import (
    CohortSpec,
    differentiate_flow,
    gaussian_smooth,
    generate_synthetic_cohort,
    volume_flow_curve,
)
from spiroflow.errors import InvalidSpec
from spiroflow.horizon import HORIZON_ORDER
from spiroflow.phases import concavity_features


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-class", type=int, default=20)
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, not {args.seed}")
    try:
        spec = CohortSpec(n_per_class=args.n_per_class, noise=args.noise, seed=args.seed)
    except InvalidSpec as exc:
        parser.error(str(exc))

    cohort = generate_synthetic_cohort(spec)
    smoothed = gaussian_smooth([rec.curve for rec in cohort])
    vfs = volume_flow_curve(smoothed, differentiate_flow(smoothed))
    trends = concavity_features(vfs)[:, 4]
    horizons = np.array([rec.horizon.value for rec in cohort])

    print(f"{'class':<12} {'mean trend':>10} {'std':>8}")
    means = []
    for label in HORIZON_ORDER:
        values = trends[horizons == label.value]
        means.append((label.value, values.mean()))
        print(f"{label.value:<12} {values.mean():>10.4f} {values.std():>8.4f}")
    for (near, a), (far, b) in zip(means, means[1:]):
        if not a > b:
            sys.exit(f"mean trend not decreasing: {near} {a:.4f} <= {far} {b:.4f}")


if __name__ == "__main__":
    main()
