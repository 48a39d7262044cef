#!/usr/bin/env python3
"""Round-trip growth scales through the density duality and watch sublinearity.

Starting from a growth scale Q with Q(x)/x -> 0, build the matching decreasing
density d, then rebuild a growth scale from d.  The round trip is not the
identity (no such claim holds), but the rebuilt scale must stay sublinear and
its density bound must still hold on sampled pairs.
"""

import argparse
import math
from dataclasses import dataclass

import numpy as np

from meanmax import (
    Domain,
    Function1D,
    GridSpec,
    Q_from_d,
    check_corollary_bounds,
    d_from_Q,
)


@dataclass
class Scale:
    name: str
    fn: Function1D


def build_scales() -> list[Scale]:
    dom = Domain(1.0, math.inf)
    return [
        Scale("sqrt", Function1D(eval=lambda x: np.sqrt(x), domain=dom)),
        Scale("x_over_log", Function1D(
            eval=lambda x: x / np.log(np.e + x), domain=dom)),
        Scale("power_075", Function1D(eval=lambda x: x**0.75, domain=dom)),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=129,
                        help="envelope node count of both transforms")
    args = parser.parse_args()

    grid = GridSpec(node_count=args.grid)
    probes = [10.0, 1e2, 1e3, 1e4]
    for scale in build_scales():
        d = d_from_Q(scale.fn, 1.0, grid=grid)
        rebuilt = Q_from_d(d.fn, 1.0, grid=grid)
        ratios = [rebuilt.fn(x) / x for x in probes]
        trend = " ".join(f"{v:.4g}" for v in ratios)
        print(f"{scale.name}: rebuilt Q(x)/x at {probes} -> {trend}")
        check = check_corollary_bounds(
            scale.fn, d.fn, 1.0, "dQ", args.pairs, args.seed, sample_hi=1e4
        )
        print(f"    density bound on {args.pairs} pairs: {check.verdict}"
              f" (worst slack {check.worst_slack:.3g})")
        if d.warnings or rebuilt.warnings:
            for w in d.warnings + rebuilt.warnings:
                print(f"    warning: {w}")


if __name__ == "__main__":
    main()
