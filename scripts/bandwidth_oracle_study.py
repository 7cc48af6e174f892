#!/usr/bin/env python3
"""Plug-in bandwidth against the grid-search oracle.

Traces the Monte Carlo MSE of the jump estimator over a bandwidth grid
(common random numbers across grid points), then evaluates the plug-in
selector on the same replications.  The headline number is the ratio
MSE(plug-in) / min MSE(grid); near 1.0 means the selector is close to
oracle-optimal on this design.

Usage:
    python scripts/bandwidth_oracle_study.py --replications 500 \
        --curve mse_curve.csv --out oracle.json
"""

import argparse
import csv
from dataclasses import asdict, dataclass
from math import fsum

import numpy as np

from rdtoolkit.bandwidth import select_mse_bandwidth
from rdtoolkit.continuity import sharp_estimate
from rdtoolkit.dgps import (
    curved_benchmark,
    oracle_mse_bandwidth,
    replication_sample,
)
from rdtoolkit.parallel import run_indexed
from rdtoolkit.reports import make_report, write_report


@dataclass(frozen=True)
class Config:
    n: int = 1000
    replications: int = 500
    seed: int = 20260814
    grid_lo: float = 0.08
    grid_hi: float = 1.0
    grid_points: int = 50
    p: int = 1
    kernel: str = "triangular"
    threads: int = 1


def run(cfg: Config):
    dgp = curved_benchmark()
    tau = dgp.true_tau()
    grid = np.geomspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    oracle = oracle_mse_bandwidth(dgp, p=cfg.p, kernel=cfg.kernel,
                                  grid=grid, n=cfg.n,
                                  replications=cfg.replications,
                                  seed=cfg.seed, threads=cfg.threads)

    def one(r):
        s = replication_sample(dgp, cfg.n, cfg.seed, r)
        sel = select_mse_bandwidth(s, p=cfg.p, kernel=cfg.kernel)
        est = sharp_estimate(s, p=cfg.p, kernel=cfg.kernel,
                             h_below=sel.h_mse)
        return (est.tau_hat - tau) ** 2, sel.h_mse

    rows = run_indexed(one, cfg.replications, cfg.threads)
    mse_plugin = fsum(e for e, _ in rows) / cfg.replications
    h_mean = fsum(h for _, h in rows) / cfg.replications
    return oracle, mse_plugin, h_mean


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=Config.n)
    ap.add_argument("--replications", type=int, default=Config.replications)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--grid-points", type=int, default=Config.grid_points)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--curve", default=None, help="write MSE curve CSV here")
    ap.add_argument("--out", default=None, help="JSON report path")
    args = ap.parse_args()
    cfg = Config(n=args.n, replications=args.replications, seed=args.seed,
                 grid_points=args.grid_points,
                 threads=args.threads)

    oracle, mse_plugin, h_mean = run(cfg)
    mse_star = float(oracle.mse.min())
    print(f"oracle h*          = {oracle.best_h:.4f}")
    print(f"oracle min MSE     = {mse_star:.6f}")
    print(f"plug-in mean h     = {h_mean:.4f}")
    print(f"plug-in MSE        = {mse_plugin:.6f}")
    print(f"MSE ratio          = {mse_plugin / mse_star:.3f}")

    if args.curve:
        with open(args.curve, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "mse", "n_failed"])
            for h, m, f in zip(oracle.grid, oracle.mse, oracle.n_failed):
                writer.writerow([float(h), float(m), int(f)])
        print(f"wrote {args.curve}")
    if args.out:
        result = {"oracle": oracle, "mse_plugin": mse_plugin,
                  "h_plugin_mean": h_mean,
                  "mse_ratio": mse_plugin / mse_star}
        write_report(args.out, make_report("bandwidth-oracle-study", result,
                                           asdict(cfg), seed=cfg.seed))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
