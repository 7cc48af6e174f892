#!/usr/bin/env python3
"""Coverage comparison on the curved benchmark.

Runs the Monte Carlo coverage engine for the conventional and the
bias-corrected interval at the plug-in MSE bandwidth, on the same
replications, and prints a side-by-side table.  With the default seed
the conventional interval covers roughly 86% and the bias-corrected
one roughly 93-94%.

Usage:
    python scripts/coverage_experiment.py --replications 2000 --out cov.json
"""

import argparse
from dataclasses import asdict, dataclass

from rdtoolkit.dgps import curved_benchmark, simulate_coverage
from rdtoolkit.reports import make_report, write_report


@dataclass(frozen=True)
class Config:
    n: int = 1000
    replications: int = 2000
    seed: int = 20260814
    level: float = 0.95
    noise_sd: float = 0.1295
    threads: int = 1


def run(cfg: Config) -> dict:
    dgp = curved_benchmark(noise_sd=cfg.noise_sd)
    out = {}
    for estimator in ("conventional", "rbc"):
        out[estimator] = simulate_coverage(
            dgp, estimator=estimator, n=cfg.n,
            replications=cfg.replications, seed=cfg.seed, level=cfg.level,
            threads=cfg.threads)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=Config.n)
    ap.add_argument("--replications", type=int, default=Config.replications)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--level", type=float, default=Config.level)
    ap.add_argument("--noise-sd", type=float, default=Config.noise_sd)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default=None, help="JSON report path")
    args = ap.parse_args()
    cfg = Config(n=args.n, replications=args.replications, seed=args.seed,
                 level=args.level, noise_sd=args.noise_sd,
                 threads=args.threads)

    results = run(cfg)
    print(f"{'estimator':<14}{'coverage':>10}{'ci length':>11}"
          f"{'bias':>10}{'failed':>8}")
    for name, res in results.items():
        print(f"{name:<14}{res.coverage:>10.4f}{res.avg_ci_length:>11.4f}"
              f"{res.mean_bias:>10.4f}{res.n_failed:>8d}")

    if args.out:
        report = make_report("coverage-experiment", results, asdict(cfg),
                             seed=cfg.seed)
        write_report(args.out, report)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
