#!/usr/bin/env python3
"""Window-selector behavior under a known balance boundary.

The design keeps the covariate independent of the score inside
half-width 0.5 and lets it drift linearly outside, so a good selector
should stop at or near 0.5.  The script reports the distribution of
selected half-widths over many replications.

Usage:
    python scripts/window_selector_study.py --replications 500 --out win.json
"""

import argparse
from collections import Counter
from dataclasses import asdict, dataclass, field

from rdtoolkit.dgps import piecewise_balance_dgp, simulate_sample
from rdtoolkit.locrand import select_window
from rdtoolkit.parallel import run_indexed
from rdtoolkit.reports import make_report, write_report
from rdtoolkit.rng import substream

DEFAULT_CANDIDATES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class Config:
    n: int = 500
    replications: int = 500
    seed: int = 20260814
    balance_alpha: float = 0.15
    balanced_halfwidth: float = 0.5
    candidates: tuple[float, ...] = field(default=DEFAULT_CANDIDATES)
    threads: int = 1


def run(cfg: Config):
    dgp = piecewise_balance_dgp(window_halfwidth=cfg.balanced_halfwidth)

    def one(r):
        draw = int(substream(cfg.seed, 600, r).integers(0, 2 ** 63 - 1))
        s = simulate_sample(dgp, cfg.n, seed=draw)
        sel = select_window(s, candidates=list(cfg.candidates),
                            alpha=cfg.balance_alpha, seed=r)
        return sel.w_left, sel.no_balanced_window

    rows = run_indexed(one, cfg.replications, cfg.threads)
    widths = Counter(w for w, _ in rows)
    fallbacks = sum(1 for _, flag in rows if flag)
    return widths, fallbacks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=Config.n)
    ap.add_argument("--replications", type=int, default=Config.replications)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--balance-alpha", type=float,
                    default=Config.balance_alpha)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default=None, help="JSON report path")
    args = ap.parse_args()
    cfg = Config(n=args.n, replications=args.replications, seed=args.seed,
                 balance_alpha=args.balance_alpha,
                 threads=args.threads)

    widths, fallbacks = run(cfg)
    total = cfg.replications
    print(f"{'half-width':>10}{'count':>8}{'share':>9}")
    for w in sorted(widths):
        print(f"{w:>10.2f}{widths[w]:>8d}{widths[w] / total:>9.1%}")
    near = sum(c for w, c in widths.items() if 0.25 <= w <= 1.0)
    print(f"in [0.25, 1.00]: {near / total:.1%}   "
          f"no-balanced-window fallbacks: {fallbacks}")

    if args.out:
        result = {"selected_halfwidth_counts": dict(sorted(widths.items())),
                  "share_near_truth": near / total,
                  "fallbacks": fallbacks}
        write_report(args.out, make_report("window-selector-study", result,
                                           asdict(cfg), seed=cfg.seed))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
