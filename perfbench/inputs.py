"""Seeded CSV inputs for the benchmark workloads.

One draw from the curved benchmark with one-sided compliance and two
smooth covariates, in the layout of ``scripts/make_demo_data.py``:
columns ``score,outcome,received,age,income`` with the same rounding.

The generator is plain numpy and owned by the benchmark.  The
coefficients are copied from ``rdtoolkit.dgps.curved_benchmark`` rather
than drawn through ``rdtoolkit.simulate_sample``, so a change to the
package's simulation code cannot change the bytes the benchmark feeds
the program, and two commits can be shown to have read identical files
by the SHA-256 recorded for each.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

COLUMNS = ("score", "outcome", "received", "age", "income")

# Side-wise quintic means of the curved benchmark (true jump 0.04).
_BELOW = (0.48, 1.27, 7.18, 20.21, 21.54, 7.33)
_ABOVE = (0.52, 0.84, -3.00, 7.99, -18.0, 8.5)
_NOISE_SD = 0.1295
_REFUSAL = 0.2          # treated-side units refuse with this probability
_CHUNK = 100_000        # rows formatted per write


def _poly(coefs, x):
    out = np.zeros_like(x)
    for c in reversed(coefs):
        out = out * x + c
    return out


def draw(n: int, seed: int) -> dict[str, np.ndarray]:
    """Columns of an n-row sample; the same (n, seed) gives the same draw.

    Draw order is fixed: score, compliance, noise, age, income.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(n)]))
    x = rng.uniform(-1.0, 1.0, n)
    received = ((x >= 0.0) & (rng.random(n) >= _REFUSAL)).astype(np.int8)
    mean = np.where(received == 1, _poly(_ABOVE, x), _poly(_BELOW, x))
    outcome = mean + _NOISE_SD * rng.standard_normal(n)
    age = 40.0 + 5.0 * x + rng.normal(0.0, 3.0, n)
    income = np.exp(10.0 + 0.2 * x + rng.normal(0.0, 0.3, n))
    return {"score": x, "outcome": outcome, "received": received,
            "age": age, "income": income}


def write_csv(path, n: int, seed: int) -> str:
    """Write the n-row sample for ``seed`` to ``path``; return its SHA-256."""
    cols = draw(n, seed)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        header = (",".join(COLUMNS) + "\n").encode("ascii")
        fh.write(header)
        digest.update(header)
        for start in range(0, n, _CHUNK):
            part = [cols[name][start:start + _CHUNK].tolist()
                    for name in COLUMNS]
            block = "".join(
                f"{x:.6f},{y:.6f},{d},{a:.4f},{m:.2f}\n"
                for x, y, d, a, m in zip(*part)).encode("ascii")
            fh.write(block)
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="Write one seeded input CSV "
                                             "and print its SHA-256.")
    ap.add_argument("path")
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(write_csv(args.path, args.rows, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
