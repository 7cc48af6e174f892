import ast
import pathlib
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit import bandwidth as bandwidth_module
from rdtoolkit.bandwidth import (
    _silverman,
    ce_factor,
    kernel_constants,
    mse_constant,
    select_mse_bandwidth,
)
from rdtoolkit.dgps import (
    curved_benchmark,
    linear_dgp,
    oracle_mse_bandwidth,
    simulate_sample,
)
from rdtoolkit.errors import EmptySide, TooFewObservations
from rdtoolkit.sample import RdSample, ingest_csv

from conftest import make_sample, multi_cutoff_rows, write_csv


# Exact rational moments int_0^1 u^m K(u) du and int_0^1 u^m K(u)^2 du.
# Each kernel is polynomial on [0, 1], so both are rational numbers.
def _moment(kernel, m, squared=False):
    def ipow(k):  # int_0^1 u^(m+k) du
        return Fraction(1, m + k + 1)

    if kernel == "triangular":
        if squared:  # (1-u)^2 = 1 - 2u + u^2
            return ipow(0) - 2 * ipow(1) + ipow(2)
        return ipow(0) - ipow(1)
    if kernel == "uniform":
        half = Fraction(1, 2)
        return (half * half if squared else half) * ipow(0)
    if kernel == "epanechnikov":
        if squared:  # (3/4)^2 (1-u^2)^2 = 9/16 (1 - 2u^2 + u^4)
            return Fraction(9, 16) * (ipow(0) - 2 * ipow(2) + ipow(4))
        return Fraction(3, 4) * (ipow(0) - ipow(2))
    raise AssertionError(kernel)


def _solve_exact(matrix, rhs):
    # Gaussian elimination in exact rational arithmetic
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def exact_constants(p, kernel):
    gamma = [[_moment(kernel, j + k) for k in range(p + 1)]
             for j in range(p + 1)]
    psi = [[_moment(kernel, j + k, squared=True) for k in range(p + 1)]
           for j in range(p + 1)]
    theta = [_moment(kernel, p + 1 + j) for j in range(p + 1)]
    e0 = [Fraction(1)] + [Fraction(0)] * p
    a = _solve_exact(gamma, e0)
    b_k = sum(ai * ti for ai, ti in zip(a, theta))
    v_k = sum(a[j] * psi[j][k] * a[k]
              for j in range(p + 1) for k in range(p + 1))
    return b_k, v_k


KERNELS = ["triangular", "uniform", "epanechnikov"]


class TestKernelConstants:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_match_exact_rational_oracle(self, p, kernel):
        b_k, v_k = kernel_constants(p, kernel)
        b_exact, v_exact = exact_constants(p, kernel)
        assert b_k == pytest.approx(float(b_exact), abs=1e-12)
        assert v_k == pytest.approx(float(v_exact), abs=1e-10)

    def test_triangular_local_linear_hand_values(self):
        b_k, v_k = kernel_constants(1, "triangular")
        assert b_k == pytest.approx(-0.1, abs=1e-12)
        assert v_k == pytest.approx(4.8, abs=1e-10)

    def test_mse_constant_hand_value(self):
        # 2 * 4.8 * (2!)^2 / (2*2*0.01) = 960; C = 960^(1/5)
        assert mse_constant(1, "triangular") == pytest.approx(
            960.0 ** 0.2, abs=1e-10)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_mse_constant_from_exact_parts(self, p, kernel):
        b_k, v_k = exact_constants(p, kernel)
        expected = (2.0 * float(v_k) * factorial(p + 1) ** 2
                    / (2.0 * (p + 1) * float(b_k) ** 2)) ** (1 / (2 * p + 3))
        assert mse_constant(p, kernel) == pytest.approx(expected, rel=1e-10)


class TestCeFactor:
    @pytest.mark.parametrize("n", [100, 1000, 54321])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_closed_form(self, n, p):
        assert ce_factor(n, p) == n ** (-p / ((3.0 + p) * (3.0 + 2.0 * p)))

    def test_p_zero_no_shrink(self):
        assert ce_factor(1000, 0) == 1.0

    def test_select_ce_is_exact_multiple(self):
        dgp = curved_benchmark()
        s = simulate_sample(dgp, 800, seed=3)
        sel = select_mse_bandwidth(s)
        assert sel.h_ce == sel.h_mse * ce_factor(s.n, 1)


class TestPlugIn:
    def test_reported_pilots_reconstruct_h(self):
        # the closed form recomputed from the audited pilot values must
        # reproduce the selector output bit-for-bit
        s = simulate_sample(curved_benchmark(), 900, seed=11)
        sel = select_mse_bandwidth(s)
        assert not sel.degenerate
        bias2 = sel.curvature_difference ** 2
        v = sel.pilot_variance / (sel.density_at_cutoff * bias2 * s.n)
        expected = sel.kernel_constant * v ** 0.2
        assert sel.h_mse == pytest.approx(expected, rel=1e-12)

    def test_score_scale_equivariance(self):
        s = simulate_sample(curved_benchmark(), 700, seed=5)
        scaled = RdSample(score=s.score * 3.0, outcome=s.outcome.copy(),
                          cutoff=0.0)
        a = select_mse_bandwidth(s)
        b = select_mse_bandwidth(scaled)
        assert b.h_mse == pytest.approx(3.0 * a.h_mse, rel=1e-9)

    def test_outcome_scale_invariance(self):
        s = simulate_sample(curved_benchmark(), 700, seed=5)
        a = select_mse_bandwidth(s)
        b = select_mse_bandwidth(s.replace_outcome(10.0 * s.outcome))
        assert b.h_mse == pytest.approx(a.h_mse, rel=1e-9)

    def test_degenerate_curvature_flagged(self):
        # exactly linear outcome: curvature pilots vanish
        x = np.linspace(-1, 1, 200)
        s = make_sample(x, 0.5 * x)
        sel = select_mse_bandwidth(s)
        assert sel.degenerate
        assert sel.h_mse == pytest.approx(np.ptp(x) / 4.0)

    def test_h_never_exceeds_score_range(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.1, 0.1, 400)
        y = rng.normal(0, 5.0, 400)  # huge noise pushes h up
        sel = select_mse_bandwidth(make_sample(x, y))
        assert sel.h_mse <= np.ptp(x)

    def test_too_few_observations(self):
        x = np.linspace(-1, 1, 20)
        with pytest.raises(TooFewObservations):
            select_mse_bandwidth(make_sample(x, x ** 2))

    def test_needs_both_sides(self):
        x = np.linspace(0.1, 1, 50)
        with pytest.raises(EmptySide):
            select_mse_bandwidth(make_sample(x, x ** 2))

    def test_deterministic(self):
        s = simulate_sample(curved_benchmark(), 600, seed=2)
        assert select_mse_bandwidth(s) == select_mse_bandwidth(s)


def silverman_reference(x):
    """The Silverman pilot with numpy's percentile quartiles."""
    sd = float(np.std(x))
    q75, q25 = np.percentile(x, (75, 25))
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.349) if iqr > 0 else sd
    return 1.06 * spread * x.shape[0] ** (-0.2)


class TestSilverman:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                              st.floats(-1e6, 1e6, allow_nan=False)),
                    min_size=1, max_size=60))
    def test_bits_match_percentile_reference(self, values):
        x = np.asarray(values, dtype=float)
        assert _silverman(x).hex() == silverman_reference(x).hex()


class TestOracle:
    def test_u_shape_and_interior_min_on_benchmark(self):
        dgp = curved_benchmark()
        grid = [0.1, 0.15, 0.2, 0.3, 0.5, 0.8]
        o = oracle_mse_bandwidth(dgp, 1, "triangular", grid, n=600,
                                 replications=120, seed=4)
        assert o.mse.shape == (6,)
        assert 0 < int(np.argmin(o.mse)) < 5  # interior minimum
        assert o.best_h == grid[int(np.argmin(o.mse))]

    def test_thread_count_does_not_change_result(self):
        dgp = linear_dgp(slope=0.3, tau=0.5, noise_sd=0.4)
        kw = dict(grid=[0.2, 0.4], n=300, replications=100, seed=9)
        a = oracle_mse_bandwidth(dgp, 1, "triangular", **kw)
        b = oracle_mse_bandwidth(dgp, 1, "triangular", threads=3, **kw)
        np.testing.assert_array_equal(a.mse, b.mse)
        assert a.best_h == b.best_h

    def test_failures_counted_per_bandwidth(self):
        dgp = linear_dgp(slope=0.3, tau=0.5, noise_sd=0.4)
        o = oracle_mse_bandwidth(dgp, 1, "triangular",
                                 grid=[0.12, 0.5], n=40,
                                 replications=100, seed=1)
        # ~2.4 points per side land inside h=0.12, so some replications
        # lack the 2 needed for a linear fit, but not all of them
        assert 0 < o.n_failed[0] < 100
        assert o.n_failed[1] == 0

    def test_all_failed_bandwidth_raises(self):
        dgp = linear_dgp(slope=0.3, tau=0.5, noise_sd=0.4)
        with pytest.raises(TooFewObservations):
            oracle_mse_bandwidth(dgp, 1, "triangular", grid=[1e-6], n=40,
                                 replications=100, seed=1)

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            oracle_mse_bandwidth(linear_dgp(), 1, "triangular", [0.5],
                                 n=100, replications=50, seed=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            oracle_mse_bandwidth(linear_dgp(), 1, "triangular", [],
                                 n=100, replications=100, seed=0)
        with pytest.raises(ValueError):
            oracle_mse_bandwidth(linear_dgp(), 1, "triangular", [-0.5],
                                 n=100, replications=100, seed=0)


def test_multi_cutoff_pilot_reads_centred_score(tmp_path):
    # the Silverman pilot must see X - C, not the spread of the cutoffs
    x, y, c = multi_cutoff_rows()
    raw = write_csv(tmp_path / "raw.csv", ["x", "y", "c"], zip(x, y, c))
    centred = write_csv(tmp_path / "centred.csv", ["x", "y"], zip(x - c, y))
    multi = ingest_csv(raw, {"score": "x", "outcome": "y", "cutoff": "c"})
    single = ingest_csv(centred, {"score": "x", "outcome": "y"})
    assert select_mse_bandwidth(multi) == select_mse_bandwidth(single)


def test_selector_imports_no_monte_carlo_layer():
    # the selector stands on the fit kernel alone; the Monte Carlo
    # oracle that audits it lives in dgps
    tree = ast.parse(pathlib.Path(bandwidth_module.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative == {"errors", "lpoly", "sample"}
