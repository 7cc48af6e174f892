import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit.errors import EmptySide, RankDeficient
from rdtoolkit.lpoly import (
    LocalFit,
    fit_window,
    kernel_weight,
    polyfit_lstsq,
    side_window,
    vander,
)


def fit_side(x, y, cutoff, p, kernel, h):
    """Order-p fit of one side's observations: the kernel window of the
    scores centred at ``cutoff``, then the fit of that window."""
    xc = np.asarray(x, dtype=float) - cutoff
    return fit_window(side_window(xc, y, kernel, h), p)


def oracle_wls(x, y, cutoff, p, kernel, h):
    """Textbook WLS + HC1 sandwich, built from the normal equations.

    Deliberately a different code path from the implementation (which
    factors through a sqrt-weighted least-squares solve): explicit
    Gram-matrix inverse, explicit meat sum, loop-based design matrix.

    ``y`` may also be an (n, k) matrix of k responses.  Then beta is
    (p+1, k) and cov is the stacked sandwich over all k(p+1)
    coefficients, response-major: entry [i*(p+1)+a, j*(p+1)+b] pairs
    coefficient a of response i with coefficient b of response j.
    """
    u = (x - cutoff) / h
    if kernel == "triangular":
        w = np.maximum(1 - np.abs(u), 0.0)
    elif kernel == "uniform":
        w = 0.5 * (np.abs(u) <= 1)
    else:
        w = 0.75 * np.maximum(1 - u ** 2, 0.0)
    keep = w > 0
    xk, wk = x[keep] - cutoff, w[keep]
    n_eff = int(keep.sum())
    Y = y[keep].reshape(n_eff, -1)
    Z = np.column_stack([xk ** j for j in range(p + 1)])
    A_inv = np.linalg.inv(Z.T @ np.diag(wk) @ Z)
    beta = A_inv @ Z.T @ np.diag(wk) @ Y
    E = Y - Z @ beta
    dof = n_eff - (p + 1)
    scale = n_eff / dof if dof > 0 else 1.0
    cov = np.block([[A_inv @ (Z.T @ np.diag(wk ** 2 * E[:, i] * E[:, j]) @ Z)
                     @ A_inv * scale for j in range(Y.shape[1])]
                    for i in range(Y.shape[1])])
    if y.ndim == 1:
        beta = beta[:, 0]
    return beta, cov, n_eff


class TestKernelWeight:
    def test_hand_values(self):
        assert kernel_weight(np.array([0.0]), "triangular")[0] == 1.0
        assert kernel_weight(np.array([0.0]), "uniform")[0] == 0.5
        assert kernel_weight(np.array([0.0]), "epanechnikov")[0] == 0.75
        assert kernel_weight(np.array([0.5]), "triangular")[0] == 0.5
        assert kernel_weight(np.array([0.5]),
                             "epanechnikov")[0] == pytest.approx(0.5625)

    @pytest.mark.parametrize("kind", ["triangular", "uniform",
                                      "epanechnikov"])
    def test_zero_outside_support(self, kind):
        u = np.array([-1.5, 1.0001, 2.0, -7.0])
        assert (kernel_weight(u, kind) == 0).all()

    @pytest.mark.parametrize("kind", ["triangular", "uniform",
                                      "epanechnikov"])
    def test_symmetric(self, kind):
        u = np.linspace(-1, 1, 21)
        np.testing.assert_allclose(kernel_weight(u, kind),
                                   kernel_weight(-u, kind))

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            kernel_weight(np.array([0.0]), "gaussian")


class TestVander:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                           max_size=40),
           scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]),
           n=st.integers(1, 7))
    def test_bits_match_numpy(self, values, scale, n):
        # orders 0-6; the empty list is among the drawn inputs
        x = np.asarray(values, dtype=float) * scale
        got = vander(x, n)
        ref = np.vander(x, N=n, increasing=True)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


class TestFitAgainstOracle:
    @pytest.mark.parametrize("kernel", ["triangular", "uniform",
                                        "epanechnikov"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_beta_and_cov_match_bruteforce(self, p, kernel):
        rng = np.random.default_rng(31 + p)
        x = rng.uniform(0, 1, 40)
        y = rng.normal(0, 1, 40)
        fit = fit_side(x, y, 0.0, p=p, kernel=kernel, h=0.9)
        beta, cov, n_eff = oracle_wls(x, y, 0.0, p, kernel, 0.9)
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fit.cov, cov, rtol=1e-8, atol=1e-12)
        assert fit.n_eff == n_eff
        # two responses on shared weights: the same fits plus cross blocks
        ys = np.column_stack([y, np.cos(3 * x) + y])
        fit2 = fit_side(x, ys, 0.0, p=p, kernel=kernel, h=0.9)
        beta2, cov2, _ = oracle_wls(x, ys, 0.0, p, kernel, 0.9)
        np.testing.assert_allclose(fit2.beta, beta2, rtol=1e-9, atol=1e-12)
        stacked = fit2.cov.transpose(1, 0, 3, 2).reshape(cov2.shape)
        np.testing.assert_allclose(stacked, cov2, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(fit2.cov[:, 0, :, 0], fit.cov,
                                   rtol=1e-12, atol=1e-15)

    def test_exact_polynomial_recovery(self):
        x = np.linspace(0.01, 1, 25)
        coefs = [0.3, -1.2, 2.5]
        y = coefs[0] + coefs[1] * x + coefs[2] * x ** 2
        fit = fit_side(x, y, 0.0, p=2, kernel="triangular", h=2.0)
        np.testing.assert_allclose(fit.beta, coefs, atol=1e-10)

    def test_uniform_kernel_equals_unweighted_ols(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 0.5, 30)
        y = rng.normal(0, 1, 30)
        fit = fit_side(x, y, 0.0, p=1, kernel="uniform", h=1.0)
        coef = np.polynomial.polynomial.polyfit(x, y, 1)
        np.testing.assert_allclose(fit.beta, coef, atol=1e-10)


class TestFitContract:
    def test_empty_side_when_too_few_in_bandwidth(self):
        x = np.array([0.5, 0.6, 0.7])
        with pytest.raises(EmptySide):
            fit_side(x, x, 0.0, p=1, kernel="triangular", h=0.1)

    def test_needs_p_plus_one_points(self):
        x = np.array([0.1, 0.2])
        with pytest.raises(EmptySide):
            fit_side(x, x, 0.0, p=2, kernel="triangular", h=1.0)

    def test_rank_deficient_on_duplicate_x(self):
        x = np.full(10, 0.3)
        y = np.arange(10.0)
        with pytest.raises(RankDeficient):
            fit_side(x, y, 0.0, p=1, kernel="triangular", h=1.0)

    def test_global_fit_rank_rule(self):
        # three distinct scores support order 2, not order 3
        x = np.repeat([0.1, 0.2, 0.3], 4)
        y = x ** 2
        design, coefs = polyfit_lstsq(x, y, 2, "global fit")
        assert design.shape == (12, 3)
        np.testing.assert_allclose(design @ coefs, y, atol=1e-12)
        with pytest.raises(RankDeficient,
                           match="^global fit of order 3 is rank deficient$"):
            polyfit_lstsq(x, y, 3, "global fit")

    def test_condition_at_least_one(self):
        x = np.linspace(0.01, 1, 20)
        fit = fit_side(x, x, 0.0, p=1, kernel="triangular", h=1.5)
        assert fit.condition >= 1.0

    def test_derivative_scaling(self):
        # y = 2 + 3x + 4x^2: nu! * beta[nu] is the nu-th derivative at
        # the cutoff, 2, 3 and 8; a fit holds only what it computed
        x = np.linspace(0.01, 1, 30)
        y = 2 + 3 * x + 4 * x ** 2
        fit = fit_side(x, y, 0.0, p=2, kernel="uniform", h=2.0)
        np.testing.assert_allclose(fit.beta * [1, 1, 2], [2.0, 3.0, 8.0],
                                   atol=1e-9)
        assert fit.cov.shape == (3, 3)
        assert [f.name for f in dataclasses.fields(fit)] == \
            ["beta", "cov", "n_eff", "condition"]
        assert not [name for name, value in vars(LocalFit).items()
                    if callable(value) and not name.startswith("__")]


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=finite, b=st.floats(min_value=-100, max_value=100,
                                 allow_nan=False))
    def test_outcome_affine_equivariance(self, a, b):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 30)
        y = rng.normal(0, 1, 30)
        base = fit_side(x, y, 0.0, p=1, kernel="triangular", h=1.0)
        shifted = fit_side(x, a + b * y, 0.0, p=1, kernel="triangular",
                           h=1.0)
        assert shifted.beta[0] == pytest.approx(a + b * base.beta[0],
                                                rel=1e-9, abs=1e-7)
        assert shifted.beta[1] == pytest.approx(b * base.beta[1],
                                                rel=1e-9, abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(shift=st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_translation_invariance(self, shift):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, 30)
        y = rng.normal(0, 1, 30)
        base = fit_side(x, y, 0.0, p=1, kernel="triangular", h=1.0)
        moved = fit_side(x + shift, y, shift, p=1, kernel="triangular",
                         h=1.0)
        np.testing.assert_allclose(moved.beta, base.beta,
                                   rtol=1e-7, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=0.05, max_value=20, allow_nan=False))
    def test_bandwidth_score_joint_scaling(self, scale):
        # scaling scores and h together leaves the intercept unchanged
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, 30)
        y = rng.normal(0, 1, 30)
        base = fit_side(x, y, 0.0, p=1, kernel="triangular", h=0.8)
        scaled = fit_side(scale * x, y, 0.0, p=1, kernel="triangular",
                          h=0.8 * scale)
        assert scaled.beta[0] == pytest.approx(base.beta[0], rel=1e-9)
        assert scaled.n_eff == base.n_eff
