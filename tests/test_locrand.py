import dataclasses
import hashlib
import tracemalloc
from unittest import mock
from fractions import Fraction
from itertools import combinations, product
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit import locrand
from rdtoolkit.cli import build_parser, cmd_locrand
from rdtoolkit.errors import (
    EmptyGroup,
    MissingTreatmentColumn,
    TooFewObservations,
    WeakFirstStage,
)
from rdtoolkit.locrand import (
    Bernoulli,
    FixedMargins,
    diff_in_means,
    fisher_ci,
    fisher_pvalue,
    fuzzy_locrand,
    make_window,
    neyman_ci,
    select_window,
)
from rdtoolkit.rng import substream
from rdtoolkit.validation import covariate_balance, run_battery

from conftest import make_sample, write_csv


def window_all(sample):
    w = float(np.max(np.abs(sample.score))) + 1.0
    return make_window(sample, w)


def enumerate_fixed_margins_pvalue(y, n_plus):
    """Independent oracle: exhaustive diff-in-means enumeration."""
    n = len(y)
    idx = range(n)
    s_obs = (sum(y[i] for i in idx[:0]) if False else None)
    obs_plus = list(range(n - n_plus, n))  # caller arranges treated last
    def stat(plus):
        plus = set(plus)
        yp = [y[i] for i in idx if i in plus]
        ym = [y[i] for i in idx if i not in plus]
        return sum(yp) / len(yp) - sum(ym) / len(ym)
    s_obs = stat(obs_plus)
    total = 0
    extreme = 0
    for plus in combinations(idx, n_plus):
        total += 1
        if abs(stat(plus)) >= abs(s_obs) - 1e-12:
            extreme += 1
    return Fraction(extreme, total), s_obs


class TestWindow:
    def test_counts(self):
        s = make_sample([-0.9, -0.4, -0.1, 0.0, 0.3, 0.8], range(6))
        w = make_window(s, 0.5)
        assert (w.lower, w.upper) == (-0.5, 0.5)
        # the unit at exactly the cutoff counts in n_plus
        assert w.n_w == 4 and w.n_plus == 2 and w.n_minus == 2

    def test_asymmetric(self):
        s = make_sample([-0.9, -0.4, 0.3, 0.8], range(4))
        w = make_window(s, 0.5, 1.0)
        assert w.n_minus == 1 and w.n_plus == 2

    def test_positive_width_required(self):
        s = make_sample([-1.0, 1.0], [0, 1])
        with pytest.raises(ValueError):
            make_window(s, -0.5)

    @pytest.mark.parametrize("widths", [
        (float("inf"),), (float("nan"),), (0.5, float("inf")),
        (float("nan"), 0.5)])
    def test_finite_width_required(self, widths):
        # inf used to give a window over every unit with null bounds
        s = make_sample([-1.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="finite"):
            make_window(s, *widths)

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(-500, 500), w=st.integers(1, 60),
           offsets=st.lists(st.integers(-80, 80), max_size=10))
    def test_one_membership_rule_at_the_edges(self, c, w, offsets):
        # cutoff, half-width and scores on a 0.01 grid, with units at
        # c - w and c + w: the counts and the units a test analyses
        # follow lower <= score <= upper on the bounds the report prints
        x = np.array([c - w, c + w, *(c + k for k in offsets)]) / 100
        s = make_sample(x, np.arange(x.size), cutoff=c / 100)
        win = make_window(s, w / 100)
        inside = (s.score >= win.lower) & (s.score <= win.upper)
        assert win.n_w == np.count_nonzero(inside)
        assert win.n_plus == np.count_nonzero(inside & (s.score >= s.cutoff))
        if 0 < win.n_plus < win.n_w:
            total = fisher_pvalue(s, win).total
            assert total == comb(win.n_w, win.n_plus)


class TestFisherExhaustive:
    def test_three_unit_hand_example(self):
        # scores place one unit above the cutoff; outcomes 1, 2, 3.
        # Observed S = 3 - 1.5 = 1.5; assignments put each unit above in
        # turn giving |S| in {1.5, 0.0, 1.5} -> p = 2/3.
        s = make_sample([-0.6, -0.3, 0.2], [1.0, 2.0, 3.0])
        res = fisher_pvalue(s, window_all(s))
        assert res.exact
        assert res.total == 3
        assert res.extreme_count == 2
        assert res.p_value == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert res.statistic_observed == pytest.approx(1.5)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(23)
        y = list(rng.normal(0, 1, 9).round(3))
        x = [-1.0] * 5 + [1.0] * 4  # treated last, matches oracle layout
        s = make_sample(x, y)
        res = fisher_pvalue(s, window_all(s))
        p_oracle, s_obs = enumerate_fixed_margins_pvalue(y, 4)
        assert res.exact
        assert res.p_value == pytest.approx(float(p_oracle), abs=1e-12)
        assert res.statistic_observed == pytest.approx(s_obs, abs=1e-12)

    def test_all_equal_outcomes_p_one(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [2.0, 2.0, 2.0, 2.0])
        res = fisher_pvalue(s, window_all(s))
        assert res.p_value == 1.0

    def test_observed_statistic_goes_through_ensemble_path(self):
        # the observed assignment appears among the enumerated ones, so
        # its statistic must tie with itself bit-for-bit
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 8)
        s = make_sample(np.r_[np.full(4, -1.0), np.full(4, 1.0)], y)
        res = fisher_pvalue(s, window_all(s))
        assert res.extreme_count >= 1  # observed always counted


def _exact_stat(yq, plus):
    """Difference in means over a treated index set, in rationals."""
    sp = sum(yq[i] for i in plus)
    return sp / len(plus) - (sum(yq) - sp) / (len(yq) - len(plus))


class TestObservedCounted:
    """The observed assignment ties with itself, so it always counts as
    extreme; checked against enumeration in rational arithmetic."""

    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_margins_more_treated_than_control(self, seed):
        # 6 treated of 9, more treated than control: all C(9, 6) = 84
        # treated sets are enumerated, the observed one among them
        rng = np.random.default_rng(seed)
        for _ in range(15):
            x = rng.permutation(np.r_[-np.arange(1, 4), np.arange(1, 7)])
            y = rng.normal(0, 1, 9)
            res = fisher_pvalue(make_sample(x, y),
                                make_window(make_sample(x, y), 10.0))
            yq = [Fraction(v) for v in y]
            s_obs = abs(_exact_stat(yq, np.flatnonzero(x > 0)))
            count = sum(abs(_exact_stat(yq, plus)) >= s_obs
                        for plus in combinations(range(9), 6))
            assert res.exact and res.total == 84
            assert res.extreme_count == count

    @pytest.mark.parametrize("seed", range(3))
    def test_bernoulli_between_rational_bounds(self, seed):
        # complements tie in exact arithmetic but not always in floats,
        # so p lies between the strict count plus the observed
        # assignment and the count with all exact ties
        rng = np.random.default_rng(seed)
        n = 8
        for _ in range(20):
            x = rng.uniform(-1, 1, n)
            t = (x >= 0).astype(int)
            if t.sum() in (0, n):
                continue
            y = rng.normal(0, 1, n)
            prob = float(rng.uniform(0.2, 0.8))
            res = fisher_pvalue(make_sample(x, y),
                                make_window(make_sample(x, y), 2.0),
                                model=Bernoulli(prob))
            yq = [Fraction(v) for v in y]
            q = Fraction(prob)
            s_obs = abs(_exact_stat(yq, np.flatnonzero(t)))
            total = strict = ties = Fraction(0)
            for bits in product([0, 1], repeat=n):
                k = sum(bits)
                if k in (0, n):
                    continue
                w = q ** k * (1 - q) ** (n - k)
                s = abs(_exact_stat(yq, np.flatnonzero(bits)))
                total += w
                strict += w if s > s_obs else 0
                ties += w if s == s_obs else 0
            k_obs = int(t.sum())
            w_obs = q ** k_obs * (1 - q) ** (n - k_obs)
            assert res.exact
            assert float((strict + w_obs) / total) - 1e-12 <= res.p_value
            assert res.p_value <= float((strict + ties) / total) + 1e-12


@st.composite
def _design(draw):
    """Outcomes and an assignment with both groups non-empty."""
    n = draw(st.integers(2, 8))
    y = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    t = draw(st.lists(st.booleans(), min_size=n, max_size=n)
             .filter(lambda t: 0 < sum(t) < len(t)))
    return np.asarray(y), np.asarray(t, dtype=np.int8)


def _rows(agg, r, studentized):
    """The subset sums of response r of an ensemble's ``agg``: n1, m and
    that response's sY (and sTY, sY2 when studentized)."""
    k = 3 if studentized else 1
    return agg[[0, 1, *range(2 + k * r, 2 + k * (r + 1))]]


class TestEnsemble:
    @settings(max_examples=60, deadline=None)
    @given(_design(), st.sampled_from([FixedMargins(), Bernoulli(0.3)]))
    def test_observed_column_is_its_enumerated_column(self, design, model):
        # column 0 is the observed assignment; enumeration reaches the
        # same assignment again, and the two columns agree bit for bit
        y, t = design
        sums, *_ = locrand._build_ensemble([y], t, model, 10 ** 6, 0, 0,
                                           True)
        if isinstance(model, FixedMargins):
            subsets = list(combinations(range(len(t)), int(t.sum())))
            column = 1 + subsets.index(tuple(np.flatnonzero(t)))
        else:
            column = int(sum(int(b) << i for i, b in enumerate(t)))
        assert sums.shape[0] == 5
        assert sums[:, column].tobytes() == sums[:, 0].tobytes()

    @staticmethod
    def _sources():
        rng = np.random.default_rng(12)
        y9, y30 = rng.normal(0, 1, 9), rng.normal(0, 1, 30)
        t9 = np.r_[np.zeros(4), np.ones(5)]
        t30 = (rng.uniform(size=30) < 0.4).astype(float)
        y300 = rng.normal(0, 1, 300)
        t300 = (rng.uniform(size=300) < 0.45).astype(float)
        # (y, t, model, max_exhaustive, draws, seed)
        return {"fixed_exact": (y9, t9, FixedMargins(), 10 ** 6, 0, 0),
                "fixed_draws": (y30, t30, FixedMargins(), 10, 101, 3),
                # many rows per whole block, and two whole blocks
                "fixed_draws_rows": (y300, t300, FixedMargins(), 10, 1001,
                                     5),
                "bernoulli_exact": (y9, t9, Bernoulli(0.4), 10 ** 6, 0, 0),
                "bernoulli_draws": (y9[:5], t9[:5], Bernoulli(0.5), 10, 300,
                                    4)}

    @pytest.mark.parametrize("source", ["fixed_exact", "fixed_draws",
                                        "fixed_draws_rows",
                                        "bernoulli_exact",
                                        "bernoulli_draws"])
    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_block_size_does_not_change_bits(self, monkeypatch, source,
                                             cells):
        y, *args = self._sources()[source]
        whole, whole_w, *_ = locrand._build_ensemble([y], *args, True)
        monkeypatch.setattr(locrand, "_BLOCK_CELLS", cells)
        blocks, blocks_w, *_ = locrand._build_ensemble([y], *args, True)
        assert blocks.tobytes() == whole.tobytes()
        assert (whole_w is None) == (blocks_w is None)
        if whole_w is not None:
            assert blocks_w.tobytes() == whole_w.tobytes()

    @pytest.mark.parametrize("source", ["fixed_exact", "fixed_draws",
                                        "fixed_draws_rows"])
    def test_fixed_margins_treated_count_is_n_plus(self, source):
        # every fixed-margins assignment, enumerated or drawn, treats
        # n_plus units; the row holds exactly the float a sum would give
        y, t, *args = self._sources()[source]
        agg, _, exact, total = locrand._build_ensemble([y], t, *args)
        assert exact == (source == "fixed_exact")
        assert agg[0].tobytes() == np.full(total + 1, t.sum()).tobytes()

    def test_fixed_margins_draws_are_the_smallest_uniforms(self,
                                                           monkeypatch):
        # reference: the n_plus smallest of each row of one draw of all
        # the uniforms, sorted, each block's rows read by _smallest
        y, t, model, _, draws, seed = self._sources()["fixed_draws_rows"]
        n, n_plus = t.size, int(t.sum())
        u = substream(seed).random((draws, n))
        idx = np.sort(np.argpartition(u, n_plus - 1, axis=1)[:, :n_plus],
                      axis=1)
        rows = []
        smallest = locrand._smallest

        def counted(u, k):
            rows.append(u.shape[0])
            return smallest(u, k)

        monkeypatch.setattr(locrand, "_smallest", counted)
        agg, *_ = locrand._build_ensemble([y], t, model, 10, draws, seed)
        assert len(rows) > 1 and sum(rows) == draws
        assert agg[1, 1:].tobytes() == t[idx].sum(axis=1).tobytes()
        assert agg[2, 1:].tobytes() == y[idx].sum(axis=1).tobytes()

    def test_bernoulli_draws_redraw_degenerate_rows_in_order(self):
        # reference: all draws at once, then the degenerate rows redrawn
        # in row order from the same stream until none is left
        y, t, model, _, draws, seed = self._sources()["bernoulli_draws"]
        rng = substream(seed)
        mat = rng.random((draws, 5)) < model.prob
        assert np.any(mat.sum(axis=1) % 5 == 0)  # the redraw runs
        while (bad := np.flatnonzero(mat.sum(axis=1) % 5 == 0)).size:
            mat[bad] = rng.random((bad.size, 5)) < model.prob
        agg, *_ = locrand._build_ensemble([y], t, model, 10, draws, seed)
        n1, s_y = agg[0], agg[2]
        assert np.array_equal(n1[1:], mat.sum(axis=1))
        assert np.array_equal(s_y[1:], np.where(mat, y, 0.0).sum(1))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9), k=st.integers(1, 3),
           model=st.sampled_from([FixedMargins(), Bernoulli(0.5),
                                  Bernoulli(0.3)]),
           exact=st.booleans(), studentized=st.booleans(),
           cells=st.sampled_from([1, 7, 64]))
    def test_shared_stream_matches_single_builds(self, data, n, k, model,
                                                 exact, studentized, cells):
        # each response of a shared ensemble equals its own build bit
        # for bit, whatever the block size; Monte Carlo Bernoulli draws
        # of a few units redraw degenerate rows
        t = np.asarray(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
            .filter(lambda t: 0 < sum(t) < len(t))), dtype=np.int8)
        ys = [np.asarray(data.draw(st.lists(st.floats(-1e6, 1e6),
                                            min_size=n, max_size=n)))
              for _ in range(k)]
        args = (t, model, 10 ** 6 if exact else 1, 0 if exact else 40,
                data.draw(st.integers(0, 2 ** 31)), studentized)
        with mock.patch.object(locrand, "_BLOCK_CELLS", cells):
            agg, weights, *rest = locrand._build_ensemble(ys, *args)
        assert agg.shape[0] == 2 + k * (3 if studentized else 1)
        for r, y in enumerate(ys):
            single, single_w, *single_rest = locrand._build_ensemble(
                [y], *args)
            assert single.shape[0] == (5 if studentized else 3)
            assert _rows(agg, r, studentized).tobytes() == single.tobytes()
            assert (weights is None) == (single_w is None)
            if single_w is not None:
                assert weights.tobytes() == single_w.tobytes()
            assert rest == single_rest  # exact, total
        # each response's results from the shared ensemble equal its own
        # test's; the test needs draws >= 1, which enumeration ignores
        stat = "studentized" if studentized and 2 <= t.sum() <= n - 2 \
            else "diff_means"
        test_args = (t, model, stat, args[2], max(args[3], 1), args[4],
                     (0.0, 1.5))
        with mock.patch.object(locrand, "_BLOCK_CELLS", cells):
            shared = locrand._fisher_tests(ys, *test_args)
        for y, results in zip(ys, shared):
            assert results == locrand._fisher_tests([y], *test_args)[0]

    def test_monte_carlo_memory_bounded(self):
        # draws x n_w is 5e6 cells (40 MB as floats); the ensemble keeps
        # its subset sums per draw and one block of treated sets
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 5_000)
        s = make_sample(x, rng.normal(0, 1, 5_000))
        window = make_window(s, 1.0)
        tracemalloc.start()
        try:
            res = fisher_pvalue(s, window, draws=999, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert window.n_w == 5_000 and not res.exact
        assert peak < 16 * 2 ** 20

    def test_shared_stream_memory_bounded(self):
        # three responses of 5,000 units share one stream of 999 draws:
        # the block is gathered once per sum, never for all at once
        rng = np.random.default_rng(0)
        t = (rng.uniform(size=5_000) < 0.5).astype(np.int8)
        ys = [rng.normal(0, 1, 5_000) for _ in range(3)]
        tracemalloc.start()
        try:
            agg, _, exact, _ = locrand._build_ensemble(
                ys, t, FixedMargins(), locrand.MAX_EXHAUSTIVE, 999, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert agg.shape[0] == 2 + 3 and not exact
        assert peak < 16 * 2 ** 20


class TestSmallest:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(1, 12),
           levels=st.integers(1, 4))
    def test_rows_of_the_k_smallest(self, data, rows, n, levels):
        # few distinct values, so rows that tie across their k-th value
        # are common
        k = data.draw(st.integers(1, n))
        u = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, levels), min_size=n, max_size=n),
            min_size=rows, max_size=rows)), dtype=float) / levels
        idx = locrand._smallest(u, k)
        assert idx.shape == (rows, k)
        kth = np.sort(u, axis=1)[:, k - 1:k]
        for row, values, cut in zip(idx, u, kth[:, 0]):
            assert np.all(np.diff(row) > 0)  # ascending, distinct
            below = np.flatnonzero(values < cut)
            tied = np.flatnonzero(values == cut)
            # all units below the k-th value, then the lowest-index ties
            expect = np.sort(np.r_[below, tied[:k - below.size]])
            assert np.array_equal(row, expect)
            if tied.size == 1:  # a unique k-th value
                assert np.array_equal(row, np.sort(np.argpartition(
                    values, k - 1)[:k]))


class TestFisherMonteCarlo:
    def _sample(self, n=18, seed=1):
        rng = np.random.default_rng(seed)
        x = np.r_[-rng.uniform(0.1, 1, n // 2), rng.uniform(0.1, 1, n // 2)]
        y = rng.normal(0, 1, n)
        return make_sample(x, y)

    def test_forced_mc_close_to_exhaustive(self):
        s = self._sample()
        exact = fisher_pvalue(s, window_all(s), max_exhaustive=200000)
        mc = fisher_pvalue(s, window_all(s), max_exhaustive=10,
                           draws=9999, seed=5)
        assert exact.exact and not mc.exact
        assert mc.p_value == pytest.approx(exact.p_value, abs=0.05)

    def test_add_one_estimator(self):
        s = self._sample()
        mc = fisher_pvalue(s, window_all(s), max_exhaustive=10, draws=999,
                           seed=2)
        assert mc.draws == 999
        # (count+1)/(draws+1) means p is a multiple of 1/1000 and > 0
        assert mc.p_value > 0
        assert (mc.p_value * 1000) == pytest.approx(
            round(mc.p_value * 1000), abs=1e-9)

    def test_seed_determinism(self):
        s = self._sample()
        a = fisher_pvalue(s, window_all(s), max_exhaustive=10, draws=999,
                          seed=7)
        b = fisher_pvalue(s, window_all(s), max_exhaustive=10, draws=999,
                          seed=7)
        c = fisher_pvalue(s, window_all(s), max_exhaustive=10, draws=999,
                          seed=8)
        assert a.p_value == b.p_value
        assert a.p_value != c.p_value or a.extreme_count != c.extreme_count


class TestBernoulli:
    def test_exhaustive_matches_weighted_enumeration(self):
        y = [1.0, 2.0, 4.5]
        s = make_sample([-0.6, -0.3, 0.2], y)
        prob = 0.3
        res = fisher_pvalue(s, window_all(s), model=Bernoulli(prob))
        assert res.exact

        # oracle: all 2^3 - 2 non-degenerate vectors, weight p^k(1-p)^(n-k)
        s_obs = y[2] - (y[0] + y[1]) / 2
        num = den = 0.0
        for t in product([0, 1], repeat=3):
            k = sum(t)
            if k in (0, 3):
                continue
            w = prob ** k * (1 - prob) ** (3 - k)
            yp = [yi for yi, ti in zip(y, t) if ti]
            ym = [yi for yi, ti in zip(y, t) if not ti]
            stat = sum(yp) / len(yp) - sum(ym) / len(ym)
            den += w
            if abs(stat) >= abs(s_obs) - 1e-12:
                num += w
        assert res.p_value == pytest.approx(num / den, abs=1e-12)

    def test_mc_draws_are_non_degenerate(self):
        rng = np.random.default_rng(4)
        n = 24
        s = make_sample(np.r_[-rng.uniform(0.1, 1, 12),
                              rng.uniform(0.1, 1, 12)], rng.normal(0, 1, n))
        res = fisher_pvalue(s, window_all(s), model=Bernoulli(0.5),
                            max_exhaustive=10, draws=499, seed=3)
        assert not res.exact
        assert 0 < res.p_value <= 1

    @pytest.mark.parametrize("prob", [1e-9, 1e-300, 1 - 1e-9])
    def test_mc_refuses_a_prob_that_nearly_always_empties_a_group(self,
                                                                  prob):
        # every draw that leaves a group empty is redrawn; under these
        # probabilities nearly every draw does, and the test used to run
        # without end
        s = make_sample(np.linspace(-1, 1, 30), np.arange(30.0))
        with pytest.raises(EmptyGroup, match=f"prob {prob} .* share "):
            fisher_pvalue(s, window_all(s), model=Bernoulli(prob),
                          max_exhaustive=0, draws=99)
        # enumeration never draws an empty group, so it still runs
        small = make_sample(np.linspace(-1, 1, 6), np.arange(6.0))
        assert fisher_pvalue(small, window_all(small), model=Bernoulli(prob),
                             max_exhaustive=64).exact

    def test_window_selection_refuses_the_same_prob(self):
        with pytest.raises(EmptyGroup, match="prob 1e-09"):
            select_window(balance_data(), candidates=[0.5],
                          model=Bernoulli(1e-9), seed=1)

    def test_balanced_bernoulli_half_equals_fixed_margins_means(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 4.0])
        w = window_all(s)
        fm = diff_in_means(s, w, model=FixedMargins())
        bn = diff_in_means(s, w, model=Bernoulli(0.5))
        assert fm.tau_hat == bn.tau_hat  # n_plus = n/2 exactly


class TestDiffInMeans:
    def test_group_means_neyman(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0])
        est = diff_in_means(s, window_all(s))
        assert est.ybar_plus == 4.0 and est.ybar_minus == 1.5
        assert est.tau_hat == 2.5

    def test_horvitz_thompson_under_bernoulli(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0])
        est = diff_in_means(s, window_all(s), model=Bernoulli(0.25))
        assert est.ybar_plus == pytest.approx((3 + 5) / (4 * 0.25))
        assert est.ybar_minus == pytest.approx((1 + 2) / (4 * 0.75))

    def test_superpop_weights_are_group_means_for_bernoulli(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0])
        est = diff_in_means(s, window_all(s), model=Bernoulli(0.25),
                            framework="superpop")
        assert est.tau_hat == 2.5

    def test_empty_group_raises(self):
        s = make_sample([0.1, 0.2, 0.3], [1, 2, 3])
        with pytest.raises(EmptyGroup):
            diff_in_means(s, window_all(s))

    def test_fuzzy_ratio(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0],
                        received=[0, 0, 1, 0])
        est = fuzzy_locrand(s, window_all(s))
        # reduced 2.5, first stage 0.5 - 0 = 0.5
        assert est.tau_hat == pytest.approx(5.0)
        assert est.dbar_plus == 0.5 and est.dbar_minus == 0.0

    def test_fuzzy_needs_a_treatment_column(self):
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0])
        with pytest.raises(MissingTreatmentColumn):
            fuzzy_locrand(s, window_all(s))

    def test_fuzzy_rejects_a_weak_first_stage(self):
        # every unit is treated, so receipt does not move at the cutoff
        s = make_sample([-0.5, -0.2, 0.1, 0.4], [1.0, 2.0, 3.0, 5.0],
                        received=[1, 1, 1, 1])
        with pytest.raises(WeakFirstStage, match="receipt contrast 0 "):
            fuzzy_locrand(s, window_all(s))


class TestNeyman:
    def test_hand_se(self):
        s = make_sample([-0.6, -0.3, 0.2, 0.5], [1.0, 3.0, 4.0, 6.0])
        res = neyman_ci(s, window_all(s))
        # s2 = 2 in both groups: se = sqrt(2/2 + 2/2) = sqrt(2)
        assert res.se == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert res.estimate.tau_hat == pytest.approx(3.0)
        lo, hi = res.ci
        assert lo == pytest.approx(3.0 - 1.959963984540054 * np.sqrt(2))
        assert hi == pytest.approx(3.0 + 1.959963984540054 * np.sqrt(2))
        assert not res.degenerate_variance

    def test_degenerate_variance_flagged(self):
        s = make_sample([-0.6, -0.3, 0.2, 0.5], [2.0, 2.0, 4.0, 6.0])
        res = neyman_ci(s, window_all(s))
        assert res.degenerate_variance
        assert res.se == pytest.approx(np.sqrt(2.0 / 2.0))

    def test_two_per_group_floor(self):
        s = make_sample([-0.3, 0.2, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(TooFewObservations):
            neyman_ci(s, window_all(s))

    def test_smallest_alpha_gives_a_finite_interval(self):
        s = make_sample([-0.6, -0.3, 0.2, 0.5], [1.0, 3.0, 4.0, 6.0])
        res = neyman_ci(s, window_all(s), alpha=np.nextafter(2.0 ** -53, 1))
        assert np.isfinite(res.ci).all()

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    def test_quantile_matches_mpmath(self, level):
        # tau_hat = 0, so the upper bound is z * se rounded once
        s = make_sample([-0.6, -0.3, 0.2, 0.5], [-1.0, 1.0, -1.0, 1.0])
        res = neyman_ci(s, window_all(s), alpha=1.0 - level)
        with mp.workdps(50):
            hi = mp.sqrt(2) * mp.erfinv(level) * res.se
            assert abs(res.ci[1] - hi) <= 1e-15 * hi


class TestFisherCi:
    def test_constant_effect_recovered(self):
        # noiseless constant shift tau = 1.5: the only accepted taus
        # should hug 1.5
        rng = np.random.default_rng(6)
        base = rng.normal(0, 1, 8)
        x = np.r_[np.full(4, -0.5), np.full(4, 0.5)]
        y = np.r_[base[:4], base[4:] * 0 + 1.5]  # exact shift, no noise
        y = np.r_[np.zeros(4), np.full(4, 1.5)]
        s = make_sample(x, y)
        ci = fisher_ci(s, window_all(s), alpha=0.2)
        assert ci.lower is not None and ci.upper is not None
        assert ci.lower <= 1.5 <= ci.upper
        assert not ci.empty

    def test_grid_and_pvalues_exposed(self):
        rng = np.random.default_rng(9)
        x = np.r_[-rng.uniform(0.1, 1, 6), rng.uniform(0.1, 1, 6)]
        y = rng.normal(0, 1, 12) + (x > 0) * 2.0
        s = make_sample(x, y)
        ci = fisher_ci(s, window_all(s), tau_grid=np.linspace(0, 4, 41))
        assert ci.grid.shape == (41,)
        assert ci.p_values.shape == (41,)
        assert ci.convex in (True, False)

    def test_far_away_grid_is_empty(self):
        rng = np.random.default_rng(9)
        x = np.r_[-rng.uniform(0.1, 1, 8), rng.uniform(0.1, 1, 8)]
        y = rng.normal(0, 0.1, 16)
        s = make_sample(x, y)
        ci = fisher_ci(s, window_all(s), tau_grid=np.linspace(50, 60, 11))
        assert ci.empty
        assert ci.lower is None and ci.upper is None

    @pytest.mark.parametrize("grid", [
        np.linspace(2, -2, 41), [0.0, 1.0, 0.5], [0.0, float("nan"), 1.0],
        [-np.inf, 0.0], [[0.0, 1.0]]],
        ids=["descending", "unsorted", "nan", "inf", "two-dimensional"])
    def test_grid_must_be_ascending_and_finite(self, grid, monkeypatch):
        # a descending grid used to report a lower bound above the upper
        def unreachable(*args):
            raise AssertionError("ensemble drawn for an invalid grid")

        monkeypatch.setattr(locrand, "_build_ensemble", unreachable)
        s = make_sample(np.linspace(-1, 1, 40), np.arange(40.0))
        with pytest.raises(ValueError, match="tau_grid"):
            fisher_ci(s, window_all(s), tau_grid=grid)

    def test_empty_grid_tests_only_the_sharp_null(self):
        s = make_sample(np.linspace(-1, 1, 40), np.arange(40.0))
        ci = fisher_ci(s, window_all(s), tau_grid=())
        assert ci.empty and ci.grid.shape == (0,)


@pytest.mark.parametrize("test", [fisher_pvalue, fisher_ci])
def test_studentized_needs_two_units_per_group(test):
    # fisher_ci used to accept every tau0, each p-value 1.0
    s = make_sample([-0.6, -0.3, -0.1, 0.5], [1.0, 3.0, 2.0, 6.0])
    with pytest.raises(TooFewObservations):
        test(s, window_all(s), statistic="studentized")


@pytest.mark.parametrize("draws", [0, -5])
@pytest.mark.parametrize("test", [
    fisher_pvalue, fisher_ci,
    lambda s, window, draws: covariate_balance(
        s, "z", method="locrand", window=window, draws=draws),
    lambda s, window, draws: select_window(s, candidates=[1.0],
                                           draws=draws)],
    ids=["fisher_pvalue", "fisher_ci", "covariate_balance", "select_window"])
def test_draws_below_one_rejected(test, draws):
    s = make_sample(np.linspace(-1, 1, 40), np.arange(40),
                    covariates={"z": np.cos(np.arange(40))})
    with pytest.raises(ValueError, match="draws"):
        test(s, make_window(s, 1.0), draws=draws)


@pytest.mark.parametrize("test", [fisher_pvalue, fisher_ci])
def test_unknown_statistic_rejected_before_the_ensemble(test, monkeypatch):
    def unreachable(*args):
        raise AssertionError("ensemble drawn for an unknown statistic")

    monkeypatch.setattr(locrand, "_build_ensemble", unreachable)
    s = make_sample(np.linspace(-1, 1, 40), np.arange(40))
    with pytest.raises(ValueError, match="unknown statistic 'rank_sum'"):
        test(s, window_all(s), statistic="rank_sum")


# at 2**-53 and below, 1 - alpha/2 rounds to 1.0, and neyman_ci's
# inv_cdf(1.0) used to raise StatisticsError, naming no alpha
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan"),
                                   2.0 ** -53, 1e-300])
@pytest.mark.parametrize("interval", [neyman_ci, fisher_ci])
def test_alpha_outside_unit_interval_rejected(interval, alpha):
    s = make_sample([-0.6, -0.3, 0.2, 0.5], [1.0, 3.0, 4.0, 6.0])
    with pytest.raises(ValueError, match="alpha"):
        interval(s, window_all(s), alpha=alpha)


def balance_data(n=240, jump_at=0.5, seed=10):
    """Covariate continuous inside |x|<jump_at, shifted outside."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, n)
    z = rng.normal(0, 0.3, n) + 5.0 * (np.abs(x) >= jump_at) * np.sign(x)
    y = rng.normal(0, 1, n)
    return make_sample(x, y, covariates={"z": z})


class TestSelectWindow:
    def test_balanced_region_selected(self):
        s = balance_data()
        sel = select_window(s, candidates=[0.25, 0.5, 0.75, 1.0, 1.25],
                            seed=3)
        assert not sel.no_balanced_window
        assert 0.25 <= sel.w_left <= 0.75
        assert sel.window.n_plus + sel.window.n_minus == sel.window.n_w

    def test_trace_covers_all_candidates(self):
        s = balance_data()
        sel = select_window(s, candidates=[0.25, 0.5, 0.75], seed=3)
        assert len(sel.trace) == 3
        widths = [row.w_left for row in sel.trace]
        assert widths == sorted(widths)
        for row in sel.trace:
            assert dict(row.p_values).keys() == {"z"}

    def test_no_balanced_window_falls_back_to_smallest(self):
        # covariate jumps right at the cutoff: nothing balances
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 400)
        z = (x >= 0) * 8.0 + rng.normal(0, 0.1, 400)
        s = make_sample(x, rng.normal(0, 1, 400), covariates={"z": z})
        sel = select_window(s, candidates=[0.3, 0.6, 0.9], seed=1)
        assert sel.no_balanced_window
        assert sel.w_left == 0.3

    def test_infeasible_candidates_skipped(self):
        s = balance_data(n=60)
        sel = select_window(s, candidates=[0.001, 0.5, 1.0], seed=4)
        assert not sel.trace[0].feasible
        assert sel.trace[0].passed is False
        assert sel.w_left >= 0.5

    def test_nan_covariate_shrinks_feasibility(self):
        # z observed only where |x| >= 0.5: narrow windows have no
        # complete-case data, so the first feasible candidate is wide
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.5, 1.5, 300)
        z = rng.normal(0, 1.0, 300)
        z[np.abs(x) < 0.5] = np.nan
        s = make_sample(x, rng.normal(0, 1, 300), covariates={"z": z})
        sel = select_window(s, candidates=[0.25, 1.0], seed=5)
        assert sel.trace[0].feasible is False
        assert sel.trace[1].feasible is True
        assert sel.w_left == 1.0

    def test_pair_candidates_select_asymmetric_windows(self):
        s = balance_data()
        pairs = [(0.2, 0.3), (0.3, 0.45)]
        sel = select_window(s, candidates=pairs, seed=3)
        assert [(row.w_left, row.w_right) for row in sel.trace] == pairs
        assert not sel.no_balanced_window
        assert (sel.w_left, sel.w_right) == (0.3, 0.45)
        assert sel.window == make_window(s, 0.3, 0.45)

    def test_iterator_candidates_are_read_once(self):
        s = balance_data()
        listed = select_window(s, candidates=[0.25, 0.5], seed=3)
        assert select_window(s, candidates=iter([0.25, 0.5]), seed=3) \
            == listed

    @pytest.mark.parametrize("candidates", [None, [], iter([])],
                             ids=["none", "empty_list", "empty_iterator"])
    def test_no_candidates_raises(self, candidates):
        from rdtoolkit.errors import NoFeasibleWindow
        with pytest.raises(NoFeasibleWindow, match="no candidate"):
            select_window(balance_data(), candidates=candidates)

    def test_nothing_feasible_raises(self):
        from rdtoolkit.errors import NoFeasibleWindow
        s = balance_data(n=200)
        z = np.full(200, np.nan)
        s2 = make_sample(s.score, s.outcome, covariates={"z": z})
        with pytest.raises(NoFeasibleWindow):
            select_window(s2, candidates=[0.5], seed=5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            select_window(balance_data(), candidates=[0.5], alpha=alpha)

    def test_determinism(self):
        s = balance_data()
        a = select_window(s, candidates=[0.25, 0.5, 1.0], seed=11)
        b = select_window(s, candidates=[0.25, 0.5, 1.0], seed=11)
        assert a == b

    def test_statistic_variants_run(self):
        s = balance_data()
        for statistic in ("diff_means", "studentized"):
            res = fisher_pvalue(s.replace_outcome(s.covariates["z"]),
                                make_window(s, 0.5), statistic=statistic,
                                max_exhaustive=200, draws=299, seed=0)
            assert 0 <= res.p_value <= 1
        with pytest.raises(ValueError):
            fisher_pvalue(s, make_window(s, 0.5), statistic="rank_sum")


# --------------------------------------------------------------------
# Pinned bits: fixed-margins Monte Carlo results, exact ones with at
# most half the units treated, Bernoulli window selection and the
# battery's permutation balance check keep these digests of float.hex
# of every float field, however the ensemble and the test are computed.
# --------------------------------------------------------------------


def _bits(value):
    """A result with every float as float.hex and arrays as digests."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()[:16]
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _pin_call(case, statistic):
    kind, call = case.split("_", 1)
    select = call.endswith("select")
    if kind == "mc" and not select:
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, 60)
        s = make_sample(x, 0.3 * (x >= 0) + rng.normal(0, 1, 60))
    elif kind == "exact" and not select:
        # 5 treated of 12: C(12, 5) = 792 assignments, enumerated
        rng = np.random.default_rng(42)
        x = np.r_[-rng.uniform(0.1, 1, 7), rng.uniform(0.1, 1, 5)]
        s = make_sample(x, 0.5 * (x >= 0) + rng.normal(0, 1, 12))
    elif kind == "mc":
        rng = np.random.default_rng(43)
        x = rng.uniform(-1, 1, 400)
        z = rng.normal(0, 1, 400) + 3.0 * (np.abs(x) > 0.6) * np.sign(x)
        s = make_sample(x, rng.normal(0, 1, 400), covariates={"z": z})
    else:
        # windows of 2 of 5, 3 of 8 and 5 of 12 treated: all enumerated
        # under fixed margins; Bernoulli enumerates the first two
        rng = np.random.default_rng(44)
        x = np.r_[-np.arange(1, 8) / 10, np.arange(1, 6) * 0.15]
        s = make_sample(x, rng.normal(0, 1, 12),
                        covariates={"z": rng.normal(0, 1, 12)})
    if call == "pvalue":
        return fisher_pvalue(s, make_window(s, 1.0), statistic=statistic,
                             **({"draws": 499, "seed": 3}
                                if kind == "mc" else {}))
    if call == "ci":
        return fisher_ci(s, make_window(s, 1.0), statistic=statistic,
                         **({"draws": 199, "seed": 4}
                            if kind == "mc" else {}))
    if call == "balance":
        # one missing covariate value: the test runs on the other units
        z = np.random.default_rng(45).normal(0, 1, s.n)
        z[0] = np.nan
        s = make_sample(s.score, s.outcome, covariates={"z": z})
        return covariate_balance(s, "z", method="locrand",
                                 window=make_window(s, 1.0), draws=199,
                                 seed=7)
    bernoulli = call == "bernoulli_select"
    if kind == "mc":
        candidates, seed = [0.05, 0.2, 0.5, 0.8], 5
    else:
        candidates, seed = [0.35, 0.5] if bernoulli else [0.35, 0.5, 1.0], 6
    return select_window(s, candidates=candidates,
                         model=Bernoulli(0.5) if bernoulli else FixedMargins(),
                         statistic=statistic, seed=seed)


@pytest.mark.parametrize("case, statistic, digest", [
    ("mc_pvalue", "diff_means", "b3fedf6aebff4509"),
    ("mc_pvalue", "studentized", "6befe466a44e339e"),
    ("mc_ci", "diff_means", "7da8686f81381de1"),
    ("mc_ci", "studentized", "9a12625a2b001e31"),
    ("exact_pvalue", "diff_means", "2935cb64c3db5beb"),
    ("exact_pvalue", "studentized", "5359564f1de98013"),
    ("exact_ci", "diff_means", "af444c320fd3a9b1"),
    ("exact_ci", "studentized", "4cd2c16f4c31ac38"),
    ("mc_select", "diff_means", "eecf9cc47367af38"),
    ("mc_select", "studentized", "8c88c34ba643bc70"),
    ("exact_select", "diff_means", "b30b859a7a145792"),
    ("exact_select", "studentized", "f1e777ac20424f33"),
    ("mc_bernoulli_select", "diff_means", "4e250b7df1ffff1d"),
    ("mc_bernoulli_select", "studentized", "64c64fd8174da3e2"),
    ("exact_bernoulli_select", "diff_means", "a7ab87381b95d2af"),
    ("exact_bernoulli_select", "studentized", "38d6a084c5a5d56d"),
    ("mc_balance", "diff_means", "e2298dd000cbd716"),
    ("exact_balance", "diff_means", "756577d43944bed0"),
])
def test_fixed_margins_bits_pinned(case, statistic, digest):
    bits = _bits(_pin_call(case, statistic))
    assert hashlib.sha256(repr(bits).encode()).hexdigest()[:16] == digest, \
        bits


def _battery_balance(missing):
    """The balance records of run_battery with two covariates whose
    missing values fall on the same or on different units of the count
    window, as float.hex of each p-value and statistic."""
    rng = np.random.default_rng(46)
    x = rng.uniform(-1, 1, 400)
    z = {"a": rng.normal(0, 1, 400), "b": 0.5 * x + rng.normal(0, 1, 400)}
    z["a"][[3, 10, 150]] = np.nan
    z["b"][[3, 10, 150] if missing == "same" else [4, 11, 77, 200]] = np.nan
    s = make_sample(x, 0.4 * (x >= 0) + rng.normal(0, 1, 400),
                    covariates=z)
    report = run_battery(s, h=0.5, count_halfwidth=0.3, donut_radii=(0.0,),
                         draws=499, seed=8)
    return [(r.covariate, r.method, _bits(r.p_value), _bits(r.tau_hat))
            for r in report.balance]


@pytest.mark.parametrize("missing, digest", [
    ("same", "f6beeae586631de1"),
    ("different", "413034f71681d212"),
])
def test_battery_balance_bits_pinned(missing, digest):
    bits = _battery_balance(missing)
    assert hashlib.sha256(repr(bits).encode()).hexdigest()[:16] == digest, \
        bits


def _locrand_fisher_ci(tmp_path, model, kind, statistic):
    """The fisher and fisher_ci results of ``locrand --fisher-ci``: 5 of
    12 units treated, enumerated, or 60 units and 299 draws."""
    n = 12 if kind == "exact" else 60
    rng = np.random.default_rng(47)
    x = rng.uniform(-1, 1, n)
    y = 0.3 * (x >= 0) + rng.normal(0, 1, n)
    if kind == "exact":
        x = np.r_[-rng.uniform(0.1, 1, 7), rng.uniform(0.1, 1, 5)]
    path = write_csv(tmp_path / "locrand.csv", ["x", "y"], zip(x, y))
    args = build_parser().parse_args([
        "locrand", "--input", path, "--score-col", "x", "--outcome-col", "y",
        "--window", "1.0", "--fisher-ci", "--model", model,
        "--statistic", statistic, "--draws", "299", "--seed", "3"])
    _, result, _ = cmd_locrand(args)
    return _bits((result["fisher"], result["fisher_ci"]))


@pytest.mark.parametrize("model, kind, statistic, digest", [
    ("fixed_margins", "exact", "diff_means", "d999b080ef0b4a17"),
    ("fixed_margins", "exact", "studentized", "1891ee279bfec4f2"),
    ("fixed_margins", "mc", "diff_means", "75761428058ba98c"),
    ("fixed_margins", "mc", "studentized", "5d57e9217286fcb8"),
    ("bernoulli", "exact", "diff_means", "e845b2adfbd919e1"),
    ("bernoulli", "exact", "studentized", "66d5fb1e330d43c4"),
    ("bernoulli", "mc", "diff_means", "429d80d03a3c0eeb"),
    ("bernoulli", "mc", "studentized", "b36ca6ceeb398acc"),
])
def test_locrand_fisher_ci_bits_pinned(tmp_path, model, kind, statistic,
                                       digest):
    bits = _locrand_fisher_ci(tmp_path, model, kind, statistic)
    assert hashlib.sha256(repr(bits).encode()).hexdigest()[:16] == digest, \
        bits
