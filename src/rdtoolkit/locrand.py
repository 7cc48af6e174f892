"""Local randomization inference near the cutoff.

Inside a window W around the cutoff, treatment assignment is modeled as
a randomized experiment: fixed-margins (uniform over assignments with
the observed number treated) or Bernoulli coin flips.  This module
provides data-driven window selection via covariate balance, the
difference-in-means estimator with framework-specific weights,
Fisherian sharp-null permutation p-values (exhaustive when the
assignment space is small, Monte Carlo otherwise), test-inversion
confidence intervals, and Neyman/super-population large-sample
intervals.  A unit is in a window when lower <= score <= upper, on the
bounds a report prints, and treated when score >= cutoff; every count,
estimate and test of a window uses that rule.

Every permutation ensemble, enumerated or drawn, is one stream of blocks
of treated sets, built once for the units analysed and reduced to the
subset sums its statistic reads: the treated count and the overlap with
the observed assignment once, the outcome sum for each response that
shares the stream, and two more sums per response for the studentized
statistic, in the rows ``_build_ensemble`` lays out; ``_fisher_tests``
computes every statistic from them.  It holds O(assignments) sums plus
one block.  The observed assignment is reduced first, by the same
expression at the same row width as its enumerated copy, so it ties with
itself and always counts as extreme.  Distinct assignments that tie only
in exact arithmetic, such as complements, may still differ in the last
bits.  Under fixed margins every assignment treats n_plus units, so the
treated count is filled in, not summed.  A Monte Carlo fixed-margins
draw treats the n_plus units with the smallest of n uniforms: one
partition finds each row's n_plus-th smallest value, and the units at or
below it, in ascending order, are the treated set; a tie at that value
goes to the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations, islice, takewhile
from math import comb
from statistics import NormalDist

import numpy as np

from .defaults import (
    BALANCE_ALPHA,
    DRAWS,
    MAX_DEGENERATE_SHARE,
    MAX_EXHAUSTIVE,
    SELECT_DRAWS,
    SELECT_MAX_EXHAUSTIVE,
    SMALLEST_ALPHA,
    WEAK_FIRST_STAGE_THRESHOLD,
)
from .errors import (
    EmptyGroup,
    MissingTreatmentColumn,
    NoCovariates,
    NoFeasibleWindow,
    TooFewObservations,
    WeakFirstStage,
)
from .rng import substream
from .sample import RdSample

FRAMEWORKS = ("fisher", "neyman", "superpop")


# --------------------------------------------------------------------
# Windows and assignment models
# --------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Estimation window [lower, upper] containing the cutoff."""

    lower: float
    upper: float
    n_w: int
    n_plus: int
    n_minus: int


@dataclass(frozen=True)
class FixedMargins:
    """Uniform distribution over assignments with the observed margins."""


@dataclass(frozen=True)
class Bernoulli:
    """Independent coin-flip assignment with known probability."""

    prob: float

    def __post_init__(self):
        if not 0.0 < self.prob < 1.0:
            raise ValueError("assignment probability must be in (0, 1)")


def _inside(sample: RdSample, lower: float, upper: float) -> np.ndarray:
    """The window rule: a unit is inside when lower <= score <= upper."""
    return (sample.score >= lower) & (sample.score <= upper)


def make_window(sample: RdSample, w_left: float,
                w_right: float | None = None) -> Window:
    """Window [c - w_left, c + w_right] around the cutoff c, with finite
    non-negative half-widths, not both zero.  It counts the units with
    lower <= score <= upper, the units every analysis of it uses."""
    if w_right is None:
        w_right = w_left
    if not (0 <= w_left < np.inf and 0 <= w_right < np.inf) \
            or w_left == w_right == 0:
        raise ValueError("window half-widths must be non-negative and "
                         "finite, not both zero")
    c = sample.cutoff
    lower, upper = float(c - w_left), float(c + w_right)
    treated = sample.treated[_inside(sample, lower, upper)]
    n_plus = int(np.count_nonzero(treated))
    return Window(lower=lower, upper=upper, n_w=treated.size, n_plus=n_plus,
                  n_minus=treated.size - n_plus)


def _window_arrays(sample: RdSample, window: Window):
    """Outcome, assignment (boolean) and receipt (float64, or None) of
    the units in the window: slices of the sample's own arrays."""
    mask = _inside(sample, window.lower, window.upper)
    d = None if sample.received is None else sample.received[mask]
    return sample.outcome[mask], sample.treated[mask], d


# --------------------------------------------------------------------
# Difference in means with framework weights
# --------------------------------------------------------------------


@dataclass(frozen=True)
class LocRandEstimate:
    """Window-level difference-in-means (sharp) or ratio (fuzzy)."""

    tau_hat: float
    ybar_plus: float
    ybar_minus: float
    framework: str
    dbar_plus: float | None = None
    dbar_minus: float | None = None


def _framework_means(values, t, model, framework):
    """Side means (1/N) sum omega_i/P * T_i * values_i per the framework.

    Fixed-margins and super-population weights both reduce to plain
    group means; Bernoulli under the Neyman/Fisher frameworks gives the
    Horvitz-Thompson form with the known probability.
    """
    n = values.shape[0]
    n_plus = int(t.sum())
    n_minus = n - n_plus
    if n_plus == 0 or n_minus == 0:
        raise EmptyGroup(
            f"window has {n_plus} treated and {n_minus} control units")
    if framework not in FRAMEWORKS:
        raise ValueError(f"unknown framework {framework!r}")
    if isinstance(model, Bernoulli) and framework in ("fisher", "neyman"):
        p = model.prob
        return (float(values[t].sum() / (n * p)),
                float(values[~t].sum() / (n * (1.0 - p))))
    return float(values[t].mean()), float(values[~t].mean())


def diff_in_means(sample: RdSample, window: Window, model=FixedMargins(),
                  framework: str = "neyman") -> LocRandEstimate:
    """Sharp window estimator: weighted side means of the outcome."""
    y, t, d = _window_arrays(sample, window)
    ybar_plus, ybar_minus = _framework_means(y, t, model, framework)
    dbar_plus = dbar_minus = None
    if d is not None:
        dbar_plus, dbar_minus = _framework_means(d, t, model, framework)
    return LocRandEstimate(tau_hat=ybar_plus - ybar_minus,
                           ybar_plus=ybar_plus, ybar_minus=ybar_minus,
                           framework=framework, dbar_plus=dbar_plus,
                           dbar_minus=dbar_minus)


def fuzzy_locrand(sample: RdSample, window: Window,
                  model=FixedMargins(), framework: str = "neyman",
                  ) -> LocRandEstimate:
    """Fuzzy window estimator: outcome contrast over receipt contrast."""
    if sample.received is None:
        raise MissingTreatmentColumn(
            "fuzzy estimation requires a received-treatment column")
    est = diff_in_means(sample, window, model, framework)
    first_stage = est.dbar_plus - est.dbar_minus
    if abs(first_stage) < WEAK_FIRST_STAGE_THRESHOLD:
        raise WeakFirstStage(
            f"receipt contrast {first_stage:.4g} is below the "
            f"{WEAK_FIRST_STAGE_THRESHOLD} threshold")
    return replace(est, tau_hat=est.tau_hat / first_stage)


# --------------------------------------------------------------------
# Fisherian permutation inference
# --------------------------------------------------------------------


@dataclass(frozen=True)
class FisherResult:
    """Sharp-null permutation test output."""

    p_value: float
    exact: bool
    draws: int
    statistic_observed: float
    statistic: str
    extreme_count: float
    total: int
    ci: tuple[float, float] | None = None


# Cells (assignments x units) in one block of treated sets.  An ensemble
# holds its subset sums per assignment plus one block, so memory stays
# bounded however large the window or the number of draws.
_BLOCK_CELLS = 1 << 18


def _blocks(block, count, n):
    """block(a, b) over spans of ``count`` rows of n cells, in order."""
    rows = max(1, _BLOCK_CELLS // n)
    for a in range(0, count, rows):
        yield block(a, min(a + rows, count))


def _padded(mask):
    """Index rows of width n that read each treated unit in place and
    the zero pad column (index n) elsewhere."""
    n = mask.shape[1]
    return np.where(mask, np.arange(n), n)


def _smallest(u, k):
    """Ascending index rows of the k smallest values in each row of u.

    One partition finds each row's k-th smallest value; the units at or
    below it are read in order by one flat pass over the mask, less each
    row's offset.  A tie at the k-th value goes to the lower index;
    whenever each row's k-th value is unique, each row is just the
    sorted indices of its k smallest values.
    """
    rows, n = u.shape
    kth = np.partition(u, k - 1, axis=1)[:, k - 1:k]
    flat = np.flatnonzero(u <= kth)
    if flat.size != rows * k:  # some row ties across its k-th value
        below = u < kth
        tied = u == kth
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        first_ties = tied & (np.cumsum(tied, axis=1) <= room)
        flat = np.flatnonzero(below | first_ties)
    idx = flat.reshape(rows, k)
    idx -= n * np.arange(rows)[:, None]
    return idx


def _reduce(blocks, cols, out):
    """Sums of each treated set into ``out``: row r of ``cols`` summed
    over every index row of every block, one column per treated set."""
    at = 0
    for idx in blocks:
        for values, sums in zip(cols, out[:, at:at + idx.shape[0]]):
            values[idx].sum(axis=1, out=sums)
        at += idx.shape[0]
    return out


def _build_ensemble(ys, t, model, max_exhaustive, draws, seed,
                    studentized=False):
    """One stream of assignments of the units with observed assignment
    ``t``, reduced to the subset sums of every response in ``ys``.

    Returns ``(agg, weights, exact, total)``.  ``agg`` has one column per
    assignment: column 0 is the observed assignment and columns 1.. the
    ``total`` assignments of the ensemble (all of them when ``exact``,
    else the draws).  Its rows are n1, the treated count, then m, the
    overlap with the observed treated set, then per response in order
    sY, the sum of Y over the treated set, and, when ``studentized``,
    sTY, the sum of T_obs*Y over it, and sY2, the sum of Y^2.
    ``weights`` gives each ensemble assignment's probability under
    exact Bernoulli enumeration, and is None for uniform ensembles
    (fixed margins, or Monte Carlo draws).
    """
    ys = [np.asarray(y, dtype=float) for y in ys]
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    n_plus = int(t.sum())
    if n_plus == 0 or n_plus == n:
        raise EmptyGroup(f"window has {n_plus} treated of {n} units")
    # the summands of the rows of agg; a zero pad column follows
    summands = [np.ones(n), t]
    for y in ys:
        summands += [y, t * y, y * y] if studentized else [y]
    cols = np.zeros((len(summands), n + 1))
    cols[:, :n] = summands
    rng = substream(seed)

    # block(a, b) gives the treated sets of assignments a..b-1 as index
    # rows; the observed assignment's row has the same width.
    if isinstance(model, FixedMargins):
        # width n_plus, sorted: lexicographic subsets, or the n_plus
        # smallest of n uniforms, those at or below the row's n_plus-th
        # smallest value (a tie there goes to the lower index)
        observed = np.flatnonzero(t)[None, :]
        total = comb(n, n_plus)
        exact = total <= max_exhaustive
        subsets = combinations(range(n), n_plus)

        def block(a, b):
            if exact:
                return np.array(list(islice(subsets, b - a)), dtype=np.intp)
            return _smallest(rng.random((b - a, n)), n_plus)
    elif isinstance(model, Bernoulli):
        # width n, padded: the binary codes 1..2^n - 2, or coin flips
        observed = _padded(t[None, :] == 1)
        total = 2 ** n - 2
        exact = 2 ** n <= max_exhaustive
        # each draw is redrawn until no group is empty, so refuse a
        # probability under which nearly every draw leaves one empty
        share = (1.0 - model.prob) ** n + model.prob ** n
        if not exact and share >= MAX_DEGENERATE_SHARE:
            raise EmptyGroup(
                f"Bernoulli prob {model.prob} leaves a group of the {n} "
                f"units empty in a share {share:.12g} of assignments; Monte "
                f"Carlo draws need a share below {MAX_DEGENERATE_SHARE}")

        def block(a, b):
            if exact:
                codes = np.arange(1 + a, 1 + b)
                return _padded((codes[:, None] >> np.arange(n)) & 1)
            return _padded(rng.random((b - a, n)) < model.prob)
    else:
        raise ValueError(f"unknown assignment model {model!r}")
    if not exact:
        total = draws
    agg = np.empty((cols.shape[0], total + 1))
    # every fixed-margins assignment treats n_plus units, so its n1 row
    # is filled, not summed
    first = 1 if isinstance(model, FixedMargins) else 0
    agg[:first] = n_plus
    _reduce(chain([observed], _blocks(block, total, n)), cols[first:],
            agg[first:])

    weights = None
    if isinstance(model, Bernoulli):
        n1 = agg[0, 1:]
        if exact:
            weights = model.prob ** n1 * (1.0 - model.prob) ** (n - n1)
        # Condition on non-degenerate draws: after all draws, redraw in
        # order, from the same stream, the rows where one group is empty
        # (the statistic is undefined there).
        while not exact and np.any(bad := (n1 == 0) | (n1 == n)):
            rows = 1 + np.flatnonzero(bad)
            agg[:, rows] = _reduce(_blocks(block, rows.size, n), cols,
                                   np.empty((cols.shape[0], rows.size)))

    return agg, weights, exact, total


def _fisher_tests(ys, t, model, statistic, max_exhaustive, draws, seed,
                  taus=(0.0,)) -> list[list[FisherResult]]:
    """The one Fisher test path: one ensemble of the units analysed,
    reduced for every response in ``ys``, then one result per
    (response, sharp null tau0), on outcomes adjusted to Y - tau0*T_obs:
    the statistic of every assignment, then the weight or count of
    those at least as extreme as the observed one (column 0)."""
    if statistic == "studentized" and not 2 <= t.sum() <= t.size - 2:
        raise TooFewObservations(
            "studentized statistic needs at least 2 units per group")
    if statistic not in ("diff_means", "studentized"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    studentized = statistic == "studentized"
    agg, weights, exact, total = _build_ensemble(
        ys, t, model, max_exhaustive, draws, seed, studentized)
    n1, m = agg[0], agg[1]
    n0 = t.shape[0] - n1
    results = []
    for r, y in enumerate(ys):
        y = np.asarray(y, dtype=float)
        s_y, s_ty, s_y2 = agg[2 + 3 * r:5 + 3 * r] if studentized \
            else (agg[2 + r], None, None)
        sum_y, sum_y2 = float(y.sum()), float((y * y).sum())
        results.append([])
        for tau0 in map(float, taus):
            tot_y = sum_y - tau0 * n1[0]
            s_plus = s_y - tau0 * m
            mean_p = s_plus / n1
            mean_m = (tot_y - s_plus) / n0
            diff = mean_p - mean_m
            if statistic == "diff_means":
                stats = diff
            else:
                tot_y2 = sum_y2 - 2.0 * tau0 * s_ty[0] + tau0 * tau0 * n1[0]
                s2_plus_sum = s_y2 - 2.0 * tau0 * s_ty + tau0 * tau0 * m
                s2_minus_sum = tot_y2 - s2_plus_sum
                with np.errstate(invalid="ignore", divide="ignore"):
                    var_p = (s2_plus_sum - n1 * mean_p * mean_p) / (n1 - 1.0)
                    var_m = (s2_minus_sum - n0 * mean_m * mean_m) / (n0 - 1.0)
                    se = np.sqrt(np.maximum(var_p, 0.0) / n1
                                 + np.maximum(var_m, 0.0) / n0)
                    stats = np.where(se > 0, diff / se, np.where(
                        diff == 0.0, 0.0, np.sign(diff) * np.inf))
            s_obs = float(stats[0])
            extreme = np.abs(stats[1:]) >= abs(s_obs)
            if weights is not None:  # exact Bernoulli
                count = float(weights[extreme].sum())
                p = count / float(weights.sum())
            else:
                count = float(np.count_nonzero(extreme))
                p = count / total if exact else \
                    (count + 1.0) / (draws + 1.0)
            results[-1].append(FisherResult(
                p_value=float(p), exact=exact, draws=0 if exact else draws,
                statistic_observed=s_obs, statistic=statistic,
                extreme_count=count, total=total))
    return results


def fisher_pvalue(sample: RdSample, window: Window, model=FixedMargins(),
                  statistic: str = "diff_means",
                  max_exhaustive: int = MAX_EXHAUSTIVE, draws: int = DRAWS,
                  seed: int = 0) -> FisherResult:
    """Sharp-null permutation p-value within the window.

    Exhaustive enumeration when the assignment space is at most
    ``max_exhaustive`` (exact, a rational count over the total);
    otherwise Monte Carlo with the add-one estimator
    (count+1)/(draws+1).  Two-sided: assignments with |S| at or beyond
    the observed |S| count as extreme, ties included.
    """
    y, t, _ = _window_arrays(sample, window)
    return _fisher_tests([y], t, model, statistic, max_exhaustive, draws,
                         seed)[0][0]


@dataclass(frozen=True)
class FisherCi:
    """Test-inversion confidence set under the constant-effect model."""

    lower: float | None
    upper: float | None
    alpha: float
    grid: np.ndarray
    p_values: np.ndarray
    convex: bool
    empty: bool


def fisher_ci(sample: RdSample, window: Window, model=FixedMargins(),
              statistic: str = "diff_means", tau_grid=None,
              alpha: float = 0.05, max_exhaustive: int = MAX_EXHAUSTIVE,
              draws: int = DRAWS, seed: int = 0) -> FisherCi:
    """Invert the permutation test over a grid of constant effects.

    For each tau0, outcomes are adjusted to Y - tau0*T and the sharp
    null retested; accepted values (p >= alpha) form the confidence
    set.  The permutation ensemble is built once and reused across the
    grid, so the whole inversion costs one enumeration plus O(grid x
    draws) arithmetic.  A non-interval acceptance region is flagged
    rather than hidden.  Studentized tests need 2 units per group.
    A given ``tau_grid`` must be one-dimensional, finite and ascending.
    """
    return _fisher_pvalue_and_ci(sample, window, model, statistic, tau_grid,
                                 alpha, max_exhaustive, draws, seed)[1]


def _fisher_pvalue_and_ci(sample, window, model, statistic, tau_grid,
                          alpha, max_exhaustive, draws, seed):
    """:func:`fisher_pvalue` and :func:`fisher_ci` from one ensemble: the
    sharp null tau0 = 0 is tested with the grid."""
    _check_alpha(alpha)
    y, t, _ = _window_arrays(sample, window)
    if tau_grid is None:
        est = diff_in_means(sample, window, model, framework="fisher")
        try:
            se = _neyman_se(y, t)[0]
        except TooFewObservations:
            se = 0.0
        span = 5.0 * se if se > 0 else max(1.0, abs(est.tau_hat))
        tau_grid = np.linspace(est.tau_hat - span, est.tau_hat + span, 201)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if (tau_grid.ndim != 1 or not np.isfinite(tau_grid).all()
            or (np.diff(tau_grid) < 0).any()):
        raise ValueError("tau_grid must be a one-dimensional ascending "
                         "grid of finite values")
    fisher, *grid = _fisher_tests([y], t, model, statistic, max_exhaustive,
                                  draws, seed, [0.0, *tau_grid])[0]
    pvals = np.array([res.p_value for res in grid])
    accepted = np.flatnonzero(pvals >= alpha)
    if accepted.size == 0:
        return fisher, FisherCi(lower=None, upper=None, alpha=alpha,
                                grid=tau_grid, p_values=pvals, convex=True,
                                empty=True)
    convex = bool(np.all(np.diff(accepted) == 1))
    return fisher, FisherCi(lower=float(tau_grid[accepted[0]]),
                            upper=float(tau_grid[accepted[-1]]),
                            alpha=alpha, grid=tau_grid, p_values=pvals,
                            convex=convex, empty=False)


def _check_alpha(alpha: float) -> None:
    """Alpha in (2**-53, 1), where 1 - alpha/2 rounds below 1 for inv_cdf."""
    if not SMALLEST_ALPHA < alpha < 1:
        raise ValueError(f"alpha must be in (2**-53, 1), got {alpha}")


def _neyman_se(y, t):
    """Conservative standard error sqrt(s2+/N+ + s2-/N-) and the two
    group variances s2+, s2- (ddof 1)."""
    n_plus = int(t.sum())
    n_minus = y.shape[0] - n_plus
    if n_plus < 2 or n_minus < 2:
        raise TooFewObservations(
            f"need at least 2 units per group, got {n_plus} and {n_minus}")
    var_p = float(np.var(y[t], ddof=1))
    var_m = float(np.var(y[~t], ddof=1))
    return float(np.sqrt(var_p / n_plus + var_m / n_minus)), var_p, var_m


# --------------------------------------------------------------------
# Neyman / super-population large-sample inference
# --------------------------------------------------------------------


@dataclass(frozen=True)
class NeymanResult:
    """Difference in means with a normal-approximation interval."""

    estimate: LocRandEstimate
    se: float
    ci: tuple[float, float]
    alpha: float
    degenerate_variance: bool


def neyman_ci(sample: RdSample, window: Window, framework: str = "neyman",
              alpha: float = 0.05, model=FixedMargins()) -> NeymanResult:
    """tau_hat with the conservative variance s2+/N+ + s2-/N-.

    A zero group variance leaves only the other group's contribution in
    the half-width; the result is flagged rather than rejected.
    """
    _check_alpha(alpha)
    y, t, _ = _window_arrays(sample, window)
    se, var_p, var_m = _neyman_se(y, t)
    est = diff_in_means(sample, window, model, framework)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return NeymanResult(estimate=est, se=se,
                        ci=(est.tau_hat - z * se, est.tau_hat + z * se),
                        alpha=alpha,
                        degenerate_variance=(var_p == 0.0 or var_m == 0.0))


# --------------------------------------------------------------------
# Window selection by covariate balance
# --------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceTraceRow:
    """One candidate's balance evidence (audit record)."""

    w_left: float
    w_right: float
    n_w: int
    n_plus: int
    n_minus: int
    feasible: bool
    p_values: tuple[tuple[str, float], ...]
    min_p: float | None
    passed: bool


@dataclass(frozen=True)
class WindowSelection:
    """Selected window plus the full balance trace."""

    window: Window
    w_left: float
    w_right: float
    alpha: float
    no_balanced_window: bool
    trace: tuple[BalanceTraceRow, ...]


def _as_pair(candidate):
    if isinstance(candidate, (tuple, list)):
        w_left, w_right = candidate
        return float(w_left), float(w_right)
    return float(candidate), float(candidate)


def select_window(sample: RdSample, candidates=None,
                  alpha: float = BALANCE_ALPHA, model=FixedMargins(),
                  statistic: str = "diff_means",
                  max_exhaustive: int = SELECT_MAX_EXHAUSTIVE,
                  draws: int = SELECT_DRAWS,
                  seed: int = 0) -> WindowSelection:
    """Pick the largest window with covariate balance at level alpha.

    Candidates are half-widths (or (left, right) pairs) in ascending
    order.  A candidate is feasible when its :func:`make_window` holds at
    least 2 units per side with a non-missing value of each covariate,
    the units its balance tests use.  The selected window is the largest
    feasible candidate such that every feasible candidate up to and
    including it has minimum balance p-value >= alpha across the
    covariates.  When even the smallest feasible candidate is
    imbalanced, it is returned flagged ``no_balanced_window`` so the
    caller sees the most defensible window alongside the full trace.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    names = sorted(sample.covariates)
    if not names:
        raise NoCovariates("window selection requires at least one covariate")
    pairs = [_as_pair(cand) for cand in
             (() if candidates is None else candidates)]
    if not pairs:
        raise NoFeasibleWindow("no candidate windows supplied")
    widths = [left + right for left, right in pairs]
    if any(b < a for a, b in zip(widths, widths[1:])):
        raise ValueError("candidate windows must be ascending")

    trace = []
    for idx, (w_left, w_right) in enumerate(pairs):
        win = make_window(sample, w_left, w_right)
        inside = _inside(sample, win.lower, win.upper)
        p_values = []
        for j, name in enumerate(names):
            z = sample.covariates[name]
            ok = inside & np.isfinite(z)
            t = sample.treated[ok]
            if not 2 <= t.sum() <= t.size - 2:
                break
            res = _fisher_tests([z[ok]], t, model, statistic,
                                max_exhaustive, draws,
                                int(substream(seed, idx, j)
                                    .integers(0, 2 ** 31)))[0][0]
            p_values.append((name, res.p_value))
        feasible = len(p_values) == len(names)
        min_p = min(p for _, p in p_values) if p_values else None
        trace.append(BalanceTraceRow(
            w_left=w_left, w_right=w_right, n_w=win.n_w, n_plus=win.n_plus,
            n_minus=win.n_minus, feasible=feasible, p_values=tuple(p_values),
            min_p=min_p, passed=bool(feasible and min_p >= alpha)))

    feasible_rows = [row for row in trace if row.feasible]
    if not feasible_rows:
        raise NoFeasibleWindow(
            "no candidate window holds 2 units per side with covariate data")

    balanced = list(takewhile(lambda row: row.passed, feasible_rows))
    chosen = balanced[-1] if balanced else feasible_rows[0]
    return WindowSelection(
        window=make_window(sample, chosen.w_left, chosen.w_right),
        w_left=chosen.w_left, w_right=chosen.w_right, alpha=alpha,
        no_balanced_window=not balanced, trace=tuple(trace))
