"""In-memory representation of an RD dataset.

An :class:`RdSample` holds the running variable (score), the outcome, the
optional received-treatment indicator, named pre-intervention covariates,
and the cutoff (scalar, or per-unit for multi-cutoff designs).  All
downstream estimation consumes this object; it is immutable after
construction and safe to share across parallel workers.

Assignment convention: a unit with score exactly equal to its cutoff is
assigned to treatment (weak inequality).  Datasets with score mass at the
cutoff are sensitive to this choice.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSpec,
    BadTreatmentCode,
    MissingColumn,
    NonFiniteOutcome,
    NonFiniteScore,
)

# Tokens treated as "missing" when parsing CSV cells.
NA_TOKENS = frozenset({"", "na", "nan", "n/a", "null", "none", "."})


def _parse_cell(text: str) -> float:
    """Parse one CSV cell; NaN for missing tokens, NaN for unparseable."""
    stripped = text.strip()
    if stripped.lower() in NA_TOKENS:
        return float("nan")
    try:
        return float(stripped)
    except ValueError:
        return float("nan")


@dataclass(frozen=True)
class RdSample:
    """Validated RD dataset.

    Attributes
    ----------
    score : ndarray
        Running variable X_i, finite, length n.
    outcome : ndarray
        Outcome Y_i, finite, length n.
    received : ndarray or None
        Treatment received D_i in {0, 1}, length n.
    covariates : dict of str -> ndarray
        Pre-intervention covariates; NaN entries allowed (handled by
        listwise deletion inside balance tests).
    cutoff : float
        Scalar cutoff c.
    unit_cutoffs : ndarray or None
        Per-unit cutoffs C_i; when present they override ``cutoff``
        for every unit.
    """

    score: np.ndarray
    outcome: np.ndarray
    cutoff: float
    received: np.ndarray | None = None
    covariates: dict[str, np.ndarray] = field(default_factory=dict)
    unit_cutoffs: np.ndarray | None = None

    def __post_init__(self):
        score = np.asarray(self.score, dtype=float)
        outcome = np.asarray(self.outcome, dtype=float)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "outcome", outcome)
        n = score.shape[0]
        if n < 1:
            raise BadSpec("sample must contain at least one unit")
        if score.ndim != 1 or outcome.shape != (n,):
            raise BadSpec("score and outcome must be equal-length vectors")
        if not np.all(np.isfinite(score)):
            raise NonFiniteScore(int(np.flatnonzero(~np.isfinite(score))[0]))
        if not np.all(np.isfinite(outcome)):
            raise NonFiniteOutcome(int(np.flatnonzero(~np.isfinite(outcome))[0]))
        if not np.isfinite(self.cutoff):
            raise BadSpec("cutoff must be finite")
        if self.received is not None:
            received = np.asarray(self.received, dtype=float)
            if received.shape != (n,):
                raise BadSpec("received must have the same length as score")
            bad = ~np.isin(received, (0.0, 1.0))
            if bad.any():
                raise BadTreatmentCode(int(np.flatnonzero(bad)[0]))
            object.__setattr__(self, "received", received.astype(np.int8))
        covs = {}
        for name, values in self.covariates.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (n,):
                raise BadSpec(f"covariate {name!r} must have length {n}")
            covs[name] = values
        object.__setattr__(self, "covariates", covs)
        if self.unit_cutoffs is not None:
            cuts = np.asarray(self.unit_cutoffs, dtype=float)
            if cuts.shape != (n,):
                raise BadSpec("unit_cutoffs must have the same length as score")
            if not np.all(np.isfinite(cuts)):
                raise BadSpec("unit_cutoffs must be finite")
            object.__setattr__(self, "unit_cutoffs", cuts)
        # Freeze the arrays so the sample really is immutable.
        for arr in (self.score, self.outcome, self.received,
                    self.unit_cutoffs, *self.covariates.values()):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.score.shape[0]

    def effective_cutoffs(self) -> np.ndarray:
        """Per-unit cutoff vector (unit_cutoffs when present, else scalar)."""
        if self.unit_cutoffs is not None:
            return self.unit_cutoffs
        return np.full(self.n, self.cutoff)

    def centered_score(self) -> np.ndarray:
        """Score minus the applicable per-unit cutoff."""
        return self.score - self.effective_cutoffs()

    def replace_outcome(self, outcome: np.ndarray) -> "RdSample":
        """Same design, different outcome (used by balance and placebo tests)."""
        return RdSample(score=self.score.copy(), outcome=np.asarray(outcome, dtype=float),
                        cutoff=self.cutoff, received=None if self.received is None
                        else self.received.copy(), covariates={k: v.copy() for k, v in self.covariates.items()},
                        unit_cutoffs=None if self.unit_cutoffs is None else self.unit_cutoffs.copy())

    def normalized(self) -> "RdSample":
        """Single-cutoff view: score minus its per-unit cutoff, cutoff 0."""
        return RdSample(score=self.centered_score().copy(),
                        outcome=self.outcome.copy(), cutoff=0.0,
                        received=None if self.received is None
                        else self.received.copy(),
                        covariates={k: v.copy() for k, v in self.covariates.items()})

    def subset(self, mask: np.ndarray) -> "RdSample":
        """Row subset preserving cutoff metadata."""
        mask = np.asarray(mask, dtype=bool)
        return RdSample(
            score=self.score[mask],
            outcome=self.outcome[mask],
            cutoff=self.cutoff,
            received=None if self.received is None else self.received[mask],
            covariates={k: v[mask] for k, v in self.covariates.items()},
            unit_cutoffs=None if self.unit_cutoffs is None else self.unit_cutoffs[mask],
        )


@dataclass(frozen=True)
class MassPointSummary:
    """Census of distinct score values.

    ``below_neighbor`` is the largest distinct value strictly below the
    cutoff, or None when every value is at or above it.
    """

    distinct_values: np.ndarray
    m: int
    counts: np.ndarray
    below_neighbor: float | None


def mass_points(sample: RdSample) -> MassPointSummary:
    """Exact distinct-value census of the score."""
    values, counts = np.unique(sample.score, return_counts=True)
    below = values[values < sample.cutoff]
    neighbor = float(below[-1]) if below.size else None
    return MassPointSummary(distinct_values=values, m=int(values.size),
                            counts=counts, below_neighbor=neighbor)


def ingest_csv(path, column_map: dict[str, object], cutoff: float = 0.0,
               delimiter: str = ",") -> RdSample:
    """Read and validate an RD dataset from a delimited text file.

    Parameters
    ----------
    path : str or Path
        File with a header row.
    column_map : dict
        Bindings: ``score`` and ``outcome`` (required), ``treatment``,
        ``cutoff`` (per-unit cutoff column), and ``covariates`` (list of
        column names), all optional.
    cutoff : float, default 0
        Scalar cutoff; overridden per unit when a cutoff column is mapped.

    Rows whose score or outcome is missing or non-finite are rejected with
    the offending row index (0-based data row, excluding the header).  A
    row with fewer cells than the header reads its missing trailing cells
    as empty, i.e. missing.
    """
    if not np.isfinite(cutoff):
        raise BadSpec("cutoff must be finite")
    score_col = column_map.get("score")
    outcome_col = column_map.get("outcome")
    if not score_col or not outcome_col:
        raise MissingColumn("column_map must bind 'score' and 'outcome'")
    treat_col = column_map.get("treatment")
    cutoff_col = column_map.get("cutoff")
    cov_cols = list(column_map.get("covariates") or [])

    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("file is empty (no header row)") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in [score_col, outcome_col, treat_col, cutoff_col, *cov_cols]:
            if name is None:
                continue
            if name not in header:
                raise MissingColumn(f"column {name!r} not found in header {header}")
            positions[name] = header.index(name)

        score, outcome = [], []
        treatment = [] if treat_col else None
        unit_cutoffs = [] if cutoff_col else None
        covariates = {name: [] for name in cov_cols}
        width = len(header)
        for row_idx, row in enumerate(reader):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                # A row shorter than the header has empty (NA) trailing cells.
                row += [""] * (width - len(row))
            raw_score = row[positions[score_col]]
            x = _parse_cell(raw_score)
            if not np.isfinite(x):
                raise NonFiniteScore(row_idx, raw_score)
            raw_outcome = row[positions[outcome_col]]
            y = _parse_cell(raw_outcome)
            if not np.isfinite(y):
                raise NonFiniteOutcome(row_idx, raw_outcome)
            score.append(x)
            outcome.append(y)
            if treat_col:
                raw_t = row[positions[treat_col]]
                t = _parse_cell(raw_t)
                if t not in (0.0, 1.0):
                    raise BadTreatmentCode(row_idx, raw_t)
                treatment.append(t)
            if cutoff_col:
                raw_c = row[positions[cutoff_col]]
                c_i = _parse_cell(raw_c)
                if not np.isfinite(c_i):
                    raise NonFiniteScore(row_idx, raw_c)
                unit_cutoffs.append(c_i)
            for name in cov_cols:
                covariates[name].append(_parse_cell(row[positions[name]]))

    return RdSample(
        score=np.asarray(score), outcome=np.asarray(outcome), cutoff=float(cutoff),
        received=None if treatment is None else np.asarray(treatment),
        covariates={k: np.asarray(v) for k, v in covariates.items()},
        unit_cutoffs=None if unit_cutoffs is None else np.asarray(unit_cutoffs),
    )
