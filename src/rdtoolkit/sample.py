"""In-memory representation of an RD dataset.

An :class:`RdSample` holds the running variable (score), the outcome, the
optional received-treatment indicator, named pre-intervention covariates,
and the cutoff; multi-cutoff data holds the centred score X - C with
cutoff 0.  All downstream estimation consumes this object; it is
immutable after construction and safe to share across parallel workers.

Assignment convention: a unit with score exactly equal to its cutoff is
assigned to treatment (weak inequality).  Datasets with score mass at the
cutoff are sensitive to this choice.

:func:`ingest_csv` reads a delimited file in two tiers that agree bit for
bit.  numpy's C parser reads a file whose mapped cells are all numbers
that pass validation; a row-by-row ``csv.reader`` parser reads every
other file and raises the row-indexed errors.  A file whose bytes were
parsed before with the same bindings is read once, for its digest, and
its columns are loaded from an on-disk cache instead of parsed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .defaults import PARSE_CACHE_BYTES
from .errors import (
    BadSpec,
    BadTreatmentCode,
    DataError,
    MalformedRow,
    MissingColumn,
    NonFiniteOutcome,
    NonFiniteScore,
)

# Tokens treated as "missing" when parsing CSV cells.
NA_TOKENS = frozenset({"", "na", "nan", "n/a", "null", "none", "."})

# Bytes per read of the digest pass, so the file is never held whole.
_READ_BLOCK = 1 << 16

# File-name suffixes numpy opens as archives.
_ARCHIVE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


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
        Running variable X_i, finite, length n.  With ``unit_cutoffs``
        it is already centred: X_i - C_i.
    outcome : ndarray
        Outcome Y_i, finite, length n.
    received : ndarray or None
        Treatment received D_i in {0, 1}, length n.
    covariates : dict of str -> ndarray
        Pre-intervention covariates; NaN entries allowed (handled by
        listwise deletion inside balance tests).
    cutoff : float
        Scalar cutoff c; 0 when ``unit_cutoffs`` is given.
    unit_cutoffs : ndarray or None
        Per-unit cutoffs C_i of multi-cutoff data.  They only label the
        units for per-cutoff estimates; the score is centred on them.

    The side split, :attr:`side_rows`, is computed on first use and kept;
    every estimator gathers a side's columns with ``take`` on its rows.
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
            received = np.asarray(self.received)
            if received.shape != (n,):
                raise BadSpec("received must have the same length as score")
            bad = (received != 0) & (received != 1)
            if bad.any():
                raise BadTreatmentCode(int(np.flatnonzero(bad)[0]))
            object.__setattr__(self, "received",
                               received.astype(np.int8, copy=False))
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
            if self.cutoff != 0:
                raise BadSpec("unit_cutoffs label a centred score X - C; "
                              "the cutoff must be 0")
            object.__setattr__(self, "unit_cutoffs", cuts)
        # Freeze the arrays so the sample really is immutable.
        for arr in (self.score, self.outcome, self.received,
                    self.unit_cutoffs, *self.covariates.values()):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.score.shape[0]

    def centered_score(self) -> np.ndarray:
        """Score minus the cutoff."""
        return self.score - self.cutoff

    @cached_property
    def side_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The package's one side split: the ascending row indices below
        the cutoff (score < cutoff) and at or above it (ties are treated).

        Computed on first use and kept.  Threads that race on the first
        use can only compute the same frozen arrays more than once."""
        below = self.score < self.cutoff
        rows = (np.flatnonzero(below), np.flatnonzero(~below))
        for arr in rows:
            arr.setflags(write=False)
        return rows

    def replace_outcome(self, outcome: np.ndarray) -> "RdSample":
        """Same design, different outcome (used by balance and placebo tests).

        The new sample shares this one's frozen arrays and side split."""
        derived = replace(self, outcome=outcome)
        derived.__dict__["side_rows"] = self.side_rows
        return derived

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


def _bindings(column_map: dict[str, object], cutoff: float):
    """Validated (score, outcome, treatment, cutoff, covariate) columns."""
    if not np.isfinite(cutoff):
        raise BadSpec("cutoff must be finite")
    score_col = column_map.get("score")
    outcome_col = column_map.get("outcome")
    if not score_col or not outcome_col:
        raise MissingColumn("column_map must bind 'score' and 'outcome'")
    cov_cols = list(column_map.get("covariates") or [])
    for name in cov_cols:
        if cov_cols.count(name) > 1:
            raise BadSpec(f"covariate {name!r} is mapped more than once")
    return (score_col, outcome_col, column_map.get("treatment"),
            column_map.get("cutoff"), cov_cols)


def _read_header(reader, names) -> tuple[dict[str, int], int]:
    """Read the header row: the column index of each bound name, and the
    header's width."""
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("file is empty (no header row)") from None
    except csv.Error as err:
        raise BadSpec(f"unreadable header row: {err}") from None
    header = [h.strip() for h in header]
    positions = {}
    for name in names:
        if name is None:
            continue
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header}")
        positions[name] = header.index(name)
    return positions, len(header)


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
        Scalar cutoff.  Ignored when a cutoff column is mapped: the
        sample then holds the centred score X - C with cutoff 0, and the
        column only labels the units for per-cutoff estimates.
    delimiter : str, default ","
        One character; anything else raises ``BadSpec``.

    Rows whose score or outcome is missing or non-finite are rejected with
    the offending row index (0-based data row, excluding the header).  A
    row with fewer cells than the header reads its missing trailing cells
    as empty, i.e. missing.

    The data rows are parsed in one of two tiers.  A file with no quote
    character whose mapped cells are all numbers, with finite scores,
    outcomes and cutoffs and treatment codes in {0, 1}, is read by
    numpy's C parser, which is given the path so that it reads the file
    in chunks.  Any other file is read by the row parser, which alone
    handles missing-value tokens, quoted cells, short rows and
    unparseable covariate cells, and raises the row-indexed errors.  So
    is a file whose name ends in ``.gz``, ``.bz2``, ``.xz`` or
    ``.lzma``, which numpy would open as an archive: it is read as text.
    Both tiers parse a number with the same routine, so on every file
    the first tier accepts they return bit-identical arrays.

    The file is read once for its SHA-256 digest and the quote check.
    A parse is stored as one ``(k, n)`` float64 ``.npy`` file under
    ``$XDG_CACHE_HOME/rd-toolkit`` (default ``~/.cache/rd-toolkit``),
    keyed by that digest, the delimiter, the bindings, the numpy version,
    the text encoding and csv field-size limit the parse reads with, and
    the bytes of this module.  A later call with the same key loads the
    columns instead of parsing, and still builds the sample through its
    full validation.  Errors are never stored.  Before a parse is stored
    the file is hashed again, and a file whose bytes no longer have the
    digest is not stored; so a call that parses reads the file three
    times, and a call that hits reads it once.  The cache holds at most
    ``defaults.PARSE_CACHE_BYTES``, least recently used entries going
    first, and any failure to read or write it falls back to the parse.
    """
    return ingest_with_digest(path, column_map, cutoff, delimiter)[0]


def ingest_with_digest(path, column_map: dict[str, object], cutoff: float,
                       delimiter: str) -> tuple[RdSample, str]:
    """:func:`ingest_csv`, and the SHA-256 hex digest of the file's bytes
    from the same read."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise BadSpec(f"delimiter must be one character, got {delimiter!r}")
    bindings = _bindings(column_map, cutoff)
    # numpy reads a relative path that parses as a URL from the network,
    # so the numeric tier opens the file below the current directory; a
    # file named like an archive, which numpy would decompress, goes to
    # the row parser by the name it was given.
    archive = os.fspath(path).endswith(_ARCHIVE_SUFFIXES)
    local = path if archive else os.path.join(os.curdir, path)
    digest, quoted = _scan(local)
    entry = _cache_entry(digest, delimiter, bindings)
    table = None if entry is None else _cache_load(entry, bindings)
    if table is not None:
        try:
            return _cached_sample(table, bindings, cutoff), digest
        except DataError:
            pass  # an entry that fails validation is a miss
    # A quoted cell may hold the delimiter, which only the csv module
    # splits correctly.
    sample = None if archive or quoted else _ingest_numeric(
        local, column_map, cutoff, delimiter)
    if sample is None:
        sample = _ingest_rows(path, column_map, cutoff, delimiter)
    if entry is not None:
        _cache_store(entry, sample, local, digest)
    return sample, digest


def _scan(path) -> tuple[str, bool]:
    """One streamed read of the file: its SHA-256 hex digest, and whether
    it holds a quote character."""
    digest = hashlib.sha256()
    quoted = False
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(_READ_BLOCK), b""):
            digest.update(block)
            quoted = quoted or b'"' in block
    return digest.hexdigest(), quoted


def _cache_entry(digest, delimiter, bindings) -> str | None:
    """Path of the cache entry for a file's parse; None when there is no
    absolute cache directory or this module cannot be read."""
    import locale

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    if not os.path.isabs(base):
        return None
    try:
        with open(__file__, "rb") as module:
            parser = hashlib.sha256(module.read()).hexdigest()
    except OSError:
        return None
    key = ascii((digest, delimiter, bindings, np.__version__, parser,
                 locale.getpreferredencoding(False), csv.field_size_limit()))
    return os.path.join(base, "rd-toolkit",
                        hashlib.sha256(key.encode()).hexdigest() + ".npy")


def _cache_load(entry, bindings) -> np.ndarray | None:
    """The stored ``(k, n)`` table, its entry marked as just used; None
    for a missing, unreadable or wrong-shape entry."""
    _, _, treat_col, cutoff_col, cov_cols = bindings
    k = 2 + bool(treat_col) + bool(cutoff_col) + len(cov_cols)
    try:
        with open(entry, "rb") as handle:
            table = np.load(handle, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    try:
        os.utime(entry)
    except OSError:
        pass  # a cache that can be read but not written still serves
    if (isinstance(table, np.ndarray) and table.dtype == np.float64
            and table.ndim == 2 and table.shape[0] == k
            and table.flags.c_contiguous):
        return table
    return None


def _cached_sample(table, bindings, cutoff) -> RdSample:
    """The sample a stored table holds: the arrays of the sample that was
    stored, in table order."""
    _, _, treat_col, cutoff_col, cov_cols = bindings
    rows = iter(table)
    score, outcome = next(rows), next(rows)
    received = next(rows) if treat_col else None
    unit_cutoffs = next(rows) if cutoff_col else None
    return RdSample(score=score, outcome=outcome,
                    cutoff=0.0 if cutoff_col else float(cutoff),
                    received=received, covariates=dict(zip(cov_cols, rows)),
                    unit_cutoffs=unit_cutoffs)


def _cache_store(entry, sample, path, digest) -> None:
    """Store a sample's arrays, unless the file's bytes no longer have the
    digest the entry is keyed by, then evict least recently used entries
    down to the budget.  Written to a temporary file and renamed into
    place, so a reader never sees a partial entry."""
    import tempfile

    table = np.stack([row for row in (
        sample.score, sample.outcome, sample.received, sample.unit_cutoffs,
        *sample.covariates.values()) if row is not None])
    if table.nbytes > PARSE_CACHE_BYTES:
        return
    try:
        # Store the parse only if the file after it still holds the bytes
        # the digest pass read.
        if _scan(path)[0] != digest:
            return
        directory = os.path.dirname(entry)
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, table)
            os.replace(temp, entry)
        except OSError:
            os.unlink(temp)
            raise
        _evict(directory)
    except OSError:
        pass


def _evict(directory) -> None:
    """Delete the least recently used files until the cache fits its
    budget."""
    files = []
    with os.scandir(directory) as items:
        for item in items:
            if item.is_file(follow_symlinks=False):
                stat = item.stat(follow_symlinks=False)
                files.append((stat.st_mtime_ns, stat.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, name in sorted(files):
        if total <= PARSE_CACHE_BYTES:
            break
        os.unlink(name)
        total -= size


def _ingest_numeric(path, column_map, cutoff, delimiter) -> RdSample | None:
    """The C-parser tier of :func:`ingest_csv`, for a file with no quote
    character and no archive suffix; None when the file needs the row
    parser."""
    score_col, outcome_col, treat_col, cutoff_col, cov_cols = _bindings(
        column_map, cutoff)
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        positions, _ = _read_header(
            reader, [score_col, outcome_col, treat_col, cutoff_col, *cov_cols])
        # numpy warns on a file without data rows; leave those to the
        # row parser, which raises BadSpec for them.
        if not any(line.strip("\r\n") for line in handle):
            return None
    usecols = sorted(set(positions.values()))
    try:
        # Given a path, numpy reads the file in chunks rather than one
        # Python string per line.
        table = np.loadtxt(path, delimiter=delimiter, comments=None,
                           skiprows=1, usecols=usecols, ndmin=2, dtype=float)
    except (ValueError, TypeError):
        # Unparseable cell, missing column, or a delimiter numpy does
        # not accept.
        return None
    column = {name: np.ascontiguousarray(table[:, usecols.index(pos)])
              for name, pos in positions.items()}
    finite = [score_col, outcome_col] + ([cutoff_col] if cutoff_col else [])
    if not all(np.isfinite(column[name]).all() for name in finite):
        return None
    if treat_col and not np.isin(column[treat_col], (0.0, 1.0)).all():
        return None
    return _parsed_sample(
        column[score_col], column[outcome_col], cutoff,
        column[treat_col] if treat_col else None,
        {name: column[name] for name in cov_cols},
        column[cutoff_col] if cutoff_col else None)


def _ingest_rows(path, column_map, cutoff, delimiter) -> RdSample:
    """The row-parser tier of :func:`ingest_csv`: one ``csv.reader`` row
    at a time, raising the row-indexed errors."""
    score_col, outcome_col, treat_col, cutoff_col, cov_cols = _bindings(
        column_map, cutoff)
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        positions, width = _read_header(
            reader, [score_col, outcome_col, treat_col, cutoff_col, *cov_cols])
        score, outcome = [], []
        treatment = [] if treat_col else None
        unit_cutoffs = [] if cutoff_col else None
        covariates = {name: [] for name in cov_cols}
        for row_idx, row in _data_rows(reader):
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

    return _parsed_sample(
        np.asarray(score), np.asarray(outcome), cutoff,
        None if treatment is None else np.asarray(treatment),
        {k: np.asarray(v) for k, v in covariates.items()},
        None if unit_cutoffs is None else np.asarray(unit_cutoffs))


def _data_rows(reader):
    """Enumerate the data rows; a row the csv module cannot split, such as
    one with a cell over ``csv.field_size_limit()``, raises MalformedRow."""
    index = itertools.count()
    try:
        for row in reader:
            yield next(index), row
    except csv.Error as err:
        raise MalformedRow(next(index), str(err)) from None


def _parsed_sample(score, outcome, cutoff, received, covariates,
                   unit_cutoffs) -> RdSample:
    """The sample both ingest tiers return.  A mapped cutoff column
    centres the score on it and sets the cutoff to 0."""
    if unit_cutoffs is not None:
        score = score - unit_cutoffs
        cutoff = 0.0
    return RdSample(score=score, outcome=outcome, cutoff=float(cutoff),
                    received=received, covariates=covariates,
                    unit_cutoffs=unit_cutoffs)
