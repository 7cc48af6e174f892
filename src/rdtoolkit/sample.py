"""In-memory representation of an RD dataset.

An :class:`RdSample` holds the running variable (score), the outcome, the
optional received-treatment indicator, named pre-intervention covariates,
and the cutoff; multi-cutoff data holds the centred score X - C with
cutoff 0.  All downstream estimation consumes this object; it is
immutable after construction and safe to share across parallel workers.

Assignment convention: a unit with score exactly equal to its cutoff is
assigned to treatment (weak inequality).  Datasets with score mass at the
cutoff are sensitive to this choice.

:func:`ingest_csv` reads the bound columns of a delimited file into one
C-ordered ``(k, n)`` float64 table, one row per binding: score, outcome,
then treatment and cutoff column when mapped, then covariates.  numpy's
C parser and a row-by-row ``csv.reader`` parser build the same table bit
for bit, and only the row parser raises the row-indexed errors; a file
whose bytes were parsed before with the same bindings is read once, for
its digest, and its table is loaded from an on-disk cache.  One function
builds the sample from the table, whatever its source.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .defaults import PARSE_CACHE_BYTES, READ_BLOCK
from .errors import (
    BadSpec,
    BadTreatmentCode,
    DataError,
    MalformedRow,
    MissingColumn,
    NonFiniteCutoff,
    NonFiniteOutcome,
    NonFiniteScore,
)

# Tokens treated as "missing" when parsing CSV cells.
NA_TOKENS = frozenset({"", "na", "nan", "n/a", "null", "none", "."})

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
        Treatment received D_i, float64 0/1, length n: the row every fit
        reads.  An ingested sample's receipt is its parse table's row.
    covariates : dict of str -> ndarray
        Pre-intervention covariates; NaN entries allowed (handled by
        listwise deletion inside balance tests).
    cutoff : float
        Scalar cutoff c; 0 when ``unit_cutoffs`` is given.
    unit_cutoffs : ndarray or None
        Per-unit cutoffs C_i of multi-cutoff data.  They only label the
        units for per-cutoff estimates; the score is centred on them.

    The assignment T_i is the boolean mask :attr:`treated`.  It and the
    side split, :attr:`side_rows`, are computed on first use and kept;
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
            received = np.asarray(self.received, dtype=float)
            if received.shape != (n,):
                raise BadSpec("received must have the same length as score")
            bad = (received != 0) & (received != 1)
            if bad.any():
                raise BadTreatmentCode(int(np.flatnonzero(bad)[0]))
            object.__setattr__(self, "received", received)
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
    def treated(self) -> np.ndarray:
        """The package's one treatment rule, as a mask: a unit is treated
        when score >= cutoff, so ties at the cutoff are treated."""
        treated = self.score >= self.cutoff
        treated.setflags(write=False)
        return treated

    @cached_property
    def side_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The package's one side split: the ascending row indices below
        the cutoff and of the :attr:`treated` units at or above it.

        Like :attr:`treated`, computed on first use and kept.  Threads
        that race on the first use can only compute the same frozen
        arrays more than once."""
        rows = (np.flatnonzero(~self.treated), np.flatnonzero(self.treated))
        for arr in rows:
            arr.setflags(write=False)
        return rows

    def replace_outcome(self, outcome: np.ndarray) -> "RdSample":
        """Same design, different outcome (used by the balance test).

        The new sample shares this one's frozen arrays and side split."""
        derived = replace(self, outcome=outcome)
        derived.__dict__["side_rows"] = self.side_rows
        derived.__dict__["treated"] = self.treated
        return derived

    def subset(self, mask: np.ndarray) -> "RdSample":
        """The rows ``mask`` keeps, to refit: score, outcome and receipt
        at the same cutoff, without the covariates and ``unit_cutoffs`` no
        fit reads.  A mask that keeps every row returns this sample, so
        the refit shares its arrays and its side split."""
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        return RdSample(
            score=self.score[mask], outcome=self.outcome[mask],
            cutoff=self.cutoff,
            received=None if self.received is None else self.received[mask])


# The test a parsed cell of each role must pass, and the error a cell
# that fails it raises.  A covariate cell may hold any value, NaN too.
_CELL_CHECKS = {
    "score": (math.isfinite, NonFiniteScore),
    "outcome": (math.isfinite, NonFiniteOutcome),
    "treatment": (lambda value: value in (0.0, 1.0), BadTreatmentCode),
    "cutoff": (math.isfinite, NonFiniteCutoff),
    "covariate": (lambda value: True, None),
}


def _bindings(column_map: dict[str, object], cutoff: float):
    """The validated (role, column) pairs in table order: score, outcome,
    then treatment and cutoff column when mapped, then covariates."""
    if not np.isfinite(cutoff):
        raise BadSpec("cutoff must be finite")
    if not column_map.get("score") or not column_map.get("outcome"):
        raise MissingColumn("column_map must bind 'score' and 'outcome'")
    cov_cols = list(column_map.get("covariates") or [])
    for name in cov_cols:
        if cov_cols.count(name) > 1:
            raise BadSpec(f"covariate {name!r} is mapped more than once")
    return (*((role, column_map[role])
              for role in ("score", "outcome", "treatment", "cutoff")
              if column_map.get(role)),
            *(("covariate", name) for name in cov_cols))


def _read_header(handle, bindings, delimiter):
    """Read the header row of an open text file: a ``csv.reader`` past
    it, the column index of each binding, in table order, and the
    header's width.  A bound name must name one column."""
    # drop a UTF-8 byte-order mark (Excel's "CSV UTF-8") before csv reads it
    if handle.read(1) != "\ufeff":
        handle.seek(0)
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("file is empty (no header row)") from None
    except csv.Error as err:
        raise BadSpec(f"unreadable header row: {err}") from None
    header = [h.strip() for h in header]
    for _, name in bindings:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise BadSpec(f"column {name!r} appears more than once in the "
                          f"header {header}")
    return reader, [header.index(name) for _, name in bindings], len(header)


def _sample(table, bindings, cutoff) -> RdSample:
    """The sample a table of the bound columns holds, whether it was
    loaded from the cache or parsed by either tier.  A mapped cutoff
    column centres the score on it and sets the cutoff to 0."""
    rows = {role: row for (role, _), row in zip(bindings, table)}
    score = rows["score"]
    unit_cutoffs = rows.get("cutoff")
    centred = unit_cutoffs is not None
    if centred:
        bad = ~np.isfinite(unit_cutoffs)
        if bad.any():
            raise NonFiniteCutoff(int(np.flatnonzero(bad)[0]))
        # a non-finite score is the sample's to reject; X - C of two
        # finite cells can still pass the float range
        with np.errstate(over="ignore"):
            score = score - unit_cutoffs
        overflow = ~np.isfinite(score) & np.isfinite(rows["score"])
        if overflow.any():
            raise DataError("centred score X - C overflows at row "
                            f"{int(np.flatnonzero(overflow)[0])}")
    return RdSample(
        score=score,
        outcome=rows["outcome"], cutoff=0.0 if centred else float(cutoff),
        received=rows.get("treatment"), unit_cutoffs=unit_cutoffs,
        covariates={name: row for (role, name), row in zip(bindings, table)
                    if role == "covariate"})


def _accepted(table, bindings, cutoff) -> RdSample | None:
    """The sample a table holds; None for no table, or for one the sample
    rejects, so that the next source is read: a damaged cache entry is a
    miss, and a numpy table the sample rejects goes to the row parser."""
    if table is None:
        return None
    try:
        return _sample(table, bindings, cutoff)
    except DataError:
        return None


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

    The bound columns are parsed into one ``(k, n)`` float64 table, a
    row per binding in the order score, outcome, treatment, cutoff
    column, covariates, by one of two tiers.  numpy's C parser reads the
    file first; it is given the path so that it reads the file in chunks,
    and it splits cells in quotes as the csv module does.  When numpy
    cannot parse the file, or the sample rejects the table numpy
    returns, the file is read by the row parser, which alone handles
    missing-value tokens, short rows and unparseable covariate cells,
    and raises the row-indexed errors.  So is a file whose name ends in
    ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, which numpy would open as an
    archive: it is read as text.  Both tiers parse a number with the same
    routine, so on every file the first tier accepts they return
    bit-identical tables.

    The file is read once for its SHA-256 digest.
    A parsed table is stored as one ``.npy`` file under
    ``$XDG_CACHE_HOME/rd-toolkit`` (default ``~/.cache/rd-toolkit``),
    keyed by that digest, the delimiter, the bindings, the numpy version,
    the text encoding and csv field-size limit the parse reads with, and
    the bytes of this module.  A later call with the same key loads the
    table instead of parsing, and builds the sample from it through the
    same validation as a parse.  Errors are never stored.  Before a
    table is stored the file is hashed again, and a file whose bytes no
    longer have the digest is not stored; so a call that parses reads the
    file three times, and a call that hits reads it once.  The cache
    holds at most ``defaults.PARSE_CACHE_BYTES``, least recently used
    entries going first, and any failure to read or write it falls back
    to the parse.
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
    digest = sha256_file(local)
    entry = _cache_entry(digest, delimiter, bindings)
    stored = None if entry is None else _cache_load(entry, len(bindings))
    sample = _accepted(stored, bindings, cutoff)
    if sample is not None:
        return sample, digest
    table = None if archive else _ingest_numeric(local, bindings, delimiter)
    sample = _accepted(table, bindings, cutoff)
    if sample is None:
        # The row parser names the row and value the sample rejects.
        table = _ingest_rows(path, bindings, delimiter)
        sample = _sample(table, bindings, cutoff)
    if entry is not None:
        _cache_store(entry, table, local, digest)
    return sample, digest


def sha256_file(path) -> str:
    """SHA-256 hex digest of the file's bytes, read in blocks: the digest
    ingest computes and a report's ``input_digest`` carries."""
    digest = hashlib.sha256()
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(READ_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


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


def _cache_load(entry, k) -> np.ndarray | None:
    """The stored ``(k, n)`` table, its entry marked as just used; None
    for a missing, unreadable or wrong-shape entry."""
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


def _cache_store(entry, table, path, digest) -> None:
    """Store a parsed table, unless the file's bytes no longer have the
    digest the entry is keyed by, then evict least recently used entries
    down to the budget.  Written to a temporary file and renamed into
    place, so a reader never sees a partial entry."""
    import tempfile

    if table.nbytes > PARSE_CACHE_BYTES:
        return
    try:
        # Store the parse only if the file after it still holds the bytes
        # the digest pass read.
        if sha256_file(path) != digest:
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


def _ingest_numeric(path, bindings, delimiter) -> np.ndarray | None:
    """The C-parser tier of :func:`ingest_csv`, for a file with no
    archive suffix: the table of the bound columns, cells in quotes
    included, or None when numpy cannot parse the file."""
    with open(path, newline="") as handle:
        reader, positions, _ = _read_header(handle, bindings, delimiter)
        # numpy warns on a file without data rows; leave those to the
        # row parser, which raises BadSpec for them.
        if not any(line.strip("\r\n") for line in handle):
            return None
    usecols = sorted(set(positions))
    try:
        # Given a path, numpy reads the file in chunks rather than one
        # Python string per line.  It splits cells in quotes as the csv
        # module does; a header cell in quotes may span lines, so skip
        # every line the header took.
        parsed = np.loadtxt(path, delimiter=delimiter, comments=None,
                            quotechar='"', skiprows=reader.line_num,
                            usecols=usecols, ndmin=2, dtype=float)
    except (ValueError, TypeError):
        # Unparseable cell, missing column, or a delimiter numpy does
        # not accept.
        return None
    return parsed.T[[usecols.index(pos) for pos in positions]]


def _ingest_rows(path, bindings, delimiter) -> np.ndarray:
    """The row-parser tier of :func:`ingest_csv`: the table of the bound
    columns, read one ``csv.reader`` row at a time.  A cell that fails
    its role's test raises the row-indexed error."""
    checks = [_CELL_CHECKS[role] for role, _ in bindings]
    with open(path, newline="") as handle:
        reader, positions, width = _read_header(handle, bindings, delimiter)
        columns = [[] for _ in bindings]
        for row_idx, row in _data_rows(reader):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                # A row shorter than the header has empty (NA) trailing cells.
                row += [""] * (width - len(row))
            for pos, (valid, error), values in zip(positions, checks,
                                                   columns):
                value = _parse_cell(row[pos])
                if not valid(value):
                    raise error(row_idx, row[pos])
                values.append(value)
    return np.array(columns, dtype=float)


def _data_rows(reader):
    """Enumerate the data rows; a row the csv module cannot split, such as
    one with a cell over ``csv.field_size_limit()``, raises MalformedRow."""
    index = itertools.count()
    try:
        for row in reader:
            yield next(index), row
    except csv.Error as err:
        raise MalformedRow(next(index), str(err)) from None
