"""Tabular ingestion, feature transforms, standardization, and storm-aware splits.

Input files are comma-delimited with a declared header. Station rows carry an
observed gust target; grid rows carry cell indices instead of a station id.
The eleven model features are derived from nine raw columns plus the
timestamp: wind direction becomes (sin, cos) components and the timestamp
becomes a cosine-transformed day of year, cos(2*pi*(t-1)/365).
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConfigError, DegenerateInputWarning, IngestError, UsageError
from .fileio import BLOCK_ROWS, RANGE_ROWS, gc_paused

# Derived feature vector, in model-input order.
FEATURE_NAMES = [
    "WS_10m",
    "WS_850mb",
    "WS_950mb",
    "PBLH",
    "Ustar",
    "WindDC_sin",
    "WindDC_cos",
    "Terrain_height",
    "Lapse_sfc_1km",
    "Lapse_sfc_2km",
    "yday",
]

# Raw numeric columns shared by the station and grid schemas.
RAW_FEATURE_COLUMNS = [
    "WS_10m",
    "WS_850mb",
    "WS_950mb",
    "PBLH",
    "Ustar",
    "wind_dir_deg",
    "terrain_height_m",
    "lapse_sfc_1km",
    "lapse_sfc_2km",
]

TARGET_COLUMN = "gust_obs"

STORM_WINDOW_HOURS = 48


@dataclass
class Dataset:
    """Columnar storm records; grid datasets carry cell indices instead of
    station ids."""

    storm_ids: np.ndarray
    timestamps: np.ndarray  # datetime64[s]
    lats: np.ndarray
    lons: np.ndarray
    features: np.ndarray  # [n, len(FEATURE_NAMES)]
    gust: np.ndarray | None = None  # NaN where absent
    station_ids: np.ndarray | None = None
    grid_rows: np.ndarray | None = None
    grid_cols: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.storm_ids)

    @property
    def feature_names(self) -> list[str]:
        return list(FEATURE_NAMES)

    def subset(self, index: np.ndarray) -> "Dataset":
        return Dataset(**{name: None if column is None else column[index]
                          for name, column in vars(self).items()})

    def storm_start_times(self) -> dict[str, np.datetime64]:
        storms, starts, _ = _storm_spans(self.storm_ids, self.timestamps)
        return dict(zip(map(str, storms), starts))


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 UTC timestamp; 'Z' suffix and ' ' separator accepted.

    A fractional second or a UTC offset other than 'Z' is refused, not
    truncated to the second or shifted to UTC.
    """
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1]
    s = s.replace(" ", "T", 1)
    if not set(s.partition("T")[2]) <= set("0123456789:"):  # no fraction, no offset
        raise ValueError(f"invalid timestamp {text!r}")
    try:
        ts = np.datetime64(s, "s")
    except ValueError as exc:
        raise ValueError(f"invalid timestamp {text!r}") from exc
    if np.isnat(ts):
        raise ValueError(f"invalid timestamp {text!r}")
    return ts


def format_timestamp(ts: np.datetime64) -> str:
    return str(np.datetime64(ts, "s")) + "Z"


def day_of_year_cos(timestamps: np.ndarray) -> np.ndarray:
    """cos(2*pi*(t-1)/365) with t the day of year in [1, 366].

    Day 366 of a leap year is evaluated with the same 365 denominator, so the
    transform wraps slightly past a full cycle there.
    """
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    days = (ts.astype("datetime64[D]") - ts.astype("datetime64[Y]")).astype(int) + 1
    return np.cos(2.0 * np.pi * (days - 1) / 365.0)


def wind_direction_components(direction_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) of the wind direction angle in degrees.

    Directions follow the meteorological "blowing from" convention; the model
    only sees the components, so the convention is a labeling choice.
    """
    theta = np.deg2rad(np.asarray(direction_deg, dtype=float))
    return np.sin(theta), np.cos(theta)


def _derive_features(raw, timestamps: np.ndarray) -> np.ndarray:
    """The [n x 11] model feature matrix from the nine raw columns, in
    ``RAW_FEATURE_COLUMNS`` order, and the timestamps.

    ``raw`` is an iterable of the raw columns. Each column is copied into
    place as it comes, so an iterator that hands over the last reference to
    each column frees it before the next one.
    """
    out = np.empty((len(timestamps), len(FEATURE_NAMES)))
    k = 0
    for name, column in zip(RAW_FEATURE_COLUMNS, raw, strict=True):
        if name == "wind_dir_deg":  # becomes WindDC_sin and WindDC_cos
            out[:, k], out[:, k + 1] = wind_direction_components(column)
            k += 2
        else:
            out[:, k] = column
            k += 1
    del column
    out[:, k] = day_of_year_cos(timestamps)
    return out


def _check_header(path, header: list[str], required: list[str], optional, exact: bool) -> None:
    missing = [c for c in required if c not in header]
    if missing and not exact:
        raise UsageError(f"{path}: missing columns {', '.join(missing)}")
    if missing:
        raise IngestError(f"{path}: missing required columns: {', '.join(missing)}")
    unknown = [c for c in header if c not in required and c not in optional]
    if exact and unknown:
        raise IngestError(f"{path}: unknown columns: {', '.join(unknown)}")
    repeated = [c for c, n in Counter(header).items() if n > 1]
    if repeated:  # a dict of the columns would keep the last of each silently
        raise IngestError(f"{path}: repeated column names {', '.join(repeated)}")


def _storm_spans(storm_ids: np.ndarray, timestamps: np.ndarray):
    """The distinct storms (sorted) with each one's first and last timestamp."""
    storms, inverse = np.unique(storm_ids, return_inverse=True)
    seconds = np.asarray(timestamps, dtype="datetime64[s]").view(np.int64)
    first = np.full(len(storms), np.iinfo(np.int64).max)
    last = np.full(len(storms), np.iinfo(np.int64).min)
    np.minimum.at(first, inverse, seconds)
    np.maximum.at(last, inverse, seconds)
    return storms, first.view("datetime64[s]"), last.view("datetime64[s]")


def _check_storm_windows(storm_ids: np.ndarray, timestamps: np.ndarray) -> None:
    storms, first, last = _storm_spans(storm_ids, timestamps)
    too_long = last - first > np.timedelta64(STORM_WINDOW_HOURS * 3600, "s")
    if np.any(too_long):
        raise IngestError(
            f"storm {storms[np.argmax(too_long)]} spans more than {STORM_WINDOW_HOURS} hours"
        )


# Column kinds of the reader: each turns a sequence of a column's strings into
# an array, or raises ValueError naming the first bad value. A kind checks each
# value on its own, so any part of a column without a bad value passes.


def _first(values: np.ndarray, bad: np.ndarray):
    return values[np.argmax(bad)].item()


def checked(parse, ok, message: str):
    """The kind that parses a column with ``parse`` and refuses it unless
    ``ok`` of the parsed array holds everywhere; the ``ValueError`` reads
    ``message.format(value)`` for the first value that fails."""
    def kind(texts) -> np.ndarray:
        out = parse(texts)
        if not np.all(good := ok(out)):
            raise ValueError(message.format(_first(out, ~good)))
        return out
    return kind


def id_column(texts) -> np.ndarray:
    ids = [t.strip() for t in texts]
    if not all(ids):
        raise ValueError("empty value")
    return np.asarray(ids, dtype=str)


def time_column(texts) -> np.ndarray:
    """Timestamps, each distinct string parsed once."""
    seconds = {t: parse_timestamp(t).astype(np.int64) for t in dict.fromkeys(texts)}
    return np.fromiter(map(seconds.__getitem__, texts), np.int64, len(texts)).view(
        "datetime64[s]"
    )


def float_column(texts) -> np.ndarray:
    """Python's ``float`` of each text, as numpy applies it to ``str``."""
    return np.array(texts, dtype=float)


def int_column(texts) -> np.ndarray:
    """Python's ``int`` of each text, which must fit a 64-bit integer."""
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts))
    except OverflowError:
        raise ValueError("outside the 64-bit integer range") from None


def _gust_column(texts) -> np.ndarray:
    """Observed gusts, finite and >= 0; a blank value reads as NaN."""
    texts = [t.strip() for t in texts]
    present = np.fromiter(map(bool, texts), bool, len(texts))
    gust = np.fromiter((float(t) if t else np.nan for t in texts), float, len(texts))
    if np.any(bad := present & ~(np.isfinite(gust) & (gust >= 0))):
        raise ValueError(f"must be finite and >= 0, got {_first(gust, bad)}")
    return gust


index_column = checked(int_column, lambda v: v >= 0, "must be >= 0, got {}")
_finite_column = checked(float_column, np.isfinite, "must be finite, got {}")
_degrees_column = checked(_finite_column, lambda v: (v >= 0) & (v <= 360), "{} outside [0, 360]")
_latitude_column = checked(_finite_column, lambda v: (v >= -90) & (v <= 90),
                           "{} outside [-90, 90]")
_sd_column = checked(_finite_column, lambda v: v >= 0, "must be >= 0, got {}")
# training and scoring need a target in every row
_observed_gust_column = checked(_gust_column, lambda g: ~np.isnan(g), "missing value")

# The kind of every column that a station, grid or predictions file holds.
# The target is not here: whether a blank one passes depends on the command.
COLUMN_KINDS = {
    "storm_id": id_column, "timestamp_utc": time_column, "station_id": id_column,
    "row": index_column, "col": index_column, "lat": _latitude_column, "lon": _finite_column,
    **dict.fromkeys(RAW_FEATURE_COLUMNS, _finite_column), "wind_dir_deg": _degrees_column,
    "mean": _finite_column,
    **dict.fromkeys(["aleatoric_sd", "epistemic_sd", "total_sd"], _sd_column),
}
# The schemas in check order: a bad row reports its first failing column.
_STATION_COLUMNS = ("storm_id", "timestamp_utc", "station_id", "lat", "lon", *RAW_FEATURE_COLUMNS)
_GRID_COLUMNS = ("storm_id", "timestamp_utc", "row", "col", "lat", "lon", *RAW_FEATURE_COLUMNS)


def _kinds(names) -> dict:
    return {name: COLUMN_KINDS[name] for name in names}


def _row_errors(columns: dict, texts: dict, failed) -> dict[int, str]:
    """The bad rows of a block whose ``failed`` columns (in schema order)
    refused it, each row with its first failing column as ``<column>:
    <reason>``: each value of a failed column is converted on its own."""
    first: dict[int, str] = {}
    for name in failed:
        convert = columns[name]
        for k, text in enumerate(texts[name]):
            if k not in first:
                try:
                    convert([text])
                except ValueError as exc:
                    first[k] = f"{name}: {exc}"
    return first


def _reject_duplicates(path, names, keys: list[np.ndarray], lines: np.ndarray) -> None:
    """Raise naming each row whose key columns repeat an earlier row; row
    ``i`` is on file line ``lines[i]``."""
    order = np.lexsort(keys[::-1])  # stable: equal keys stay in file order
    same = np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in keys])
    if not np.any(same):
        return
    starts = np.r_[True, ~same]  # where each run of equal keys begins
    first = np.flatnonzero(starts)[np.cumsum(starts) - 1]
    later = np.flatnonzero(np.r_[False, same])
    pairs = sorted(zip(order[later].tolist(), order[first[later]].tolist()))
    raise IngestError(
        f"{path}: {len(pairs)} duplicate ({', '.join(names)}) rows",
        [(int(lines[i]), f"same key as line {lines[j]}") for i, j in pairs],
    )


def _records(path, reader, line: int):
    """``(line, record)`` for each record of ``reader``, the first on file line
    ``line``. A record that csv cannot read, or that is not UTF-8, is an ``IngestError``."""
    base = line - reader.line_num - 1  # a record's file line is base + its csv line
    try:
        for record in reader:
            yield line, record
            line = base + reader.line_num + 1
    except csv.Error as exc:
        raise IngestError(f"{path}: line {line}: {exc}") from None
    except UnicodeDecodeError as exc:  # its position counts from where a range's read began
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


@gc_paused()
def _read_rows(records, limit, columns: dict, where: dict, width: int):
    """Convert the next ``limit`` of ``records`` (all that are left for None),
    as :func:`_records` yields them, ``BLOCK_ROWS`` records at a time: the
    arrays of each column, one per block, the bad rows as ``(line, reason)``
    and the file line of each row. The GC is paused."""
    parts = {name: [convert([])] for name, convert in columns.items()}
    row_errors: list[tuple[int, str]] = []
    row_lines = [np.empty(0, np.int64)]
    records = itertools.islice(records, limit)
    while True:
        block, lines, line = [], [], None
        for line, row in itertools.islice(records, BLOCK_ROWS):
            if row:  # a blank line is counted but holds no row
                block.append(row)
                lines.append(line)
        if line is None:
            break
        if not block:
            continue
        # a row of the wrong width is reported as such, and padded or cut
        # to the header's width so that the block's other rows are checked
        errors = {k: "missing fields" if len(r) < width else "extra fields"
                  for k, r in enumerate(block) if len(r) != width}
        for k in errors:
            block[k] = (block[k] + [""] * width)[:width]
        fields = list(zip(*block))
        absent = ("",) * len(block)
        texts = {name: fields[where[name]] if name in where else absent for name in columns}
        failed = {}
        for name, convert in columns.items():
            try:
                parts[name].append(convert(texts[name]))
            except ValueError as exc:
                failed[name] = exc
        if failed:
            found = _row_errors(columns, texts, failed)
            if not found:
                raise next(iter(failed.values()))
            for k, reason in found.items():
                errors.setdefault(k, reason)
        row_errors += [(lines[k], reason) for k, reason in sorted(errors.items())]
        row_lines.append(np.array(lines, dtype=np.int64))
        # with ``block`` rebound at the top of the loop, this frees the block's
        # text before the next block is read: one block's text at a time
        del fields, texts
    return parts, row_errors, np.concatenate(row_lines)


# Bytes the reader's scan for line starts reads at a time, and the lines
# between two starts it keeps: the row ranges begin at multiples of it.
_SCAN_BYTES = 1 << 20
_SCAN_STRIDE = 256


def _line_starts(path, every: int):
    """Read the file's bytes once, a chunk at a time: the byte offsets where
    lines 0, ``every``, 2 * ``every``, ... after the header start, and the
    number of lines after the header. None where a line may not be one csv
    record: a ``"`` after the first line break, or a lone ``\\r``."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.count(b"\r") != header.count(b"\r\n"):
            return None
        offset = len(header)
        starts, lines, last = [offset], 0, b""
        # each chunk ends at a line break, so no line and no \r\n spans two
        while chunk := fh.read(_SCAN_BYTES) + fh.readline():
            if b'"' in chunk:
                return None
            codes = np.frombuffer(chunk, np.uint8)
            breaks = np.flatnonzero(codes == ord("\n"))
            # a chunk starting with a line break follows one, not a \r
            after_cr = codes[np.maximum(breaks - 1, 0)] == ord("\r")
            if np.count_nonzero(codes == ord("\r")) != np.count_nonzero(after_cr):
                return None
            # line i starts after line break i - 1; the first i wanted here
            wanted = -(-(lines + 1) // every) * every
            starts += (offset + 1 + breaks[wanted - 1 - lines::every]).tolist()
            lines += len(breaks)
            offset += len(chunk)
            last = chunk[-1:]
    return starts, lines + (last not in (b"", b"\n"))


def _read_pieces(path, columns: dict, optional, exact: bool) -> list:
    """``read_csv``'s header check and ``_read_rows`` of each row range."""
    required = [c for c in columns if c not in optional]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(path, csv.reader(fh), 1)
        _, header = next(records, (1, None))
        if header is None:
            raise IngestError(f"{path}: empty file without header")
        _check_header(path, header, required, optional, exact)
        where = {name: i for i, name in enumerate(header)}
        width = len(header)
        bounds, starts = [0, None], []
        if parallel.usable_cpus() > 1 and (scan := _line_starts(path, _SCAN_STRIDE)):
            starts, n_lines = scan
            bounds = parallel.cut(n_lines, RANGE_ROWS, _SCAN_STRIDE)

        def read_range(k: int):
            limit = bounds[k + 1] - bounds[k] if k + 2 < len(bounds) else None
            if k == 0:
                return _read_rows(records, limit, columns, where, width)
            # after a one-line header, line i of the rest is file line i + 2
            with open(path, "rb") as raw:
                raw.seek(starts[bounds[k] // _SCAN_STRIDE])
                text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
                return _read_rows(_records(path, csv.reader(text), bounds[k] + 2), limit,
                                  columns, where, width)

        return parallel.map_pieces(read_range, len(bounds) - 1, str(path))


def read_csv(path, columns: dict, *, optional=(), key=(), exact=True):
    """The one CSV reader: the named columns of a delimited file as arrays.

    ``columns`` maps each column to its kind (see ``COLUMN_KINDS``); a column in
    ``optional`` that the header lacks reads as empty strings. With ``exact``
    the header holds exactly these columns, otherwise other columns may be
    present and a missing one is a usage error. A column name repeated in the
    header is an ``IngestError`` either way. Rows are converted in blocks
    of ``BLOCK_ROWS``, one numpy conversion per column per block. In a block
    that fails, each value of a failing column is converted on its own, and
    every bad row is reported with its first failing column in ``columns``
    order: the ``IngestError`` names the first 10 lines as ``line N:
    <column>: <reason>``. A row with fewer or more fields than the header
    reads ``line N: missing fields`` or ``line N: extra fields``. Rows whose
    ``key`` columns repeat an earlier row are rejected the same way. A file
    that is not UTF-8 text is an ``IngestError`` too, and so is a record the
    csv module cannot read (a field past its limit of 128 KB, such as one a
    stray ``"`` opens), as ``line N: <reason>``. Blank lines hold no row.
    ``N`` is the line of the file that the row starts on, counting every
    line break: those of blank lines and those inside a quoted field too.

    The lines after the header are cut into ranges of at least
    ``RANGE_ROWS`` as ``parallel.cut`` cuts them, at line starts found by
    one scan of the file's bytes. The caller converts the first range while
    forked workers convert the others, and the results are joined in file
    order, one column at a time. The file is read as one range
    where a line may not be one row: where a ``"`` follows the first line
    break, or the file holds a lone ``\\r``.
    """
    pieces = _read_pieces(path, columns, optional, exact)
    row_errors = [error for _, errors, _ in pieces for error in errors]
    if row_errors:
        raise IngestError(f"{path}: {len(row_errors)} malformed rows", row_errors)
    # one column at a time, each column's blocks dropped once joined
    table = {name: np.concatenate([a for parts, _, _ in pieces for a in parts.pop(name)])
             for name in columns}
    if key:
        lines = np.concatenate([lines for _, _, lines in pieces])
        _reject_duplicates(path, key, [table[k] for k in key], lines)
    return table


def read_predictions(path, columns, key) -> dict:
    """The named ``columns`` of a file that ``predict`` wrote, as
    ``COLUMN_KINDS`` reads them. Other columns may be present; a missing
    one, or a file without rows, is a usage error, and a repeated ``key`` an
    ``IngestError``."""
    table = read_csv(path, _kinds(columns), key=key, exact=False)
    if len(table[key[0]]) == 0:
        raise UsageError(f"{path}: no prediction rows")
    return table


def load_station_csv(path, require_target: bool = True) -> Dataset:
    """Load station records. With ``require_target`` every row needs a gust
    target, so the header needs the target column; without it (inference
    mode) the column, or a row's value, may be absent. A repeated
    (station_id, timestamp_utc) pair is an error."""
    target = _observed_gust_column if require_target else _gust_column
    table = read_csv(
        path,
        {**_kinds(_STATION_COLUMNS), TARGET_COLUMN: target},
        optional=() if require_target else [TARGET_COLUMN],
        key=("station_id", "timestamp_utc"),
    )
    return _dataset(table, gust=table[TARGET_COLUMN], station_ids=table["station_id"])


def load_grid_csv(path) -> Dataset:
    """Load gridded feature rows (one row per cell per hour); a repeated
    (storm_id, timestamp_utc, row, col) cell is an error."""
    table = read_csv(path, _kinds(_GRID_COLUMNS), key=_GRID_COLUMNS[:4])
    return _dataset(table, grid_rows=table["row"], grid_cols=table["col"])


def read_header(path) -> list[str]:
    """The column names of a CSV file; [] for an empty file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return next(_records(path, csv.reader(fh), 1), (1, []))[1]


def load_features_csv(path) -> Dataset:
    """Station or grid rows, told apart by the header; station rows need no
    gust target."""
    header = read_header(path)
    if "station_id" in header:
        return load_station_csv(path, require_target=False)
    if "row" in header and "col" in header:
        return load_grid_csv(path)
    raise IngestError(f"{path}: header matches neither the station nor the grid schema")


def _dataset(table: dict, **extra) -> Dataset:
    """The dataset of a table read by ``read_csv``; the raw feature columns
    leave ``table`` one at a time as they are copied into the features."""
    storm_ids, timestamps = table["storm_id"], table["timestamp_utc"]
    _check_storm_windows(storm_ids, timestamps)
    return Dataset(
        storm_ids=storm_ids,
        timestamps=timestamps,
        lats=table["lat"],
        lons=table["lon"],
        features=_derive_features((table.pop(c) for c in RAW_FEATURE_COLUMNS), timestamps),
        **extra,
    )


@dataclass
class SplitSpec:
    """Chronological storm assignment: each storm wholly in one split."""

    ordered_storms: list[str]
    train_storms: list[str]
    val_storms: list[str]
    test_storms: list[str]

    def validate(self) -> None:
        union = [*self.train_storms, *self.val_storms, *self.test_storms]
        if len(set(union)) != len(union):
            raise ConfigError("splits overlap")
        if set(union) != set(self.ordered_storms):
            raise ConfigError("splits do not cover all storms")


def chronological_split(
    dataset: Dataset, train_n: int, val_n: int, test_n: int
) -> tuple[SplitSpec, Dataset, Dataset, Dataset]:
    """Order storms by start time and carve off train/validation/test blocks."""
    starts = dataset.storm_start_times()
    if train_n + val_n + test_n != len(starts):
        raise UsageError(
            f"split counts {train_n}+{val_n}+{test_n} do not sum to "
            f"{len(starts)} storms"
        )
    ordered = sorted(starts, key=lambda sid: (starts[sid], sid))
    spec = SplitSpec(
        ordered_storms=ordered,
        train_storms=ordered[:train_n],
        val_storms=ordered[train_n : train_n + val_n],
        test_storms=ordered[train_n + val_n :],
    )
    spec.validate()

    def take(storms: list[str]) -> Dataset:
        mask = np.isin(dataset.storm_ids, storms)
        return dataset.subset(mask)

    return spec, take(spec.train_storms), take(spec.val_storms), take(spec.test_storms)


@dataclass
class Standardizer:
    """Per-column z-score transform fitted on training data only.

    Constant columns are passed through unchanged (offset 0, scale 1) with a
    warning.
    """

    offset: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] == 0:
            raise UsageError("cannot fit a standardizer on an empty matrix")
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
        constant = sd == 0.0
        if np.any(constant):
            warnings.warn(
                "constant columns passed through unscaled: "
                f"{np.flatnonzero(constant).tolist()}",
                DegenerateInputWarning,
            )
        return cls(offset=np.where(constant, 0.0, mean), scale=np.where(constant, 1.0, sd))

    def apply(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.offset.shape[0]:
            raise UsageError(
                f"feature width {x.shape[1]} does not match fitted width "
                f"{self.offset.shape[0]}"
            )
        out = np.subtract(x, self.offset)
        out /= self.scale  # in place: one [B x D] temporary, not two
        return out

    def inverse_column(self, column: int, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale[column] + self.offset[column]
