"""Tabular ingestion, feature transforms, standardization, and storm-aware splits.

Input files are comma-delimited with a declared header. Station rows carry an
observed gust target; grid rows carry cell indices instead of a station id.
The eleven model features are derived from nine raw columns plus the
timestamp: wind direction becomes (sin, cos) components and the timestamp
becomes a cosine-transformed day of year, cos(2*pi*(t-1)/365).
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputWarning, IngestError, UsageError
from .fileio import fmt_column, write_csv

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

STATION_COLUMNS = ["storm_id", "timestamp_utc", "station_id", "lat", "lon",
                   *RAW_FEATURE_COLUMNS]
TARGET_COLUMN = "gust_obs"
GRID_COLUMNS = ["storm_id", "timestamp_utc", "row", "col", "lat", "lon",
                *RAW_FEATURE_COLUMNS]

STORM_WINDOW_HOURS = 48

# Rows the reader converts per numpy call per column: large enough that the
# per-block cost vanishes, small enough that a block's strings stay a few MB.
BLOCK_ROWS = 4096


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
        pick = lambda a: None if a is None else a[index]
        return Dataset(
            storm_ids=self.storm_ids[index],
            timestamps=self.timestamps[index],
            lats=self.lats[index],
            lons=self.lons[index],
            features=self.features[index],
            gust=pick(self.gust),
            station_ids=pick(self.station_ids),
            grid_rows=pick(self.grid_rows),
            grid_cols=pick(self.grid_cols),
        )

    def storm_start_times(self) -> dict[str, np.datetime64]:
        starts: dict[str, np.datetime64] = {}
        for sid, ts in zip(self.storm_ids, self.timestamps):
            key = str(sid)
            if key not in starts or ts < starts[key]:
                starts[key] = ts
        return starts


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 UTC timestamp; 'Z' suffix and ' ' separator accepted."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1]
    s = s.replace(" ", "T", 1)
    try:
        return np.datetime64(s, "s")
    except ValueError as exc:
        raise ValueError(f"invalid timestamp {text!r}") from exc


def format_timestamp(ts: np.datetime64) -> str:
    return str(np.datetime64(ts, "s")) + "Z"


def format_timestamps(timestamps: np.ndarray) -> list[str]:
    """``format_timestamp`` over a whole column."""
    text = np.datetime_as_string(np.asarray(timestamps, dtype="datetime64[s]"), unit="s")
    return np.char.add(text, "Z").tolist()


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


def _derive_features(raw: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
    """Assemble the model feature matrix from raw columns + timestamps."""
    sin_d, cos_d = wind_direction_components(raw[:, 5])
    out = np.column_stack(
        [
            raw[:, 0],  # WS_10m
            raw[:, 1],  # WS_850mb
            raw[:, 2],  # WS_950mb
            raw[:, 3],  # PBLH
            raw[:, 4],  # Ustar
            sin_d,
            cos_d,
            raw[:, 6],  # terrain height
            raw[:, 7],  # lapse rate sfc-1km
            raw[:, 8],  # lapse rate sfc-2km
            day_of_year_cos(timestamps),
        ]
    )
    return out


def _check_header(path, header: list[str], required: list[str], optional, exact: bool) -> None:
    missing = [c for c in required if c not in header]
    if missing and not exact:
        raise UsageError(f"{path}: missing columns {', '.join(missing)}")
    if missing:
        raise IngestError(f"missing required columns: {', '.join(missing)}")
    unknown = [c for c in header if c not in required and c not in optional]
    if exact and unknown:
        raise IngestError(f"unknown columns: {', '.join(unknown)}")
    if exact and len(set(header)) != len(header):
        raise IngestError("duplicate column names in header")


def _check_storm_windows(storm_ids: np.ndarray, timestamps: np.ndarray) -> None:
    limit = np.timedelta64(STORM_WINDOW_HOURS * 3600, "s")
    for sid in np.unique(storm_ids):
        ts = timestamps[storm_ids == sid]
        if ts.max() - ts.min() > limit:
            raise IngestError(
                f"storm {sid} spans more than {STORM_WINDOW_HOURS} hours"
            )


# Column kinds of the reader: each turns one block of a column's strings into
# an array and raises ValueError (TypeError or AttributeError for the None
# that pads a short row) if any value of the block is bad.


def id_column(texts) -> np.ndarray:
    ids = [t.strip() for t in texts]
    if not all(ids):
        raise ValueError("empty id")
    return np.asarray(ids, dtype=str)


def time_column(texts) -> np.ndarray:
    """Timestamps, each distinct string parsed once."""
    seconds = {t: parse_timestamp(t).astype(np.int64) for t in set(texts)}
    return np.fromiter(map(seconds.__getitem__, texts), np.int64, len(texts)).view(
        "datetime64[s]"
    )


def float_column(texts) -> np.ndarray:
    return np.fromiter(map(float, texts), float, len(texts))


def index_column(texts) -> np.ndarray:
    out = np.fromiter(map(int, texts), np.int64, len(texts))
    if np.any(out < 0):
        raise ValueError("negative grid index")
    return out


def _finite_column(texts) -> np.ndarray:
    out = float_column(texts)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite feature value")
    return out


def _degrees_column(texts) -> np.ndarray:
    out = _finite_column(texts)
    if not np.all((out >= 0.0) & (out <= 360.0)):
        raise ValueError("wind_dir_deg outside [0, 360]")
    return out


_FEATURE_KINDS = {c: _finite_column for c in RAW_FEATURE_COLUMNS}
_FEATURE_KINDS["wind_dir_deg"] = _degrees_column


def _row_error(parse_row, header: list[str], row: list) -> str | None:
    try:
        parse_row(dict(zip(header, row)))
    except (TypeError, AttributeError):  # a None field of a short row
        return "missing fields"
    except (ValueError, KeyError) as exc:
        return str(exc)
    return None


def _convert_each(columns: dict):
    """Row-wise error reporter for a plain column spec."""

    def parse_row(row):
        for name, convert in columns.items():
            try:
                convert([row[name]])
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    return parse_row


def _reject_duplicates(path, names, keys: list[np.ndarray]) -> None:
    """Raise naming each row whose key columns repeat an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal keys stay in file order
    same = np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in keys])
    if not np.any(same):
        return
    n = len(order)
    first = np.maximum.accumulate(np.where(np.r_[True, ~same], np.arange(n), 0))
    later = np.flatnonzero(np.r_[False, same])
    pairs = sorted(zip(order[later].tolist(), order[first[later]].tolist()))
    raise IngestError(
        f"{path}: {len(pairs)} duplicate ({', '.join(names)}) rows",
        [(i + 2, f"same key as line {j + 2}") for i, j in pairs],
    )


def read_csv(path, columns: dict, parse_row=None, *, optional=(), key=(), exact=True):
    """The one CSV reader: the named columns of a delimited file as arrays.

    ``columns`` maps each column to its kind (see ``id_column``); a column in
    ``optional`` that the header lacks reads as empty strings. With ``exact``
    the header holds exactly these columns, otherwise other columns may be
    present and a missing one is a usage error. Rows are converted in blocks
    of ``BLOCK_ROWS``, one numpy conversion per column per block. Only a block
    that fails is passed row by row through ``parse_row`` (by default each
    kind on its own value), which names the first 10 malformed lines. Rows
    whose ``key`` columns repeat an earlier row are rejected the same way.
    Blank lines are skipped and not counted.
    """
    if parse_row is None:
        parse_row = _convert_each(columns)
    required = [c for c in columns if c not in optional]
    parts = {name: [convert([])] for name, convert in columns.items()}
    row_errors: list[tuple[int, str]] = []
    line = 2
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file without header")
        _check_header(path, header, required, optional, exact)
        where = {name: i for i, name in enumerate(header)}
        width = len(header)
        while chunk := list(itertools.islice(reader, BLOCK_ROWS)):
            block = [r if len(r) >= width else r + [None] * (width - len(r)) for r in chunk if r]
            if not block:
                continue
            texts = list(zip(*block))
            absent = ("",) * len(block)
            try:
                for name, convert in columns.items():
                    parts[name].append(convert(texts[where[name]] if name in where else absent))
            except (ValueError, TypeError, AttributeError):
                errors = [
                    (line + k, msg)
                    for k, row in enumerate(block)
                    if (msg := _row_error(parse_row, header, row)) is not None
                ]
                if not errors:
                    raise
                row_errors += errors
            line += len(block)
    if row_errors:
        raise IngestError(f"{path}: {len(row_errors)} malformed rows", row_errors)
    table = {name: np.concatenate(arrays) for name, arrays in parts.items()}
    if key:
        _reject_duplicates(path, key, [table[k] for k in key])
    return table


def _parse_features(row) -> None:
    """Row-wise checks of the coordinates and raw feature columns."""
    float(row["lat"])
    float(row["lon"])
    raw = [float(row[c]) for c in RAW_FEATURE_COLUMNS]
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite feature value")
    if not 0.0 <= raw[5] <= 360.0:
        raise ValueError(f"wind_dir_deg {raw[5]} outside [0, 360]")


def load_station_csv(path, require_target: bool = True) -> Dataset:
    """Load station records; rows without a gust target are rejected unless
    ``require_target`` is off (inference mode). A repeated (station_id,
    timestamp_utc) pair is an error."""

    def parse_row(row):
        if not row["storm_id"].strip():
            raise ValueError("empty storm_id")
        parse_timestamp(row["timestamp_utc"])
        if not row["station_id"].strip():
            raise ValueError("empty station_id")
        _parse_features(row)
        gust_text = (row.get(TARGET_COLUMN) or "").strip()
        if gust_text:
            gust = float(gust_text)
            if not np.isfinite(gust) or gust < 0:
                raise ValueError(f"gust_obs must be finite and >= 0, got {gust}")
        elif require_target:
            raise ValueError("missing gust_obs")

    def gust_column(texts):
        texts = [(t or "").strip() for t in texts]
        present = np.fromiter(map(bool, texts), bool, len(texts))
        gust = np.fromiter((float(t) if t else np.nan for t in texts), float, len(texts))
        if require_target and not np.all(present):
            raise ValueError("missing gust_obs")
        if not np.all(np.isfinite(gust[present]) & (gust[present] >= 0)):
            raise ValueError("gust_obs must be finite and >= 0")
        return gust

    table = read_csv(
        path,
        {"storm_id": id_column, "timestamp_utc": time_column, "station_id": id_column,
         "lat": float_column, "lon": float_column, **_FEATURE_KINDS, TARGET_COLUMN: gust_column},
        parse_row,
        optional=[TARGET_COLUMN],
        key=("station_id", "timestamp_utc"),
    )
    return _dataset(table, gust=table[TARGET_COLUMN], station_ids=table["station_id"])


def load_grid_csv(path) -> Dataset:
    """Load gridded feature rows (one row per cell per hour); a repeated
    (storm_id, timestamp_utc, row, col) cell is an error."""

    def parse_row(row):
        if not row["storm_id"].strip():
            raise ValueError("empty storm_id")
        parse_timestamp(row["timestamp_utc"])
        if min(int(row["row"]), int(row["col"])) < 0:
            raise ValueError("negative grid index")
        _parse_features(row)

    table = read_csv(
        path,
        {"storm_id": id_column, "timestamp_utc": time_column, "row": index_column,
         "col": index_column, "lat": float_column, "lon": float_column, **_FEATURE_KINDS},
        parse_row,
        key=("storm_id", "timestamp_utc", "row", "col"),
    )
    return _dataset(table, grid_rows=table["row"], grid_cols=table["col"])


def load_features_csv(path) -> Dataset:
    """Station or grid rows, told apart by the header; station rows need no
    gust target."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
    if "station_id" in header:
        return load_station_csv(path, require_target=False)
    if "row" in header and "col" in header:
        return load_grid_csv(path)
    raise IngestError(f"{path}: header matches neither the station nor the grid schema")


def _dataset(table: dict, **extra) -> Dataset:
    storm_ids, timestamps = table["storm_id"], table["timestamp_utc"]
    _check_storm_windows(storm_ids, timestamps)
    raw = np.column_stack([table[c] for c in RAW_FEATURE_COLUMNS])
    return Dataset(
        storm_ids=storm_ids,
        timestamps=timestamps,
        lats=table["lat"],
        lons=table["lon"],
        features=_derive_features(raw, timestamps),
        **extra,
    )


def write_station_csv(dataset: Dataset, path, raw_features: np.ndarray | None = None) -> None:
    """Write a station CSV in the ingest schema.

    ``raw_features`` must be the [n x 9] raw column matrix (the derived
    feature matrix is not invertible back to wind direction degrees).
    """
    if dataset.station_ids is None:
        raise UsageError("write_station_csv needs a station dataset")
    if raw_features is None:
        raise UsageError("write_station_csv needs the raw feature columns")
    gust = np.full(len(dataset), np.nan) if dataset.gust is None else dataset.gust
    columns = [
        dataset.storm_ids.tolist(),
        format_timestamps(dataset.timestamps),
        dataset.station_ids.tolist(),
        fmt_column(dataset.lats),
        fmt_column(dataset.lons),
        *(fmt_column(raw_features[:, j]) for j in range(raw_features.shape[1])),
        [repr(g) if np.isfinite(g) else "" for g in gust.tolist()],
    ]
    write_csv(path, [*STATION_COLUMNS, TARGET_COLUMN], list(zip(*columns)))


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


def cross_validation_folds(
    ordered_storms: list[str], n_folds: int = 5
) -> list[tuple[list[str], list[str]]]:
    """Rotate contiguous storm blocks as validation sets (e.g. 5 x 40/10)."""
    if n_folds < 2 or n_folds > len(ordered_storms):
        raise UsageError(f"n_folds must be in [2, {len(ordered_storms)}]")
    blocks = np.array_split(np.asarray(ordered_storms, dtype=object), n_folds)
    folds = []
    for block in blocks:
        val = [str(s) for s in block]
        train = [s for s in ordered_storms if s not in set(val)]
        folds.append((train, val))
    return folds


@dataclass
class Standardizer:
    """Per-column z-score transform fitted on training data only.

    Constant columns are passed through unchanged (offset 0, scale 1) with a
    warning.
    """

    offset: np.ndarray | None = None
    scale: np.ndarray | None = None
    passthrough: np.ndarray | None = None

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
                f"constant feature columns passed through unscaled: "
                f"{np.flatnonzero(constant).tolist()}",
                DegenerateInputWarning,
            )
        return cls(
            offset=np.where(constant, 0.0, mean),
            scale=np.where(constant, 1.0, sd),
            passthrough=constant,
        )

    def _require_fitted(self) -> None:
        if self.offset is None or self.scale is None:
            raise UsageError("standardizer has not been fitted")

    def apply(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
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
        self._require_fitted()
        return np.asarray(values, dtype=float) * self.scale[column] + self.offset[column]


def derive_hourly_gusts(
    times: np.ndarray, gusts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a 5-minute gust series to hourly values.

    The gust for hour H is the maximum of the readings at H-10min, H-5min and
    H itself; hours with none of the three readings are omitted.
    """
    times = np.asarray(times, dtype="datetime64[s]")
    gusts = np.asarray(gusts, dtype=float)
    if times.shape != gusts.shape:
        raise UsageError("times and gusts must have equal length")
    five_min = np.timedelta64(300, "s")
    hourly: dict[np.datetime64, float] = {}
    for t, g in zip(times, gusts):
        seconds = t.astype("datetime64[s]").astype(int)
        offset = seconds % 3600
        if offset == 0:
            hour = t
        elif offset == 3300:  # :55
            hour = t + five_min
        elif offset == 3000:  # :50
            hour = t + 2 * five_min
        else:
            continue
        if hour not in hourly or g > hourly[hour]:
            hourly[hour] = g
    hours = np.asarray(sorted(hourly), dtype="datetime64[s]")
    return hours, np.asarray([hourly[h] for h in hours], dtype=float)


def filter_bounding_box(
    dataset: Dataset,
    lat_min: float,
    lat_max: float,
    lon_min: float,
    lon_max: float,
) -> Dataset:
    """Keep rows whose coordinates fall inside the closed bounding box."""
    mask = (
        (dataset.lats >= lat_min)
        & (dataset.lats <= lat_max)
        & (dataset.lons >= lon_min)
        & (dataset.lons <= lon_max)
    )
    return dataset.subset(mask)
