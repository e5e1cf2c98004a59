"""Tabular ingestion, feature transforms, standardization, and storm-aware splits.

Input files are comma-delimited with a declared header. Station rows carry an
observed gust target; grid rows carry cell indices instead of a station id.
The eleven model features are derived from nine raw columns plus the
timestamp: wind direction becomes (sin, cos) components and the timestamp
becomes a cosine-transformed day of year, cos(2*pi*(t-1)/365).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputWarning, IngestError, UsageError

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

MAX_REPORTED_ROW_ERRORS = 10


@dataclass
class StormRecord:
    """One ingested row: identity, coordinates, derived features, target."""

    storm_id: str
    timestamp: np.datetime64
    station_id: str | None
    lat: float
    lon: float
    features: np.ndarray  # len(FEATURE_NAMES)
    gust: float | None


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

    def record(self, i: int) -> StormRecord:
        return StormRecord(
            storm_id=str(self.storm_ids[i]),
            timestamp=self.timestamps[i],
            station_id=None if self.station_ids is None else str(self.station_ids[i]),
            lat=float(self.lats[i]),
            lon=float(self.lons[i]),
            features=self.features[i],
            gust=None
            if self.gust is None or not np.isfinite(self.gust[i])
            else float(self.gust[i]),
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


def _check_header(header: list[str], required: list[str], optional: list[str]) -> None:
    seen = set(header)
    missing = [c for c in required if c not in seen]
    if missing:
        raise IngestError(f"missing required columns: {', '.join(missing)}")
    unknown = [c for c in header if c not in required and c not in optional]
    if unknown:
        raise IngestError(f"unknown columns: {', '.join(unknown)}")
    if len(seen) != len(header):
        raise IngestError("duplicate column names in header")


def _check_storm_windows(storm_ids: np.ndarray, timestamps: np.ndarray) -> None:
    limit = np.timedelta64(STORM_WINDOW_HOURS * 3600, "s")
    for sid in np.unique(storm_ids):
        ts = timestamps[storm_ids == sid]
        if ts.max() - ts.min() > limit:
            raise IngestError(
                f"storm {sid} spans more than {STORM_WINDOW_HOURS} hours"
            )


def _load_csv(path, columns: list[str], optional: list[str], parse_row):
    """Shared CSV loop: header check, row parsing, first-10 error reporting."""
    row_errors: list[tuple[int, str]] = []
    parsed = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file without header")
        _check_header(list(reader.fieldnames), columns, optional)
        for line_no, row in enumerate(reader, start=2):
            try:
                parsed.append(parse_row(row))
            except (ValueError, KeyError, TypeError) as exc:
                # TypeError covers short rows, where DictReader fills None
                message = "missing fields" if isinstance(exc, TypeError) else str(exc)
                if len(row_errors) < MAX_REPORTED_ROW_ERRORS:
                    row_errors.append((line_no, message))
                else:
                    row_errors.append((line_no, ""))
    if row_errors:
        raise IngestError(
            f"{path}: {len(row_errors)} malformed rows", row_errors
        )
    return parsed


def load_station_csv(path, require_target: bool = True) -> Dataset:
    """Load station records; rows without a gust target are rejected unless
    ``require_target`` is off (inference mode)."""

    def parse_row(row):
        storm_id = row["storm_id"].strip()
        if not storm_id:
            raise ValueError("empty storm_id")
        ts = parse_timestamp(row["timestamp_utc"])
        station = row["station_id"].strip()
        if not station:
            raise ValueError("empty station_id")
        lat = float(row["lat"])
        lon = float(row["lon"])
        raw = [float(row[c]) for c in RAW_FEATURE_COLUMNS]
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite feature value")
        if not 0.0 <= raw[5] <= 360.0:
            raise ValueError(f"wind_dir_deg {raw[5]} outside [0, 360]")
        gust_text = (row.get(TARGET_COLUMN) or "").strip()
        if gust_text:
            gust = float(gust_text)
            if not np.isfinite(gust) or gust < 0:
                raise ValueError(f"gust_obs must be finite and >= 0, got {gust}")
        elif require_target:
            raise ValueError("missing gust_obs")
        else:
            gust = np.nan
        return storm_id, ts, station, lat, lon, raw, gust

    rows = _load_csv(path, STATION_COLUMNS, [TARGET_COLUMN], parse_row)
    if not rows:
        return Dataset(
            storm_ids=np.empty(0, dtype="U1"),
            timestamps=np.empty(0, dtype="datetime64[s]"),
            lats=np.empty(0),
            lons=np.empty(0),
            features=np.empty((0, len(FEATURE_NAMES))),
            gust=np.empty(0),
            station_ids=np.empty(0, dtype="U1"),
        )
    storm_ids = np.asarray([r[0] for r in rows])
    timestamps = np.asarray([r[1] for r in rows], dtype="datetime64[s]")
    raw = np.asarray([r[5] for r in rows], dtype=float)
    _check_storm_windows(storm_ids, timestamps)
    return Dataset(
        storm_ids=storm_ids,
        timestamps=timestamps,
        lats=np.asarray([r[3] for r in rows], dtype=float),
        lons=np.asarray([r[4] for r in rows], dtype=float),
        features=_derive_features(raw, timestamps),
        gust=np.asarray([r[6] for r in rows], dtype=float),
        station_ids=np.asarray([r[2] for r in rows]),
    )


def load_grid_csv(path) -> Dataset:
    """Load gridded feature rows (one row per cell per hour)."""

    def parse_row(row):
        storm_id = row["storm_id"].strip()
        if not storm_id:
            raise ValueError("empty storm_id")
        ts = parse_timestamp(row["timestamp_utc"])
        r = int(row["row"])
        c = int(row["col"])
        if r < 0 or c < 0:
            raise ValueError("negative grid index")
        lat = float(row["lat"])
        lon = float(row["lon"])
        raw = [float(row[c2]) for c2 in RAW_FEATURE_COLUMNS]
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite feature value")
        if not 0.0 <= raw[5] <= 360.0:
            raise ValueError(f"wind_dir_deg {raw[5]} outside [0, 360]")
        return storm_id, ts, r, c, lat, lon, raw

    rows = _load_csv(path, GRID_COLUMNS, [], parse_row)
    if not rows:
        return Dataset(
            storm_ids=np.empty(0, dtype="U1"),
            timestamps=np.empty(0, dtype="datetime64[s]"),
            lats=np.empty(0),
            lons=np.empty(0),
            features=np.empty((0, len(FEATURE_NAMES))),
            grid_rows=np.empty(0, dtype=int),
            grid_cols=np.empty(0, dtype=int),
        )
    storm_ids = np.asarray([r[0] for r in rows])
    timestamps = np.asarray([r[1] for r in rows], dtype="datetime64[s]")
    raw = np.asarray([r[6] for r in rows], dtype=float)
    _check_storm_windows(storm_ids, timestamps)
    return Dataset(
        storm_ids=storm_ids,
        timestamps=timestamps,
        lats=np.asarray([r[4] for r in rows], dtype=float),
        lons=np.asarray([r[5] for r in rows], dtype=float),
        features=_derive_features(raw, timestamps),
        grid_rows=np.asarray([r[2] for r in rows], dtype=int),
        grid_cols=np.asarray([r[3] for r in rows], dtype=int),
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
    header = [*STATION_COLUMNS, TARGET_COLUMN]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            gust = dataset.gust[i] if dataset.gust is not None else np.nan
            writer.writerow(
                [
                    dataset.storm_ids[i],
                    format_timestamp(dataset.timestamps[i]),
                    dataset.station_ids[i],
                    repr(float(dataset.lats[i])),
                    repr(float(dataset.lons[i])),
                    *[repr(float(v)) for v in raw_features[i]],
                    "" if not np.isfinite(gust) else repr(float(gust)),
                ]
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
