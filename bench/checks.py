"""Output checks for one pass, and the byte comparison of two passes.

Each check returns a list of problems; an empty list means the command's
outputs are correct. Expected counts come from the fixture geometry, never
from the outputs themselves.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

N_FEATURES = 11
LEVELS = ("70", "90", "95", "99")  # the CLI's default --levels
SD_IDENTITY_RTOL = 1e-9


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _column(header, rows, name) -> np.ndarray:
    i = header.index(name)
    return np.array([r[i] for r in rows], dtype=float)


def _rows(path: Path, expected: int, problems: list[str]) -> tuple[list[str], list[list[str]]]:
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return [], []
    header, rows = _read_csv(path)
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected}")
    return header, rows


def _json(path: Path, problems: list[str]):
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return None
    with open(path) as fh:
        return json.load(fh)


def check_predictions(path: Path, expected_rows: int) -> list[str]:
    """Row count plus the per-row invariants of the uncertainty columns."""
    problems: list[str] = []
    header, rows = _rows(path, expected_rows, problems)
    if not rows:
        return problems or [f"{path.name}: no rows"]
    mean = _column(header, rows, "mean")
    sds = {k: _column(header, rows, f"{k}_sd") for k in ("aleatoric", "epistemic", "total")}
    for kind, sd in sds.items():
        if not np.all(sd >= 0.0):
            problems.append(f"{path.name}: negative or NaN {kind}_sd")
    total2 = sds["total"] ** 2
    parts2 = sds["aleatoric"] ** 2 + sds["epistemic"] ** 2
    if not np.all(np.abs(total2 - parts2) <= SD_IDENTITY_RTOL * total2):
        problems.append(f"{path.name}: total_sd^2 != aleatoric_sd^2 + epistemic_sd^2")
    for level in LEVELS:
        lower = _column(header, rows, f"lower_{level}")
        upper = _column(header, rows, f"upper_{level}")
        if not np.all((lower <= mean) & (mean <= upper)):
            problems.append(f"{path.name}: lower_{level} <= mean <= upper_{level} violated")
    return problems


def check_train(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    for name in ("model.json", "split.json", "validation_discard.csv",
                 "validation_spread_skill.csv", "validation_pit_hist.csv"):
        if not (out / name).is_file():
            problems.append(f"{name}: missing")
    if (out / "epoch_log.csv").is_file():
        _, epochs = _read_csv(out / "epoch_log.csv")
        if not 1 <= len(epochs) <= expect["max_epochs"]:
            problems.append(f"epoch_log.csv: {len(epochs)} epochs")
    else:
        problems.append("epoch_log.csv: missing")
    report = _json(out / "validation_report.json", problems)
    if report is not None and report["n_samples"] != expect["val_rows"]:
        problems.append(f"validation_report.json: n_samples {report['n_samples']}")
    return problems


def check_evaluate(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    report = _json(out / "report.json", problems)
    if report is not None:
        if report["n_samples"] != expect["station_rows"]:
            problems.append(f"report.json: n_samples {report['n_samples']}")
        if not all(v is not None and 0.0 <= v <= 1.0 for v in report["picp"].values()):
            problems.append("report.json: PICP outside [0, 1]")
    _rows(out / "picp_stations.csv", expect["n_stations"] * len(LEVELS), problems)
    return problems


def check_station_predict(out: Path, expect: dict) -> list[str]:
    return check_predictions(out / "predictions.csv", expect["station_rows"])


def check_grid_predict(out: Path, expect: dict) -> list[str]:
    problems = check_predictions(out / "grid_predictions.csv", expect["grid_rows"])
    _rows(out / "gradient_mean.csv", expect["grid_rows"], problems)
    _rows(out / "normalized_fields.csv", expect["grid_storms"] * expect["grid_cells"], problems)
    return problems


def check_spatial(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    hours = expect["grid_storms"] * expect["grid_hours"]
    _rows(out / "max_tracks.csv", hours, problems)
    _rows(out / "normalized_series.csv", hours, problems)
    alignment = _json(out / "alignment.json", problems)
    if alignment is not None:
        if len(alignment) != expect["grid_storms"]:
            problems.append(f"alignment.json: {len(alignment)} storms")
        for storm, by_k in alignment.items():
            if sorted(by_k) != ["0", "1", "2", "3"] or not all(0 <= v <= 1 for v in by_k.values()):
                problems.append(f"alignment.json: bad entry for {storm}")
    return problems


def check_explain(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    header, rows = _rows(out / "pfi.csv", N_FEATURES, problems)
    if rows:
        for name in ("delta_rmse_mean", "delta_r2_mean"):
            if not np.all(np.isfinite(_column(header, rows, name))):
                problems.append(f"pfi.csv: non-finite {name}")
    if (out / "pdp.csv").is_file():
        _, pdp = _read_csv(out / "pdp.csv")
        per_feature: dict[str, int] = {}
        for r in pdp:
            per_feature[r[0]] = per_feature.get(r[0], 0) + 1
        if len(per_feature) != N_FEATURES or not all(
            n == expect["pdp_grid"] for n in per_feature.values()
        ):
            problems.append(f"pdp.csv: grid sizes {sorted(per_feature.values())}")
    else:
        problems.append("pdp.csv: missing")
    return problems


def check_tune(out: Path, expect: dict) -> list[str]:
    problems: list[str] = []
    pareto = _json(out / "pareto.json", problems)
    if pareto is not None:
        if pareto["n_trials"] != expect["trials"]:
            problems.append(f"pareto.json: n_trials {pareto['n_trials']}")
        if not pareto["pareto"]:
            problems.append("pareto.json: empty Pareto set")
        if not math.isfinite(pareto["recommended"]["val_mae"]):
            problems.append("pareto.json: recommended trial has no finite val_mae")
    _rows(out / "trials_log.csv", expect["trials"], problems)
    return problems


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = files_a ^ files_b
    for rel in files_a & files_b:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            differ.add(rel)
    return sorted(str(p) for p in differ)


def count_files(root: Path) -> int:
    return sum(1 for p in root.rglob("*") if p.is_file())
