"""Multi-objective random search over the training hyperparameter space.

Each trial draws an independent configuration, trains a model, and records
three validation objectives: MAE (minimize), the spread-skill R^2 between
binned RMSE and total uncertainty (maximize), and the PITD skill score
(maximize). The result is the non-dominated set under those objectives plus
one scalarized recommendation. Trials derive their RNG streams from the
master seed and their index, so a search is reproducible and resumable from
its log, which is rewritten whole after each trial. Trials run in forked
worker processes, each on a CPU of its own.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import data, parallel
from .errors import GustUQError, SearchFailure, UsageError, WorkerDied
from .evidential import decompose, train_with_settings
from .fileio import write_csv
from .metrics import pit_values, pitd, spread_skill
from .nncore import SETTING_RULES, TrainConfig


@dataclass
class HyperSpace:
    """Sampling bounds; log-scaled dimensions are drawn log-uniformly."""

    learning_rate: tuple[float, float] = (1e-6, 0.01)  # log-uniform
    dropout: tuple[float, float] = (0.0, 0.5)  # uniform
    hidden_layers: tuple[int, int] = (1, 5)  # integer uniform
    hidden_neurons: tuple[int, int] = (1, 1000)  # integer uniform
    batch_size: tuple[int, int] = (10, 20000)  # log-uniform integer
    evidential_coef: tuple[float, float] = (1e-5, 100.0)  # log-uniform
    l1: tuple[float, float] = (1e-12, 0.01)  # log-uniform
    l2: tuple[float, float] = (1e-12, 0.01)  # log-uniform

    def validate(self) -> None:
        for f in dc_fields(self):
            lo, hi = getattr(self, f.name)
            if not lo <= hi:
                raise UsageError(f"{f.name}: lower bound {lo} exceeds upper bound {hi}")
        for name in ("hidden_layers", "hidden_neurons", "batch_size"):
            for bound in getattr(self, name):
                if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)) or bound < 1:
                    raise UsageError(f"{name}: bounds must be integers >= 1, got {bound!r}")
        for name in ("learning_rate", "batch_size", "evidential_coef", "l1", "l2"):
            if getattr(self, name)[0] <= 0:
                raise UsageError(f"{name} is log-scaled and needs positive bounds")
        for name, (ok, wording) in SETTING_RULES.items():  # values that training accepts
            for bound in getattr(self, name):
                if not ok(bound):
                    raise UsageError(f"{name}: bounds must be {wording}, got {bound!r}")


@dataclass
class TrialConfig:
    learning_rate: float
    dropout: float
    hidden_layers: int
    hidden_neurons: int
    batch_size: int
    evidential_coef: float
    l1: float
    l2: float


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if lo == hi:
        return float(lo)
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample(space: HyperSpace, rng: np.random.Generator) -> TrialConfig:
    """Draw one configuration, each dimension independently."""
    space.validate()
    batch = int(round(_log_uniform(rng, *space.batch_size)))
    return TrialConfig(
        learning_rate=_log_uniform(rng, *space.learning_rate),
        dropout=float(rng.uniform(*space.dropout)),
        hidden_layers=int(rng.integers(space.hidden_layers[0], space.hidden_layers[1] + 1)),
        hidden_neurons=int(rng.integers(space.hidden_neurons[0], space.hidden_neurons[1] + 1)),
        batch_size=int(np.clip(batch, *space.batch_size)),
        evidential_coef=_log_uniform(rng, *space.evidential_coef),
        l1=_log_uniform(rng, *space.l1),
        l2=_log_uniform(rng, *space.l2),
    )


@dataclass
class TrialResult:
    trial_id: int
    config: TrialConfig
    val_mae: float = float("nan")
    val_r2_rmse_sigma_total: float = float("nan")
    val_pitd_skill: float = float("nan")
    n_epochs: int = 0
    status: str = "ok"
    message: str = field(default="", metadata={"logged": False})  # a log keeps no reasons

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _gains(t: TrialResult) -> tuple[float, float, float]:
    """The three objectives of a trial, each signed so that more is better."""
    return -t.val_mae, t.val_r2_rmse_sigma_total, t.val_pitd_skill


def dominates(a: TrialResult, b: TrialResult) -> bool:
    """True when ``a`` is at least as good on all three objectives and
    strictly better on at least one (MAE down, R^2 up, PITD skill up)."""
    pairs = list(zip(_gains(a), _gains(b)))
    return all(x >= y for x, y in pairs) and any(x > y for x, y in pairs)


def pareto_front(trials: list[TrialResult]) -> list[TrialResult]:
    """Non-dominated subset of the successful trials (archive sweep)."""
    front: list[TrialResult] = []
    for trial in trials:
        if not trial.ok:
            continue
        if any(dominates(other, trial) for other in front):
            continue
        front = [other for other in front if not dominates(trial, other)]
        front.append(trial)
    return sorted(front, key=lambda t: t.trial_id)


# Weight of R^2 + PITD skill against MAE in the single recommendation.
SCALARIZATION_WEIGHT = 0.5


def scalarized_best(
    trials: list[TrialResult], weight: float = SCALARIZATION_WEIGHT
) -> TrialResult:
    """Single recommendation: minimize MAE - weight*(R^2 + PITD skill)."""
    ok = [t for t in trials if t.ok]
    if not ok:
        raise SearchFailure("no successful trials to choose from")
    key = lambda t: t.val_mae - weight * (t.val_r2_rmse_sigma_total + t.val_pitd_skill)
    return min(ok, key=key)


@dataclass
class SearchResult:
    trials: list[TrialResult]
    pareto: list[TrialResult]
    best: TrialResult
    n_failed: int


def _objective_column(texts) -> np.ndarray:
    """A failed trial leaves its objectives blank; they read back as NaN."""
    return np.fromiter((np.nan if t == "" else float(t) for t in texts), float, len(texts))


_status_column = data.checked(data.id_column, lambda s: np.isin(s, ("ok", "failed")),
                              "must be ok or failed, got {!r}")


def _log_kinds() -> dict:
    """The trials log's column kinds: one per ``TrialResult`` field that is
    logged, by its type, with the ``TrialConfig`` fields in place of its config."""
    config = {name: {int: data.int_column, float: data.float_column}[kind]
              for name, kind in get_type_hints(TrialConfig).items()}
    result = {int: data.int_column, float: _objective_column, str: _status_column}
    kinds = {}
    for f, kind in zip(dc_fields(TrialResult), get_type_hints(TrialResult).values()):
        if kind is TrialConfig:
            kinds.update(config)
        elif f.metadata.get("logged", True):
            kinds[f.name] = result[kind]
    return kinds


# Every column is a deterministic function of the seed and the data, so two
# identical searches write identical logs.
_LOG_KINDS = _log_kinds()
TRIALS_LOG_COLUMNS = list(_LOG_KINDS)


def _write_log(path, trials: list[TrialResult]) -> None:
    """Write ``trials`` as a trials log, one row each; a failed trial's NaN
    objectives are blank cells."""
    rows = [{**vars(t.config), **vars(t)} for t in trials]
    columns = [np.asarray([row[name] for row in rows]) for name in TRIALS_LOG_COLUMNS]
    write_csv(path, TRIALS_LOG_COLUMNS, *(
        np.ma.masked_where(np.isnan(c), c) if c.dtype.kind == "f" else c for c in columns))


def load_trials_log(path) -> list[TrialResult]:
    """Read back a trials log (used for resuming a search).

    A malformed row, such as a cut last line, is an ``IngestError`` naming
    its line.
    """
    header = data.read_header(path)
    if header != TRIALS_LOG_COLUMNS:
        extra = [c for c in header if c not in TRIALS_LOG_COLUMNS]
        detail = f"; extra column(s) {', '.join(extra)}" if extra else ""
        raise UsageError(f"{path}: unexpected trials log header{detail}")
    table = data.read_csv(path, _LOG_KINDS, key=("trial_id",))
    config_names = [f.name for f in dc_fields(TrialConfig)]
    results = []
    for values in zip(*(table[c].tolist() for c in TRIALS_LOG_COLUMNS)):
        row = dict(zip(TRIALS_LOG_COLUMNS, values))
        config = TrialConfig(**{n: row.pop(n) for n in config_names})
        results.append(TrialResult(config=config, **row))
    return results


# An objective maps (config, rng) -> (val_mae, val_r2, val_pitd_skill, n_epochs).
Objective = Callable[[TrialConfig, np.random.Generator], tuple[float, float, float, int]]


def _trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial_id,)))


def _check_logged_config(space: HyperSpace, seed: int, result: TrialResult, log_path) -> None:
    """A logged trial must hold the configuration that ``(seed, trial_id)``
    draws from ``space``; otherwise the log is another search's."""
    drawn = sample(space, _trial_rng(seed, result.trial_id))
    for f in dc_fields(TrialConfig):
        logged, expected = getattr(result.config, f.name), getattr(drawn, f.name)
        if logged != expected:
            raise UsageError(
                f"{log_path}: trial {result.trial_id} has {f.name} {logged!r}, but seed "
                f"{seed} and this search space draw {expected!r}; the log is from "
                "another search"
            )


def _run_trial(space: HyperSpace, objective: Objective, seed: int, trial_id: int) -> TrialResult:
    """Sample and score trial ``trial_id``; a GustUQError or a non-finite
    objective makes it a failed trial."""
    rng = _trial_rng(seed, trial_id)
    config = sample(space, rng)
    try:
        mae, r2, skill, n_epochs = objective(config, rng)
    except GustUQError as exc:
        return TrialResult(trial_id=trial_id, config=config, status="failed", message=str(exc))
    result = TrialResult(
        trial_id=trial_id,
        config=config,
        val_mae=float(mae),
        val_r2_rmse_sigma_total=float(r2),
        val_pitd_skill=float(skill),
        n_epochs=int(n_epochs),
    )
    if not np.all(np.isfinite(_gains(result))):
        result.status = "failed"
        result.message = "non-finite objective"
    return result


def search(
    space: HyperSpace,
    n_trials: int,
    objective: Objective,
    seed: int = 0,
    log_path=None,
    scalarization_weight: float = SCALARIZATION_WEIGHT,
) -> SearchResult:
    """Run (or resume) a seeded random search and filter the Pareto set.

    Each trial's RNG stream is derived from ``(seed, trial_id)``, so results
    do not depend on execution order and a partially written log can be
    resumed without repeating completed trials. A logged trial whose
    configuration ``(seed, trial_id)`` and ``space`` do not draw is a
    ``UsageError``, raised before any trial runs.

    Each pending trial runs in a worker process forked for it
    (``parallel.ForkPool``), widest network first, each worker on an
    available CPU that no other worker holds. ``objective`` reaches the
    workers through the fork, so it need not be picklable, but its side
    effects stay in the worker; the warnings it issues are issued again in
    the caller as each result arrives. While the trials run, the caller
    holds every loaded OpenBLAS to one thread
    (``parallel.hold_blas_to_one_thread``); where none is found, one worker
    runs at a time. Without CPU affinity, as on macOS, the search is a
    ``UsageError`` before anything else is done. The log is
    rewritten in ``trial_id`` order as each result arrives. A worker that
    dies is a ``SearchFailure``; the trials that finished before it stay in
    the log. When a worker dies or the objective raises, the trials still
    running are stopped. Each trial that fails here issues one warning with
    its ``trial_id`` and reason; when every trial failed, the
    ``SearchFailure`` quotes the first reason (a log keeps no reasons).
    """
    if not hasattr(os, "sched_getaffinity"):
        raise UsageError("tune runs each trial on a CPU of its own, but this system has "
                         "no CPU affinity (os.sched_getaffinity)")
    if n_trials < 1:
        raise UsageError("need at least one trial")
    space.validate()

    done: dict[int, TrialResult] = {}
    if log_path is not None and Path(log_path).exists():
        done = {result.trial_id: result for result in load_trials_log(log_path)}
        for trial_id in sorted(done):
            _check_logged_config(space, seed, done[trial_id], log_path)

    pending = [trial_id for trial_id in range(n_trials) if trial_id not in done]
    if pending:
        # the most weights first, so the longest trials do not start last
        configs = {t: sample(space, _trial_rng(seed, t)) for t in pending}
        pending.sort(key=lambda t: (-configs[t].hidden_layers * configs[t].hidden_neurons**2, t))
        cpus = sorted(os.sched_getaffinity(0))
        held = parallel.hold_blas_to_one_thread()
        job = functools.partial(_run_trial, space, objective, seed)  # forked, need not pickle
        try:
            with parallel.ForkPool(job, cpus if held else cpus[:1], "tune") as pool:
                for trial_id in pending:
                    pool.submit(trial_id)
                for trial_id, ok, result, caught in pool.outcomes():
                    parallel.warn_again(caught)
                    if not ok:
                        raise result
                    done[trial_id] = result
                    if not result.ok:
                        warnings.warn(f"trial {trial_id} failed: {result.message}")
                    if log_path is not None:  # every known trial, the loaded ones included
                        _write_log(log_path, sorted(done.values(), key=lambda t: t.trial_id))
        except WorkerDied:
            kept = f"; {log_path} keeps the {len(done)} finished trial(s)" if log_path else ""
            raise SearchFailure(f"a trial's worker process died{kept}") from None
        finally:
            for set_threads, count in held:
                set_threads(count)

    results = [done[trial_id] for trial_id in range(n_trials)]
    n_failed = sum(1 for r in results if not r.ok)
    if n_failed == len(results):
        reason = next((f"; trial {r.trial_id}: {r.message}" for r in results if r.message), "")
        raise SearchFailure(f"all {len(results)} trials failed{reason}")
    front = pareto_front(results)
    best = scalarized_best(results, weight=scalarization_weight)
    return SearchResult(trials=results, pareto=front, best=best, n_failed=n_failed)


def make_evidential_objective(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    val_features: np.ndarray,
    val_targets: np.ndarray,
    max_epochs: int = TrainConfig.max_epochs,
    patience: int = TrainConfig.patience,
    standardizer: data.Standardizer | None = None,
    target_scale: data.Standardizer | None = None,
) -> Objective:
    """Objective that trains an evidential model and scores it on validation.
    Features and targets are raw; each trial's model applies ``standardizer``
    and ``target_scale`` itself, and is scored in target units."""
    y_val = np.asarray(val_targets, dtype=float)

    def objective(config: TrialConfig, rng: np.random.Generator):
        settings = {**vars(config), "max_epochs": max_epochs, "patience": patience,
                    "seed": int(rng.integers(2**31))}
        model, log = train_with_settings(
            settings, train_features, train_targets, val_features, val_targets,
            standardizer=standardizer, target_scale=target_scale,
        )
        dec = decompose(model.validation_params)
        mae = float(np.mean(np.abs(dec.mean - y_val)))
        r2 = spread_skill(dec.total_sd, dec.mean - y_val).r_squared
        skill = pitd(pit_values(dec.mean, dec.total_sd, y_val)).skill
        return mae, r2, skill, len(log)

    return objective
