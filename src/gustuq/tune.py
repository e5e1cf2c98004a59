"""Multi-objective random search over the training hyperparameter space.

Each trial draws an independent configuration, trains a model, and records
three validation objectives: MAE (minimize), the spread-skill R^2 between
binned RMSE and total uncertainty (maximize), and the PITD skill score
(maximize). The result is the non-dominated set under those objectives plus
one scalarized recommendation. Trials derive their RNG streams from the
master seed and their index, so a search is reproducible and resumable from
its log, which is rewritten whole after each trial. Trials run in forked
worker processes, each held to one BLAS thread, so the results do not depend
on the BLAS thread count or the number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import data
from .errors import GustUQError, SearchFailure, UsageError, WorkerDied
from .fileio import write_csv
from .metrics import pit_values, pitd, spread_skill
from .nncore import TrainConfig
from .parallel import ForkPool, available_cpus
from .parallel import blas_thread_setters as _blas_thread_setters


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
        for bound in self.dropout:
            if not 0.0 <= bound <= 0.5:  # the range MLP accepts
                raise UsageError(f"dropout: bounds must be in [0, 0.5], got {bound!r}")


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
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def dominates(a: TrialResult, b: TrialResult) -> bool:
    """True when ``a`` is at least as good on all three objectives and
    strictly better on at least one (MAE down, R^2 up, PITD skill up)."""
    at_least = (
        a.val_mae <= b.val_mae
        and a.val_r2_rmse_sigma_total >= b.val_r2_rmse_sigma_total
        and a.val_pitd_skill >= b.val_pitd_skill
    )
    strictly = (
        a.val_mae < b.val_mae
        or a.val_r2_rmse_sigma_total > b.val_r2_rmse_sigma_total
        or a.val_pitd_skill > b.val_pitd_skill
    )
    return at_least and strictly


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


def scalarized_best(
    trials: list[TrialResult], weight: float = 0.5
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


def _count_column(texts) -> np.ndarray:
    return np.fromiter(map(int, texts), np.int64, len(texts))


def _objective_column(texts) -> np.ndarray:
    """A failed trial leaves its objectives blank; they read back as NaN."""
    return np.fromiter((np.nan if t == "" else float(t) for t in texts), float, len(texts))


def _status_column(texts) -> np.ndarray:
    status = data.id_column(texts)
    if not np.all(ok := np.isin(status, ("ok", "failed"))):
        raise ValueError(f"must be ok or failed, got {status[np.argmax(~ok)].item()!r}")
    return status


# Every column is a deterministic function of the seed and the data, so two
# identical searches write identical logs.
_LOG_KINDS = {
    "trial_id": _count_column,
    "learning_rate": data.float_column,
    "dropout": data.float_column,
    "hidden_layers": _count_column,
    "hidden_neurons": _count_column,
    "batch_size": _count_column,
    "evidential_coef": data.float_column,
    "l1": data.float_column,
    "l2": data.float_column,
    "val_mae": _objective_column,
    "val_r2_rmse_sigma_total": _objective_column,
    "val_pitd_skill": _objective_column,
    "n_epochs": _count_column,
    "status": _status_column,
}
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
    if not (
        np.isfinite(result.val_mae)
        and np.isfinite(result.val_r2_rmse_sigma_total)
        and np.isfinite(result.val_pitd_skill)
    ):
        result.status = "failed"
        result.message = "non-finite objective"
    return result


def search(
    space: HyperSpace,
    n_trials: int,
    objective: Objective,
    seed: int = 0,
    log_path=None,
    scalarization_weight: float = 0.5,
) -> SearchResult:
    """Run (or resume) a seeded random search and filter the Pareto set.

    Each trial's RNG stream is derived from ``(seed, trial_id)``, so results
    do not depend on execution order and a partially written log can be
    resumed without repeating completed trials. A logged trial whose
    configuration ``(seed, trial_id)`` and ``space`` do not draw is a
    ``UsageError``, raised before any trial runs.

    Each pending trial runs in a worker process forked for it
    (``parallel.ForkPool``), as many at a time as there are available CPUs,
    widest network first. ``objective`` reaches the workers through the
    fork, so it need not be picklable, but its side effects stay in the
    worker; the warnings it issues are issued again in the caller as each
    result arrives. Each worker holds every loaded OpenBLAS to one thread, so a
    trial's result does not depend on the BLAS thread count or the CPU
    count; where no OpenBLAS is found, one worker runs at a time. The log
    is rewritten in ``trial_id`` order as each result arrives. A worker
    that dies is a ``SearchFailure``; the trials that finished before it
    stay in the log. When a worker dies or the objective raises, the
    trials still running are stopped.
    """
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
        setters = _blas_thread_setters()
        workers = min(len(pending), available_cpus()) if setters else 1
        # fork, so the objective and its data reach the workers unpickled
        job = lambda trial_id: _run_trial(space, objective, seed, trial_id)
        try:
            with ForkPool(workers, job, "tune", setters) as pool:
                for trial_id in pending:
                    pool.submit(trial_id)
                for trial_id, result in pool.completed():
                    done[trial_id] = result
                    if log_path is not None:  # every known trial, the loaded ones included
                        _write_log(log_path, sorted(done.values(), key=lambda t: t.trial_id))
        except WorkerDied:
            kept = f"; {log_path} keeps the {len(done)} finished trial(s)" if log_path else ""
            raise SearchFailure(f"a trial's worker process died{kept}") from None

    results = [done[trial_id] for trial_id in range(n_trials)]
    n_failed = sum(1 for r in results if not r.ok)
    if n_failed == len(results):
        raise SearchFailure(f"all {len(results)} trials failed")
    front = pareto_front(results)
    best = scalarized_best(results, weight=scalarization_weight)
    return SearchResult(trials=results, pareto=front, best=best, n_failed=n_failed)


def make_evidential_objective(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    val_features: np.ndarray,
    val_targets: np.ndarray,
    max_epochs: int = 200,
    patience: int = 10,
    standardizer: data.Standardizer | None = None,
) -> Objective:
    """Objective that trains an evidential model and scores it on validation.
    Features are raw; each trial's model applies ``standardizer`` itself."""
    from .evidential import decompose, train_evidential

    y_val = np.asarray(val_targets, dtype=float)

    def objective(config: TrialConfig, rng: np.random.Generator):
        train_config = TrainConfig(
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            max_epochs=max_epochs,
            patience=patience,
            evidential_coef=config.evidential_coef,
            seed=int(rng.integers(2**31)),
        )
        model, log = train_evidential(
            train_features,
            train_targets,
            val_features,
            val_targets,
            hidden_sizes=[config.hidden_neurons] * config.hidden_layers,
            config=train_config,
            dropout=config.dropout,
            l1=config.l1,
            l2=config.l2,
            standardizer=standardizer,
        )
        dec = decompose(model.validation_params)
        mae = float(np.mean(np.abs(dec.mean - y_val)))
        r2 = spread_skill(dec.total_sd, dec.mean - y_val).r_squared
        skill = pitd(pit_values(dec.mean, dec.total_sd, y_val)).skill
        return mae, r2, skill, len(log)

    return objective
