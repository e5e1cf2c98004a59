import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gustuq import nncore, parallel
from gustuq.data import Standardizer
from gustuq.errors import CalibrationWarning, IngestError, SearchFailure, UsageError
from gustuq.tune import (
    HyperSpace,
    TrialConfig,
    TrialResult,
    dominates,
    load_trials_log,
    make_evidential_objective,
    pareto_front,
    sample,
    scalarized_best,
    search,
)

from synth import heteroscedastic_xy


def in_bounds(cfg: TrialConfig, space: HyperSpace) -> bool:
    return (
        space.learning_rate[0] <= cfg.learning_rate <= space.learning_rate[1]
        and space.dropout[0] <= cfg.dropout <= space.dropout[1]
        and space.hidden_layers[0] <= cfg.hidden_layers <= space.hidden_layers[1]
        and space.hidden_neurons[0] <= cfg.hidden_neurons <= space.hidden_neurons[1]
        and space.batch_size[0] <= cfg.batch_size <= space.batch_size[1]
        and space.evidential_coef[0] <= cfg.evidential_coef <= space.evidential_coef[1]
        and space.l1[0] <= cfg.l1 <= space.l1[1]
        and space.l2[0] <= cfg.l2 <= space.l2[1]
    )


def brute_force_pareto(trials):
    """Definition-based O(n^2) non-dominated filter, independent of the
    archive implementation in the package."""
    ok = [t for t in trials if t.ok]
    front = []
    for t in ok:
        dominated = False
        for other in ok:
            if other is t:
                continue
            better_eq = (
                other.val_mae <= t.val_mae
                and other.val_r2_rmse_sigma_total >= t.val_r2_rmse_sigma_total
                and other.val_pitd_skill >= t.val_pitd_skill
            )
            strictly = (
                other.val_mae < t.val_mae
                or other.val_r2_rmse_sigma_total > t.val_r2_rmse_sigma_total
                or other.val_pitd_skill > t.val_pitd_skill
            )
            if better_eq and strictly:
                dominated = True
                break
        if not dominated:
            front.append(t)
    return sorted(front, key=lambda t: t.trial_id)


def random_trials(n, seed, fail_every=0):
    rng = np.random.default_rng(seed)
    space = HyperSpace()
    trials = []
    for i in range(n):
        t = TrialResult(
            trial_id=i,
            config=sample(space, rng),
            val_mae=float(rng.uniform(0.1, 2.0)),
            val_r2_rmse_sigma_total=float(rng.uniform(-0.5, 1.0)),
            val_pitd_skill=float(rng.uniform(0.0, 1.0)),
            n_epochs=int(rng.integers(1, 50)),
        )
        if fail_every and i % fail_every == 0:
            t.status = "failed"
        trials.append(t)
    return trials


# ---------------------------------------------------------------------------
# sampling


def test_sample_within_bounds_many_draws():
    space = HyperSpace()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        assert in_bounds(sample(space, rng), space)


def test_learning_rate_is_log_uniform():
    space = HyperSpace()
    rng = np.random.default_rng(1)
    draws = np.array([sample(space, rng).learning_rate for _ in range(100)])
    # a linear-uniform sampler on [1e-6, 0.01] has essentially no mass below
    # 1e-5; a log-uniform one spans at least 3 decades in 100 draws
    assert np.log10(draws.max()) - np.log10(draws.min()) >= 3.0
    assert (draws < 1e-5).sum() > 5


def test_sampler_reproducible():
    space = HyperSpace()
    a = [sample(space, np.random.default_rng(7)) for _ in range(5)]
    b = [sample(space, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


def test_space_validation():
    with pytest.raises(UsageError):
        HyperSpace(learning_rate=(0.1, 0.01)).validate()
    with pytest.raises(UsageError):
        HyperSpace(l1=(0.0, 0.01)).validate()  # log-scaled needs positive low
    # integer dimensions take integers >= 1, and the bounds of a real-valued
    # setting values that training accepts: dropout in [0, 0.5], the others finite
    for name, bounds in (("hidden_neurons", (-5, 3)), ("hidden_layers", (1.5, 3)),
                         ("batch_size", (0, 0)), ("hidden_layers", (True, 2)),
                         ("dropout", (1.0, 2.0)), ("dropout", (-0.5, -0.1)),
                         ("dropout", (0.2, 0.6)), ("dropout", (float("nan"), 0.1)),
                         ("l2", (1e-6, float("inf"))),
                         ("learning_rate", (1e-3, float("inf")))):
        with pytest.raises(UsageError, match=name):
            HyperSpace(**{name: bounds}).validate()
    HyperSpace(hidden_neurons=(np.int64(2), 4)).validate()
    HyperSpace(dropout=(0.0, 0.5)).validate()


# ---------------------------------------------------------------------------
# pareto filtering


def test_pareto_matches_brute_force_many_seeds():
    for seed in range(10):
        trials = random_trials(50, seed, fail_every=7 if seed % 2 else 0)
        assert pareto_front(trials) == brute_force_pareto(trials)


def test_dominated_config_never_in_front():
    trials = random_trials(60, 3)
    front = pareto_front(trials)
    for t in front:
        assert not any(dominates(o, t) for o in trials if o.ok)


def test_pareto_order_independent():
    trials = random_trials(40, 4)
    rng = np.random.default_rng(5)
    shuffled = [trials[i] for i in rng.permutation(len(trials))]
    assert pareto_front(shuffled) == pareto_front(trials)


def test_single_trial_is_front_and_best():
    trials = random_trials(1, 6)
    assert pareto_front(trials) == trials
    assert scalarized_best(trials) == trials[0]


def test_scalarized_best_requires_success():
    trials = random_trials(3, 7)
    for t in trials:
        t.status = "failed"
    with pytest.raises(SearchFailure):
        scalarized_best(trials)


# ---------------------------------------------------------------------------
# search


def synthetic_objective(config: TrialConfig, rng: np.random.Generator):
    # smooth deterministic function of the config plus trial noise
    mae = 0.2 + abs(np.log10(config.learning_rate) + 4) / 10 + 0.01 * config.hidden_layers
    r2 = 1.0 - config.dropout
    skill = 1.0 / (1.0 + config.evidential_coef)
    return mae + rng.normal(0, 1e-3), r2, skill, 5


class FileCalls:
    """A call counter that works across processes: ``search`` runs the
    objective in forked workers, so each call appends one line to a file."""

    def __init__(self, path):
        self.path = path

    def append(self, item):
        with open(self.path, "a") as fh:
            fh.write(f"{item}\n")

    def _items(self):
        return [int(line) for line in self.path.read_text().splitlines()] if self.path.exists() else []

    def __len__(self):
        return len(self._items())

    def __eq__(self, other):
        return self._items() == other


def trial_id_of(rng: np.random.Generator) -> int:
    """The trial an objective's generator belongs to: ``search`` seeds it
    with ``spawn_key=(trial_id,)``."""
    return rng.bit_generator.seed_seq.spawn_key[0]


def child_pids() -> set[int]:
    """The processes this one has started and not yet reaped."""
    pids = set()
    for children in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        pids.update(map(int, children.read_text().split()))
    return pids


# One value per dimension, so every trial draws the same short config.
ONE_CONFIG = HyperSpace(learning_rate=(0.001, 0.001), dropout=(0.1, 0.1),
                        hidden_layers=(1, 1), hidden_neurons=(8, 8), batch_size=(32, 32),
                        evidential_coef=(0.5, 0.5), l1=(1e-06, 1e-06), l2=(1e-06, 1e-06))


def test_search_pareto_verified_and_reproducible(tmp_path):
    space = HyperSpace()
    result = search(space, 50, synthetic_objective, seed=11)
    assert pareto_front(result.trials) == brute_force_pareto(result.trials)
    assert result.pareto == brute_force_pareto(result.trials)
    again = search(space, 50, synthetic_objective, seed=11)
    assert [t.config for t in again.trials] == [t.config for t in result.trials]
    assert [t.val_mae for t in again.trials] == [t.val_mae for t in result.trials]


def test_search_log_and_resume(tmp_path):
    space = HyperSpace()
    log = tmp_path / "trials.csv"

    calls = FileCalls(tmp_path / "calls.txt")

    def counting_objective(config, rng):
        calls.append(1)
        return synthetic_objective(config, rng)

    first = search(space, 10, counting_objective, seed=3, log_path=log)
    assert len(calls) == 10
    loaded = load_trials_log(log)
    assert len(loaded) == 10
    # resuming with a larger budget only runs the new trials
    resumed = search(space, 15, counting_objective, seed=3, log_path=log)
    assert len(calls) == 15
    assert len(resumed.trials) == 15
    for before, after in zip(first.trials, resumed.trials):
        assert before.config == after.config
        assert before.val_mae == after.val_mae


def test_search_refuses_log_with_wall_time_column(tmp_path):
    # logs written before wall time left trials_log.csv carry an extra column
    log = tmp_path / "trials.csv"
    search(HyperSpace(), 3, synthetic_objective, seed=3, log_path=log)
    lines = log.read_text().splitlines()
    header = lines[0].split(",")
    status_at = header.index("status")
    old = [",".join([*row[:status_at], "0.25", *row[status_at:]])
           for row in (line.split(",") for line in lines[1:])]
    header.insert(status_at, "wall_time_s")
    log.write_text("\n".join([",".join(header), *old]) + "\n")
    with pytest.raises(UsageError, match="extra column\\(s\\) wall_time_s"):
        load_trials_log(log)
    with pytest.raises(UsageError, match="wall_time_s"):
        search(HyperSpace(), 5, synthetic_objective, seed=3, log_path=log)


@pytest.mark.parametrize("cut", [3, 4, 25, 60])
def test_truncated_log_is_ingest_error_naming_line(tmp_path, cut):
    # a crash mid-write leaves a partial last line; resuming must say where
    log = tmp_path / "trials.csv"
    search(HyperSpace(), 2, synthetic_objective, seed=3, log_path=log)
    text = log.read_text()
    log.write_text(text[: len(text) - cut])
    with pytest.raises(IngestError, match="line 3: "):
        load_trials_log(log)
    with pytest.raises(IngestError, match="line 3: "):
        search(HyperSpace(), 3, synthetic_objective, seed=3, log_path=log)


def test_log_round_trips_failed_trials_and_types(tmp_path):
    def sometimes_fails(config, rng):
        if config.hidden_layers >= 3:
            raise UsageError("boom")
        return synthetic_objective(config, rng)

    log = tmp_path / "trials.csv"
    result = search(HyperSpace(), 12, sometimes_fails, seed=5, log_path=log)
    loaded = load_trials_log(log)
    assert 0 < sum(not t.ok for t in loaded) < len(loaded)
    for before, after in zip(result.trials, loaded):
        assert after.config == before.config and after.status == before.status
        assert type(after.trial_id) is int and type(after.config.batch_size) is int
        assert type(after.config.dropout) is float
        if after.ok:
            assert after.val_mae == before.val_mae
        else:
            assert np.isnan(after.val_mae) and np.isnan(after.val_pitd_skill)


def test_log_bytes_with_failed_trials(tmp_path):
    space = ONE_CONFIG
    outcomes = [(1.5, 0.25, 0.75, 4), UsageError("boom"),
                (float("nan"), 0.5, 0.125, 3), (float("inf"), 0.5, 0.125, 2)]

    def scripted(config, rng):
        outcome = outcomes[trial_id_of(rng)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    log = tmp_path / "trials.csv"
    result = search(space, 4, scripted, seed=0, log_path=log)
    assert [t.status for t in result.trials] == ["ok", "failed", "failed", "failed"]
    config = "0.001,0.1,1,8,32,0.5,1e-06,1e-06"
    assert log.read_bytes() == (
        b"trial_id,learning_rate,dropout,hidden_layers,hidden_neurons,batch_size,"
        b"evidential_coef,l1,l2,val_mae,val_r2_rmse_sigma_total,val_pitd_skill,"
        b"n_epochs,status\r\n"
        + f"0,{config},1.5,0.25,0.75,4,ok\r\n".encode()
        + f"1,{config},,,,0,failed\r\n".encode()
        + f"2,{config},,0.5,0.125,3,failed\r\n".encode()
        + f"3,{config},inf,0.5,0.125,2,failed\r\n".encode()
    )


def test_resumed_log_holds_every_known_trial_in_order(tmp_path):
    fresh = tmp_path / "fresh.csv"
    search(HyperSpace(), 5, synthetic_objective, seed=3, log_path=fresh)
    header, *rows = fresh.read_bytes().splitlines(keepends=True)
    # trial 1 lost and the rest shuffled; a budget of 3 reruns only trial 1
    log = tmp_path / "trials.csv"
    log.write_bytes(b"".join([header, rows[4], rows[2], rows[0], rows[3]]))
    calls = FileCalls(tmp_path / "calls.txt")

    def counting_objective(config, rng):
        calls.append(1)
        return synthetic_objective(config, rng)

    result = search(HyperSpace(), 3, counting_objective, seed=3, log_path=log)
    assert len(calls) == 1 and [t.trial_id for t in result.trials] == [0, 1, 2]
    assert log.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("seed, space, field", [
    (7, HyperSpace(), "learning_rate"),
    (0, HyperSpace(hidden_neurons=(1, 500)), "hidden_neurons"),
])
def test_resume_refuses_log_of_another_search(tmp_path, seed, space, field):
    # A log written by seed 0 over the default space, resumed under another
    # seed or space, would keep its trial 0 beside trials of the new search.
    log = tmp_path / "trials.csv"
    search(HyperSpace(), 1, synthetic_objective, seed=0, log_path=log)
    before = log.read_bytes()
    calls = FileCalls(tmp_path / "calls.txt")

    def counting_objective(config, rng):
        calls.append(1)
        return synthetic_objective(config, rng)

    with pytest.raises(UsageError, match=rf"trial 0 has {field} .*, but seed {seed} and this "
                                         "search space draw .*; the log is from another search"):
        search(space, 2, counting_objective, seed=seed, log_path=log)
    assert calls == [] and log.read_bytes() == before


def test_dead_worker_is_search_failure_and_log_keeps_finished_trials(tmp_path):
    log = tmp_path / "trials.csv"

    def last_trial_dies(config, rng):
        # every trial is as wide as the next, so trial 3 is handed out last;
        # it dies once the other three are logged
        if trial_id_of(rng) == 3:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                    not log.exists() or len(load_trials_log(log)) < 3):
                time.sleep(0.01)
            os._exit(1)
        return synthetic_objective(config, rng)

    before = child_pids()
    with pytest.raises(SearchFailure, match=r"^a trial's worker process died; "
                                            r".*trials\.csv keeps the 3 finished trial\(s\)$"):
        search(ONE_CONFIG, 4, last_trial_dies, seed=0, log_path=log)
    assert child_pids() == before
    assert [t.trial_id for t in load_trials_log(log)] == [0, 1, 2]
    # the search resumes where the dead worker left it
    calls = FileCalls(tmp_path / "calls.txt")

    def counting_objective(config, rng):
        calls.append(trial_id_of(rng))
        return synthetic_objective(config, rng)

    resumed = search(ONE_CONFIG, 4, counting_objective, seed=0, log_path=log)
    assert calls == [3] and [t.trial_id for t in resumed.trials] == [0, 1, 2, 3]
    assert child_pids() == before


def test_objective_bug_propagates_and_leaves_no_process():
    def buggy(config, rng):
        if trial_id_of(rng) == 1:
            raise RuntimeError("bug in the objective")
        return synthetic_objective(config, rng)

    before = child_pids()
    with pytest.raises(RuntimeError, match="bug in the objective"):
        search(HyperSpace(), 6, buggy, seed=0)
    assert child_pids() == before


def test_widest_trials_are_handed_out_first(tmp_path, monkeypatch):
    # with no OpenBLAS to hold to one thread, one worker runs the trials in
    # the order they are handed out
    monkeypatch.setattr(parallel, "blas_thread_setters", lambda: [])
    calls = FileCalls(tmp_path / "calls.txt")

    def recording_objective(config, rng):
        calls.append(trial_id_of(rng))
        return synthetic_objective(config, rng)

    space = HyperSpace(hidden_layers=(1, 3), hidden_neurons=(1, 50))
    result = search(space, 8, recording_objective, seed=4)
    widths = {t.trial_id: t.config.hidden_layers * t.config.hidden_neurons**2
              for t in result.trials}
    assert calls == sorted(widths, key=lambda t: (-widths[t], t))


def test_each_trial_worker_runs_on_a_cpu_of_its_own(tmp_path, monkeypatch):
    # a stand-in OpenBLAS setter, so the trials get every CPU with or
    # without an OpenBLAS in this build
    monkeypatch.setattr(parallel, "blas_thread_setters", lambda: [lambda n: None])
    seen = tmp_path / "affinity.txt"

    def recording_objective(config, rng):
        with open(seen, "a") as fh:
            fh.write(" ".join(map(str, [trial_id_of(rng), *os.sched_getaffinity(0)])) + "\n")
        return synthetic_objective(config, rng)

    search(ONE_CONFIG, 4, recording_objective, seed=0)
    cpus = {int(trial): set(map(int, rest))
            for trial, *rest in map(str.split, seen.read_text().splitlines())}
    assert sorted(cpus) == [0, 1, 2, 3]
    assert all(len(seen_cpus) == 1 for seen_cpus in cpus.values())
    if parallel.available_cpus() > 1:  # all trials are as wide, so 0 and 1 go first
        assert cpus[0] != cpus[1]


def test_log_with_repeated_trial_is_ingest_error(tmp_path):
    log = tmp_path / "trials.csv"
    search(HyperSpace(), 2, synthetic_objective, seed=3, log_path=log)
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines + [lines[1]]))
    with pytest.raises(IngestError, match="line 4: same key as line 2"):
        load_trials_log(log)


def test_search_records_failures():
    def sometimes_fails(config, rng):
        if config.hidden_layers >= 3:
            raise UsageError("boom")
        return 1.0, 0.5, 0.5, 3

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = search(HyperSpace(), 30, sometimes_fails, seed=5)
    assert result.n_failed > 0
    failed = [t.trial_id for t in result.trials if not t.ok]
    assert sorted(str(w.message) for w in caught) == sorted(
        f"trial {k} failed: boom" for k in failed)
    assert all(not t.ok for t in result.trials if t.status == "failed")
    assert all(t.ok for t in result.pareto)


def test_search_all_failed_raises():
    def always_fails(config, rng):
        raise UsageError("nope")

    with pytest.raises(SearchFailure, match=r"^all 5 trials failed; trial 0: nope$"):
        search(HyperSpace(), 5, always_fails, seed=0)


def test_search_nonfinite_objective_marks_failed():
    def nan_objective(config, rng):
        return float("nan"), 0.5, 0.5, 1

    with pytest.raises(SearchFailure, match="trial 0: non-finite objective$"):
        search(HyperSpace(), 3, nan_objective, seed=0)


def test_training_search_approaches_noise_floor():
    # 50-trial search over a desk-scale slice of the space; the noise floor
    # for predicting the conditional mean is E|N(0, (0.1+|x|)^2)| with the
    # optimal (true) mean, i.e. E[0.1 + |x|] * sqrt(2/pi)
    x, y, _ = heteroscedastic_xy(1500, seed=21)
    objective = make_evidential_objective(
        x[:1000], y[:1000], x[1000:], y[1000:], max_epochs=30, patience=5
    )
    space = HyperSpace(
        learning_rate=(1e-4, 1e-2),
        dropout=(0.0, 0.2),
        hidden_layers=(1, 2),
        hidden_neurons=(4, 32),
        batch_size=(32, 256),
        evidential_coef=(1e-3, 1.0),
        l1=(1e-12, 1e-6),
        l2=(1e-12, 1e-6),
    )
    result = search(space, 50, objective, seed=2)
    noise_floor = 0.6 * np.sqrt(2 / np.pi)  # E[sd] = 0.6 on U(-1, 1)
    best_mae = min(t.val_mae for t in result.trials if t.ok)
    assert best_mae <= 1.2 * noise_floor
    assert result.pareto == brute_force_pareto(result.trials)


def test_objective_with_standardizer_equals_prescaled_objective():
    # each trial's model scales the raw features itself, as cmd_tune relies on
    rng = np.random.default_rng(8)
    x = rng.normal([12.0, -40.0], [3.0, 0.5], size=(500, 2))
    y = 0.3 * x[:, 0] - 2.0 * x[:, 1] + rng.standard_normal(500)
    std = Standardizer.fit(x[:400])
    config = TrialConfig(learning_rate=3e-3, dropout=0.1, hidden_layers=2, hidden_neurons=12,
                         batch_size=64, evidential_coef=0.05, l1=1e-6, l2=1e-5)
    owned = make_evidential_objective(x[:400], y[:400], x[400:], y[400:], max_epochs=4,
                                      patience=4, standardizer=std)
    by_hand = make_evidential_objective(std.apply(x[:400]), y[:400], std.apply(x[400:]),
                                        y[400:], max_epochs=4, patience=4)
    got = owned(config, np.random.default_rng(3))
    want = by_hand(config, np.random.default_rng(3))
    assert got == want


def test_objective_error_that_does_not_pickle_is_named():
    class Unpicklable(RuntimeError):
        def __reduce__(self):
            raise TypeError("cannot pickle this error")

    def raising(config, rng):
        raise Unpicklable("local")

    before = child_pids()
    with pytest.raises(TypeError, match="tune: a worker's outcome cannot be sent back"):
        search(ONE_CONFIG, 2, raising, seed=0)
    assert child_pids() == before


def test_trial_warnings_are_issued_in_the_caller():
    def warning_objective(config, rng):
        warnings.warn(f"trial {trial_id_of(rng)}", CalibrationWarning)
        return synthetic_objective(config, rng)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        search(ONE_CONFIG, 3, warning_objective, seed=0)
    assert sorted(str(w.message) for w in caught) == ["trial 0", "trial 1", "trial 2"]
    assert {w.category for w in caught} == {CalibrationWarning}


def test_objective_runs_one_validation_pass_per_epoch(monkeypatch):
    forward = nncore.forward
    nograd = []

    def spy(model, batch, train_mode=False, *args, **kwargs):
        if not train_mode:
            nograd.append(len(batch))
        return forward(model, batch, train_mode, *args, **kwargs)

    monkeypatch.setattr(nncore, "forward", spy)
    x, y, _ = heteroscedastic_xy(300, seed=4)
    objective = make_evidential_objective(x[:200], y[:200], x[200:], y[200:],
                                          max_epochs=6, patience=2)
    config = TrialConfig(learning_rate=3e-3, dropout=0.0, hidden_layers=1, hidden_neurons=8,
                         batch_size=64, evidential_coef=0.05, l1=1e-6, l2=1e-6)
    *_, epochs = objective(config, np.random.default_rng(0))
    assert nograd == [100] * epochs
