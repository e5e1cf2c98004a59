"""Pipeline benchmark: the real gustuq CLI on seeded synthetic inputs.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each exists):

    pipeline      train, predict, evaluate on the station CSV, then grid
                  predict with the model just trained, then spatial
    explain_tune  explain (permutation importance, partial dependence),
                  then a four-trial hyperparameter search

Inputs come from ``tests/synth.py`` with the given seed and are cached under
``.bench_work/fixtures``, together with the model that ``explain`` reads;
building them is not timed. Each pass of a workload runs its commands in one
fresh interpreter (``bench/workload_pass.py``). Passes repeat until
``--seconds`` have gone by, and at least twice, so that every output file can
be compared byte for byte between two passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: the
mean wall time of the run's passes, and medians for the rest. With
``--trace 1`` passes alternate between untraced and traced, and the line
holds the per-layer metrics of the traced pass with the median wall time.
Either way the line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# A quarter of the ROADMAP Baseline (38,400 station rows, 96,000 grid rows),
# so that a run of run_seconds takes several passes.
SIZES = {
    "bench": {
        "station": {"n_storms": 40, "n_stations": 20, "n_hours": 12},
        "grid": {"n_storms": 2, "n_rows": 20, "n_cols": 25, "n_hours": 24},
    },
    "tiny": {
        "station": {"n_storms": 40, "n_stations": 2, "n_hours": 3},
        "grid": {"n_storms": 2, "n_rows": 4, "n_cols": 5, "n_hours": 3},
    },
}
SPLIT = (24, 8, 8)
MAX_EPOCHS = 20
PDP_GRID = 20
TRIALS = 4
TRAIN_FLAGS = ["--split", ",".join(map(str, SPLIT)), "--max-epochs", str(MAX_EPOCHS)]
EXPLAIN_FLAGS = ["--n-shuffles", "3", "--pdp-grid", str(PDP_GRID)]
TUNE_FLAGS = ["--split", ",".join(map(str, SPLIT)), "--trials", str(TRIALS), "--max-epochs", "5"]
WORKLOADS = ("pipeline", "explain_tune")

MIN_PASSES = 2
MAX_RUN_S = 100.0  # no new pass after this, so that a run ends well inside 180 s
# Fixed on every commit; a 5850x703 @ 703x703 matmul is 1.5x faster on 2 threads.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "identical_output_share": "share",
    "val_mae": "m/s",
    "picp70_abs_err": "share",
    "pitd_skill_total": "score",
}
LAYER_UNITS = {
    # about 0 while the model is miscalibrated, so it spreads too widely to bound
    "spread_skill_r2": "score",
    # 5-epoch trials: their spread over seeds is too wide for a tight bound
    "tune.best_val_mae": "m/s",
    "tune.best_pitd_skill_total": "score",
    "tune.best_spread_skill_r2": "score",
    "data.rows_per_s": "rows/s",
    "fileio.bytes_written": "B",
    "nncore.flops": "computed_flop",
    "nncore.backward_flops": "computed_flop",
    "nncore.bytes": "computed_B",
    "nncore.backward_bytes": "computed_B",
    "nncore.gflops_per_s": "GFLOP/s",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") or name == "spatial.s" else "count")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_cli(argv: list, env: dict) -> str | None:
    """Run one CLI command in its own interpreter; return its error, if any."""
    code = "import sys; from gustuq.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode == 0:
        return None
    return done.stderr.strip() or f"exit code {done.returncode}"


def digest(*parts) -> str:
    """Short hash of JSON-able parts and of the bytes of the files among them."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(str(part.relative_to(ROOT)).encode() + b"\0" + part.read_bytes())
        else:
            h.update(json.dumps(part).encode())
    return h.hexdigest()[:12]


def fixtures(workload: str, seed: int, size: str, env: dict) -> dict[str, Path]:
    """Seeded inputs for ``workload``, built once and cached.

    The CSVs are keyed on the seed, the geometry and ``tests/synth.py``; the
    model, which the program under test trains, also on every source file of
    the program and the train flags, so another commit never reads it.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    import synth

    geometry = SIZES[size]
    home = WORK / "fixtures" / f"seed{seed}-{digest(geometry, ROOT / 'tests' / 'synth.py')}"
    home.mkdir(parents=True, exist_ok=True)
    fx = {"station": home / "station.csv"}
    if workload == "pipeline":
        fx["grid"] = home / "grid.csv"
    else:
        sources = sorted((ROOT / "src" / "gustuq").rglob("*.py"))
        fx["model"] = home / f"model-{digest(TRAIN_FLAGS, *sources)}"

    for key, write in (("station", synth.write_station_file), ("grid", synth.write_grid_file)):
        if key in fx and not fx[key].exists():
            tmp = fx[key].with_suffix(f".tmp{os.getpid()}")
            write(tmp, seed=seed, **geometry[key])
            os.replace(tmp, fx[key])
    if "model" in fx and not (fx["model"] / "model.json").exists():
        # A failed train leaves no model: the workload's commands then fail
        # their checks and are counted in ``failed``.
        tmp = home / f"model.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        error = run_cli(["train", "--data", fx["station"], "--out", tmp, *TRAIN_FLAGS], env)
        if error:
            print(f"fixture train failed: {error}", file=sys.stderr)
        else:
            shutil.rmtree(fx["model"], ignore_errors=True)
            os.replace(tmp, fx["model"])
        shutil.rmtree(tmp, ignore_errors=True)
    return fx


def expectations(size: str) -> dict:
    st, gr = SIZES[size]["station"], SIZES[size]["grid"]
    per_storm = st["n_stations"] * st["n_hours"]
    return {
        "station_rows": st["n_storms"] * per_storm,
        "val_rows": SPLIT[1] * per_storm,
        "n_stations": st["n_stations"],
        "grid_rows": gr["n_storms"] * gr["n_rows"] * gr["n_cols"] * gr["n_hours"],
        "grid_cells": gr["n_rows"] * gr["n_cols"],
        "grid_storms": gr["n_storms"],
        "grid_hours": gr["n_hours"],
        "max_epochs": MAX_EPOCHS,
        "pdp_grid": PDP_GRID,
        "trials": TRIALS,
    }


def steps(workload: str, fx: dict, out: Path) -> list[tuple[list, object]]:
    """The workload's command sequence as (argv, output check) pairs."""
    st = fx["station"]
    if workload == "pipeline":
        model = out / "train" / "model.json"
        return [
            (["train", "--data", st, "--out", out / "train", *TRAIN_FLAGS], checks.check_train),
            (["predict", "--model", model, "--data", st, "--out", out / "predict"],
             checks.check_station_predict),
            (["evaluate", "--pred", out / "predict" / "predictions.csv", "--data", st,
              "--out", out / "evaluate"], checks.check_evaluate),
            (["predict", "--model", model, "--data", fx["grid"], "--out", out / "grid_predict"],
             checks.check_grid_predict),
            (["spatial", "--pred", out / "grid_predict" / "grid_predictions.csv",
              "--data", fx["grid"], "--out", out / "spatial"], checks.check_spatial),
        ]
    return [
        (["explain", "--model", fx["model"] / "model.json", "--data", st,
          "--out", out / "explain", *EXPLAIN_FLAGS], checks.check_explain),
        (["tune", "--data", st, "--out", out / "tune", *TUNE_FLAGS], checks.check_tune),
    ]


def run_pass(workload: str, fx: dict, out: Path, env: dict, expect: dict, spans=None) -> dict:
    """One pass in a fresh interpreter; returns its timings and check results."""
    out.mkdir(parents=True)
    plan = steps(workload, fx, out)
    spec_path = out.with_suffix(".spec.json")
    result_path = out.with_suffix(".result.json")
    with open(spec_path, "w") as fh:
        json.dump({
            "commands": [[str(a) for a in argv] for argv, _ in plan],
            "result": str(result_path),
            "spans": None if spans is None else str(spans),
        }, fh)
    with open(out.with_suffix(".log"), "w") as log:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "workload_pass.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
    if done.returncode != 0 or not result_path.exists():
        log_tail = out.with_suffix(".log").read_text()[-2000:]
        raise RuntimeError(f"{workload} pass crashed:\n{log_tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["imported_at"] - started
    result["spans"] = spans
    for record, (argv, check) in zip(result["commands"], plan):
        problems = [] if record["exit_code"] == 0 else [f"exit code {record['exit_code']}"]
        try:
            problems += check(Path(argv[argv.index("--out") + 1]), expect)
        except Exception as exc:  # unreadable output: a failed operation, not a crash
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        record["problems"] = problems
    return result


def setup_sample(env: dict) -> float:
    """Seconds from starting an interpreter to ``import gustuq.cli`` done."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import gustuq.cli, time; print(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(done.stdout) - started


QUALITY = (
    "val_mae", "picp70_abs_err", "pitd_skill_total", "spread_skill_r2",
    "tune.best_val_mae", "tune.best_pitd_skill_total", "tune.best_spread_skill_r2",
)


def quality(workload: str, out: Path, fx: dict) -> tuple[dict[str, float], list[str]]:
    """Calibration and skill of the model the workload trains (pipeline) or
    reads (explain_tune), plus the recommended trial of the tune command.

    A missing or malformed file is returned as a problem, its figures as 0.
    """
    q = dict.fromkeys(QUALITY, 0.0)
    problems = []
    source = out / "train" if workload == "pipeline" else fx["model"]
    try:
        report = json.loads((source / "validation_report.json").read_text())
        q["val_mae"] = float(report["mae"])
        q["picp70_abs_err"] = abs(float(report["picp"]["0.7"]) - 0.70)
        q["pitd_skill_total"] = float(report["pitd"]["total"]["skill"])
        q["spread_skill_r2"] = float(report["spread_skill"]["r_squared"])
    except Exception as exc:
        problems.append(f"validation_report.json unreadable: {type(exc).__name__}: {exc}")
    if workload == "explain_tune":
        try:
            best = json.loads((out / "tune" / "pareto.json").read_text())["recommended"]
            q["tune.best_val_mae"] = float(best["val_mae"])
            q["tune.best_pitd_skill_total"] = float(best["val_pitd_skill"])
            q["tune.best_spread_skill_r2"] = float(best["val_r2_rmse_sigma_total"])
        except Exception as exc:
            problems.append(f"pareto.json unreadable: {type(exc).__name__}: {exc}")
    for name, value in q.items():
        if not math.isfinite(value):  # NaN would make the result line invalid JSON
            problems.append(f"{name} is {value}")
            q[name] = 0.0
    return q, problems


def measure(args) -> dict:
    env = child_env()
    fx = fixtures(args.workload, args.seed, args.size, env)
    expect = expectations(args.size)
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_sample(env)  # warm the page cache and bytecode before timing
        passes, setups = [], []
        started = time.monotonic()
        while len(passes) < MIN_PASSES or (
            time.monotonic() - started < min(args.seconds, MAX_RUN_S)
        ):
            # a traced run alternates untraced and traced passes, so that
            # machine drift falls on both kinds alike
            out = run_dir / f"pass{len(passes)}"
            spans = out.with_suffix(".jsonl") if args.trace and len(passes) % 2 else None
            passes.append(run_pass(args.workload, fx, out, env, expect, spans))
            # one import-only sample per pass, so set-up samples spread over the run
            setups += [passes[-1]["setup_s"], setup_sample(env)]
        differ = checks.differing_files(run_dir / "pass0", run_dir / "pass1")
        n_files = checks.count_files(run_dir / "pass0")
        q, q_problems = quality(args.workload, run_dir / "pass0", fx)
        # charged to the first command of the first pass, which trained
        # (pipeline) or read (explain_tune) the model
        passes[0]["commands"][0]["problems"] += q_problems
        if args.trace:
            untraced, traced = passes[0::2], passes[1::2]
            shown = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
            WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
            shutil.copy(shown["spans"], WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [rec for p in passes for rec in p["commands"]]
    failed = [rec for rec in ops if rec["problems"]]
    if args.trace:
        values = dict(shown["layers"])
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in untraced)
        # about 0: the self times and the wrapper bookkeeping cover the pass
        values["trace.unaccounted_s"] = (
            shown["wall_s"] - values["trace.bookkeeping_s"]
            - sum(values[name] for name in tracer.SELF_TIME.values())
        )
        values["check.nondeterministic_files"] = len(differ)
        values.update((k, v) for k, v in q.items() if k not in END_TO_END_UNITS)
        units = {name: layer_unit(name) for name in values}
    else:
        values = {
            # The machine's speed switches between states lasting seconds, so
            # the median of a run's passes jumps between states; the mean
            # (measured time over passes) follows the time spent in each.
            "wall_s": statistics.fmean(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "identical_output_share": (n_files - len(differ)) / n_files if n_files else 0.0,
            **{k: v for k, v in q.items() if k in END_TO_END_UNITS},
        }
        units = END_TO_END_UNITS
    return {
        "summary": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
        "env": {**passes[0]["env"], "passes": len(passes)},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "nondeterministic_files": differ,
        "problems": [f"{rec['command']}: {msg}" for rec in failed for msg in rec["problems"]],
        "quality": q,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench",
                        help="input size; 'tiny' is for the smoke test only")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gustuq/cli.py", "tests/synth.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gustuq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    record = measure(args)
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(WORK / "results" / name, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env: " + json.dumps(record["env"]))
    print("pass wall_s: " + json.dumps(record["pass_wall_s"]))
    print("nondeterministic files: " + json.dumps(record["nondeterministic_files"]))
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
