"""One pass of a workload: its CLI commands, in one fresh interpreter.

Usage: python3 bench/workload_pass.py SPEC.json

SPEC names the argument lists for ``gustuq.cli.main``, the result file, and
optionally a span file; with a span file the pass runs traced. ``gustuq.cli``
is imported first, before anything of the benchmark, so that the clock
reading taken right after it closes the set-up interval the parent opened
before starting this process.
"""

import gustuq.cli  # noqa: I001  (must stay first: see module docstring)
import time

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("spans"):
        import tracer as tracing  # bench/ is sys.path[0] when run as a script

        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    wall = 0.0
    for argv in spec["commands"]:
        started = time.perf_counter()
        try:
            code = gustuq.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # raised before main's own handler, e.g. by its parser
            print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - started
        wall += seconds
        commands.append({"command": argv[0], "exit_code": code, "seconds": seconds})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "imported_at": IMPORTED,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": commands,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(spec["spans"])
        result["layers"] = tracing.layer_metrics(tracer, wall)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
