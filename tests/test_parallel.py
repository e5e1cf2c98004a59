import ast
import os
import signal
import time
import warnings
from pathlib import Path

import pytest

from gustuq import parallel
from gustuq.errors import CalibrationWarning, WorkerDied

from markers import needs_two_cpus


@needs_two_cpus
def test_worker_warnings_are_issued_in_the_caller_in_piece_order():
    def job(k: int) -> int:
        warnings.warn(f"piece {k}", CalibrationWarning)
        return k

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.map_pieces(job, 2, "test") == [0, 1]
    assert [(w.category, str(w.message)) for w in caught] == [
        (CalibrationWarning, "piece 0"), (CalibrationWarning, "piece 1")]
    assert caught[1].filename == __file__  # where the worker's warning was issued


@needs_two_cpus
def test_worker_warnings_follow_the_callers_filters():
    def job(k: int) -> None:
        warnings.warn(f"piece {k}", CalibrationWarning)

    with warnings.catch_warnings():
        warnings.simplefilter("error", CalibrationWarning)
        with pytest.raises(CalibrationWarning, match="piece 0"):
            parallel.map_pieces(job, 2, "test")
        warnings.simplefilter("ignore", CalibrationWarning)
        with warnings.catch_warnings(record=True) as caught:
            parallel.map_pieces(job, 2, "test")
    assert caught == []


@needs_two_cpus
@pytest.mark.parametrize("failing", [(0, 1), (1,)])
def test_the_first_failing_piece_is_raised_and_no_worker_is_left(failing):
    def job(k: int) -> int:
        if k in failing:
            raise ValueError(f"piece {k} failed")
        return k

    with pytest.raises(ValueError, match=f"^piece {failing[0]} failed$"):
        parallel.map_pieces(job, 2, "test")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_dead_worker_warnings_are_dropped_and_it_is_worker_died():
    caller = os.getpid()

    def job(k: int) -> None:
        warnings.warn(f"piece {k}", CalibrationWarning)
        if os.getpid() != caller:
            os._exit(1)

    with warnings.catch_warnings(record=True) as caught, pytest.raises(WorkerDied) as err:
        warnings.simplefilter("always")
        parallel.map_pieces(job, 2, "test")
    assert str(err.value) == "test: a worker process died"
    assert [str(w.message) for w in caught] == ["piece 0"]


@needs_two_cpus
def test_worker_killed_while_sending_its_outcome_is_worker_died(tmp_path):
    # an outcome larger than a pipe holds keeps the worker in its write until
    # the caller reads, which the caller does only after its own piece
    sending = tmp_path / "pid"

    def job(k: int):
        if k == 1:
            sending.write_text(str(os.getpid()))
            return b"x" * (10 << 20)
        deadline = time.monotonic() + 30
        while not (sending.exists() and sending.read_text()) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)
        os.kill(int(sending.read_text()), signal.SIGKILL)

    with pytest.raises(WorkerDied, match="^test: a worker process died$"):
        parallel.map_pieces(job, 2, "test")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_only_parallel_forks_or_pins_cpus():
    # one fork mechanism: every worker comes from parallel.ForkPool
    names = {"fork", "sched_setaffinity"}
    users = set()
    for path in Path(parallel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.ImportFrom)
                    and names & {alias.name for alias in node.names}):
                users.add(path.name)
    assert users == {"parallel.py"}
