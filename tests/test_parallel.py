import os
import warnings

import pytest

from gustuq import parallel
from gustuq.errors import CalibrationWarning, WorkerDied

needs_two_cpus = pytest.mark.skipif(parallel.available_cpus() < 2,
                                    reason="needs two CPUs to fork a worker")


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
