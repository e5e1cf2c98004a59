"""Pytest markers that several test modules share."""

import pytest

from gustuq import parallel

needs_two_cpus = pytest.mark.skipif(parallel.available_cpus() < 2,
                                    reason="needs two CPUs to fork a worker")
