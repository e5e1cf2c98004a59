"""Atomic file writing helpers.

All pipeline outputs go through a temp-file-plus-rename so a crashed run
never leaves a partially written file behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file next to ``path`` and rename it over on clean exit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, newline="" if "b" not in mode else None) as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_json(path, payload) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def fmt(value) -> str:
    """Render a float for delimited output; round-trips exactly via repr."""
    return repr(float(value))


def fmt_column(values) -> list[str]:
    """``fmt`` over a whole float column."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))
