"""Atomic file writing helpers and the one CSV writer.

All pipeline outputs go through a temp-file-plus-rename so a crashed run
never leaves a partially written file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import UsageError

# Rows the CSV reader converts, and the writer formats, per numpy call per
# column: large enough that the per-block cost vanishes, small enough that a
# block's strings stay a few MB.
BLOCK_ROWS = 4096

_NEEDS_QUOTES = (",", '"', "\r", "\n")


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


def fmt(value) -> str:
    """Render a float for delimited output; round-trips exactly via repr."""
    return repr(float(value))


def _quoted(texts: list[str], lone: bool) -> list[str]:
    """csv QUOTE_MINIMAL over one block of a text column: a value holding a
    delimiter, quote or line break is wrapped in quotes with inner quotes
    doubled; so is an empty value that is a row's only field (``lone``)."""
    joined = "".join(texts)
    if not any(ch in joined for ch in _NEEDS_QUOTES) and not (lone and "" in texts):
        return texts
    return [
        '"' + t.replace('"', '""') + '"'
        if any(ch in t for ch in _NEEDS_QUOTES) or (lone and not t) else t
        for t in texts
    ]


def _renderer(column):
    """``(render, is_text)``: ``render(start, stop)`` gives the text of rows
    [start, stop) of ``column``; only text may need quoting."""
    if isinstance(column, list):
        def text(start, stop):
            block = column[start:stop]
            if not all(type(t) is str for t in block):
                raise UsageError("write_csv: a list column must hold only str")
            return block
        return text, True
    dtype = getattr(column, "dtype", None)
    if dtype is None or column.ndim != 1:
        raise UsageError("write_csv: each column must be a 1-D array or a list of str")
    if dtype.kind == "f":  # the same text as ``fmt``
        return lambda start, stop: list(map(repr, column[start:stop].tolist())), False
    if dtype.kind in "iu":
        return lambda start, stop: list(map(str, column[start:stop].tolist())), False
    if dtype == np.dtype("datetime64[s]"):  # as ``data.format_timestamp``
        return lambda start, stop: np.char.add(
            np.datetime_as_string(column[start:stop], unit="s"), "Z").tolist(), False
    if dtype.kind == "U":
        return lambda start, stop: column[start:stop].tolist(), True
    raise UsageError(f"write_csv: cannot write a column of dtype {dtype}")


def write_csv(path, header: list[str], *columns) -> None:
    """The one CSV writer: ``header`` and one column per header name.

    A column is a 1-D float, integer, ``datetime64[s]`` or str array, or a
    list of str. Floats are written as ``fmt`` writes them, timestamps as
    ``YYYY-MM-DDTHH:MM:SSZ`` and text as is, with csv's minimal quoting
    where a value needs it. Rows are formatted and written ``BLOCK_ROWS`` at
    a time, with ``\\r\\n`` line ends: the same bytes as ``csv.writer``.
    """
    if len(columns) != len(header):
        raise UsageError(f"write_csv: {len(header)} header names but {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise UsageError("write_csv: columns differ in length")
    renderers = [_renderer(c) for c in columns]
    lone = len(columns) == 1
    with atomic_open(path) as fh:
        fh.write(",".join(_quoted(list(header), lone)) + "\r\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            texts = []
            for render, is_text in renderers:
                block = render(start, stop)
                texts.append(_quoted(block, lone) if is_text else block)
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")
