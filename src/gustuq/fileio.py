"""Atomic file writing helpers, the one CSV writer and the one JSON reader.

All pipeline outputs go through a temp-file-plus-rename so a crashed run
never leaves a partially written file behind.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import parallel
from .errors import UsageError

# Rows the CSV reader converts, and the writer formats, per numpy call per
# column: large enough that the per-block cost vanishes, small enough that a
# block's text stays well under the arrays of a bench-size file.
BLOCK_ROWS = 1024
# The fewest rows of a range that the reader or writer hands to a forked
# worker: a file forks only from twice as many rows.
RANGE_ROWS = 4096

_NEEDS_QUOTES = (",", '"', "\r", "\n")


@contextmanager
def gc_paused():
    """Run the body with the cyclic garbage collector paused, and restore the
    caller's setting on every exit. ``@gc_paused()`` pauses it for each call
    of the function it decorates.

    The CSV row loops allocate a list or tuple of ``str`` per row, which can
    form no cycle: reference counting frees each one, and a GC pass over them
    would find nothing to collect. This is the one place that turns the GC
    off or on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


def read_json(path, what: str):
    """The JSON value in ``path``. Invalid JSON, or a key repeated within one
    object (``json`` would keep its last value), is a one-line ``UsageError``
    that starts with ``what``."""

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise UsageError(f"{what}: repeated key {key!r}")
            obj[key] = value
        return obj

    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{what}: invalid JSON ({exc})") from None


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
    [start, stop) of ``column``; only text, and the blanks of a masked
    column, may need quoting."""
    if isinstance(column, np.ma.MaskedArray):
        render, _ = _renderer(column.data)
        masked = np.ma.getmaskarray(column)

        def blanked(start, stop):
            texts = render(start, stop)
            for k in np.flatnonzero(masked[start:stop]).tolist():
                texts[k] = ""
            return texts
        return blanked, True
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


@contextmanager
def _sibling_temps(path: Path, n: int):
    """``n`` empty temp files next to ``path``, removed on leaving."""
    names = []
    try:
        for _ in range(n):
            fd, name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            os.close(fd)
            names.append(name)
        yield names
    finally:
        for name in names:
            os.unlink(name)


@gc_paused()
def _write_rows(fh, renderers, lone: bool, start: int, stop: int) -> None:
    """Format rows [start, stop) and write them ``BLOCK_ROWS`` at a time,
    with the GC paused."""
    for block in range(start, stop, BLOCK_ROWS):
        end = min(block + BLOCK_ROWS, stop)
        texts = []
        for render, is_text in renderers:
            cells = render(block, end)
            texts.append(_quoted(cells, lone) if is_text else cells)
        fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")


def write_csv(path, header: list[str], *columns) -> None:
    """The one CSV writer: ``header`` and one column per header name.

    A column is a 1-D float, integer, ``datetime64[s]`` or str array, a
    ``numpy.ma.MaskedArray`` of one of these, or a list of str. Floats are
    written as ``fmt`` writes them, timestamps as ``YYYY-MM-DDTHH:MM:SSZ``,
    text as is and masked cells as empty, with csv's minimal quoting where a
    value needs it. Rows are formatted and written ``BLOCK_ROWS`` at
    a time, with ``\\r\\n`` line ends: the same bytes as ``csv.writer``.

    The rows are cut into ranges of at least ``RANGE_ROWS`` as
    ``parallel.cut`` cuts them. The caller writes the first range into the
    output's temp file while forked workers each write one of the others
    into a temp file of their own, and the caller appends those files in
    order before the rename. A row's text
    depends on its values alone, so the bytes do not depend on the cut.
    """
    if len(columns) != len(header):
        raise UsageError(f"write_csv: {len(header)} header names but {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise UsageError("write_csv: columns differ in length")
    renderers = [_renderer(c) for c in columns]
    lone = len(columns) == 1
    bounds = parallel.cut(n_rows, RANGE_ROWS)
    path = Path(path)
    with atomic_open(path) as fh, _sibling_temps(path, len(bounds) - 2) as parts:
        fh.write(",".join(_quoted(list(header), lone)) + "\r\n")
        fh.flush()  # before the fork, so no worker's copy of ``fh`` holds unwritten text

        def write_range(k: int) -> None:
            if k == 0:
                _write_rows(fh, renderers, lone, bounds[0], bounds[1])
                return
            with open(parts[k - 1], "w", newline="") as out:
                _write_rows(out, renderers, lone, bounds[k], bounds[k + 1])

        parallel.map_pieces(write_range, len(bounds) - 1, str(path))
        fh.flush()
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)
