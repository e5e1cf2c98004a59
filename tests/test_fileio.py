import ast
import csv
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq import data, fileio, parallel
from gustuq.data import format_timestamp
from gustuq.errors import IngestError, UsageError, WorkerDied
from gustuq.fileio import BLOCK_ROWS, RANGE_ROWS, fmt, write_csv

from markers import needs_two_cpus

ROW_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2e-308, 1e16, 0.1, -1.5e300]
# Text that needs no quoting, and text that does.
PLAIN = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                max_size=6)
QUOTED = st.builds(
    lambda head, mark, tail: head + mark + tail,
    PLAIN, st.sampled_from([",", '"', "\r", "\n", "\r\n", '""', ' ", ']), PLAIN,
)


def reference_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@st.composite
def text_column(draw, n: int):
    """n texts drawn from small pools; quote-needing values only in the
    blocks drawn to hold them."""
    plain = draw(st.lists(PLAIN, min_size=1, max_size=8))
    plain += ["", " lead", "trail ", "é ünï 雨"]
    quoted = draw(st.lists(QUOTED, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = [plain[i] for i in rng.integers(len(plain), size=n).tolist()]
    n_blocks = -(-n // BLOCK_ROWS)
    for block in range(n_blocks):
        if draw(st.booleans()):
            start, stop = block * BLOCK_ROWS, min(n, (block + 1) * BLOCK_ROWS)
            for k in rng.integers(start, stop, size=3).tolist():
                texts[k] = quoted[k % len(quoted)]
    return texts


def masked(draw, rng, values: np.ndarray) -> np.ma.MaskedArray:
    """``values`` with a mask drawn block by block: each block is unmasked,
    partly masked or fully masked."""
    mask = np.zeros(len(values), dtype=bool)
    for start in range(0, len(values), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(values))
        mask[start:stop] = rng.uniform(size=stop - start) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    return np.ma.array(values, mask=mask)


def cells(column: np.ma.MaskedArray, render) -> list:
    """What csv.writer is given for ``column``: "" where masked."""
    mask = np.ma.getmaskarray(column).tolist()
    return ["" if m else render(v) for v, m in zip(column.data.tolist(), mask)]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from(ROW_COUNTS), as_array=st.booleans())
def test_write_csv_matches_csv_writer(tmp_path_factory, data, n, as_array):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    texts = data.draw(text_column(n))
    pool = np.array(SPECIAL_FLOATS + data.draw(st.lists(st.floats(), max_size=6)))
    floats = pool[rng.integers(len(pool), size=n)]
    ints = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=n, endpoint=True)
    seconds = rng.integers(-62_000_000_000, 250_000_000_000, size=n)  # years 0 to 9892
    times = seconds.astype("datetime64[s]")
    ids = np.array(texts, dtype=str) if as_array else texts
    gaps = [masked(data.draw, rng, c) for c in (floats, ints, np.array(texts, dtype=str))]
    header = ["id", "x, y", "count", "time", 'say "hi"', "x?", "count?", "text?"]
    columns = [ids, floats, ints, times, texts, *gaps]
    rows = [
        [str(t), fmt(x), i, format_timestamp(s), u, *rest]
        for t, x, i, s, u, *rest in zip(
            ids, floats.tolist(), ints.tolist(), times, texts,
            *(cells(c, render) for c, render in zip(gaps, (fmt, str, str))))
    ]
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "got.csv", header, *columns)
    assert (folder / "got.csv").read_bytes() == reference_bytes(folder / "want.csv", header, rows)


@settings(max_examples=10, deadline=None)
@given(texts=st.lists(st.one_of(PLAIN, QUOTED), max_size=20))
def test_single_text_column_matches_csv_writer(tmp_path_factory, texts):
    # csv.writer quotes a row's only field when it is empty
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "got.csv", ["only"], texts)
    want = reference_bytes(folder / "want.csv", ["only"], [[t] for t in texts])
    assert (folder / "got.csv").read_bytes() == want


@settings(max_examples=10, deadline=None)
@given(data=st.data(), n=st.sampled_from(ROW_COUNTS), kind=st.sampled_from("fiU"))
def test_single_masked_column_matches_csv_writer(tmp_path_factory, data, n, kind):
    # a masked cell that is a row's only field is written ""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = (rng.normal(size=n) * 1e3).astype(kind) if kind != "U" else np.array(
        data.draw(text_column(n)), dtype=str)
    column = masked(data.draw, rng, values)
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "got.csv", ["only"], column)
    render = fmt if kind == "f" else str
    want = reference_bytes(folder / "want.csv", ["only"], [[c] for c in cells(column, render)])
    assert (folder / "got.csv").read_bytes() == want


@pytest.mark.parametrize("lone", [True, False])
def test_fully_masked_block_matches_csv_writer(tmp_path, lone):
    n = 2 * BLOCK_ROWS + 1
    mask = np.zeros(n, dtype=bool)
    mask[:BLOCK_ROWS] = True  # the whole first block
    mask[BLOCK_ROWS::3] = True
    column = np.ma.array(np.arange(n) / 8, mask=mask)
    blanks = cells(column, fmt)
    if lone:
        header, columns, rows = ["x"], [column], [[c] for c in blanks]
    else:
        header, columns, rows = ["k", "x"], [np.arange(n), column], list(zip(range(n), blanks))
    write_csv(tmp_path / "got.csv", header, *columns)
    assert (tmp_path / "got.csv").read_bytes() == reference_bytes(tmp_path / "want.csv", header, rows)


@pytest.mark.parametrize("column", [
    np.array([True, False]),
    np.ma.array([True, False], mask=[False, True]),
    np.array([1.0, 2.0], dtype=object),
    np.array([b"a", b"b"]),
    np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
    np.array([1 + 2j, 3j]),
    np.zeros((2, 1)),
    ["a", 1],
    ("a", "b"),
])
def test_write_csv_refuses_unsupported_columns(tmp_path, column):
    with pytest.raises(UsageError, match="write_csv"):
        write_csv(tmp_path / "out.csv", ["a", "b"], np.arange(2), column)
    assert not list(tmp_path.iterdir())


def test_write_csv_refuses_mismatched_shapes(tmp_path):
    with pytest.raises(UsageError, match="2 header names but 1 columns"):
        write_csv(tmp_path / "out.csv", ["a", "b"], np.arange(2))
    with pytest.raises(UsageError, match="differ in length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], np.arange(2), np.arange(3.0))
    assert not list(tmp_path.iterdir())


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_setting(request):
    """The cyclic GC turned on or off for the test, and restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("outcome", ["read", "malformed row", "not utf-8"])
def test_read_csv_leaves_the_gc_setting_as_it_found_it(tmp_path, gc_setting, outcome):
    # The undecodable byte sits past the reader's first 8 KiB of text, so
    # that it is met inside the row loop, not while the header is read.
    last = {"read": b"1.5", "malformed row": b"fast", "not utf-8": b"\xff"}[outcome]
    path = tmp_path / "rows.csv"
    path.write_bytes(b"id,x\r\n" + b"".join(b"r%d,2.5\r\n" % i for i in range(2000))
                     + b"last," + last + b"\r\n")
    kinds = {"id": data.id_column, "x": data.float_column}
    if outcome == "read":
        assert len(data.read_csv(path, kinds)["x"]) == 2001
    else:
        with pytest.raises(IngestError, match="malformed rows" if outcome != "not utf-8"
                           else "not UTF-8"):
            data.read_csv(path, kinds)
    assert gc.isenabled() is gc_setting


@pytest.mark.parametrize("outcome", ["written", "failed write"])
def test_write_csv_leaves_the_gc_setting_as_it_found_it(tmp_path, gc_setting, outcome):
    texts = [f"t{i}" for i in range(3 * BLOCK_ROWS)]
    if outcome == "written":
        write_csv(tmp_path / "out.csv", ["t"], texts)
    else:
        texts[BLOCK_ROWS + 5] = 7  # met in the caller's range, after its first block
        with pytest.raises(UsageError, match="only str"):
            write_csv(tmp_path / "out.csv", ["t"], texts)
    assert gc.isenabled() is gc_setting


def gc_passes(run) -> list[int]:
    """The generations of the collections that ran during ``run()``, with the
    GC on and its counts reset before it."""
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        run()
    finally:
        gc.callbacks.remove(record)
        if not was:
            gc.disable()
    return passes


def test_row_loops_run_no_gc_pass(tmp_path, monkeypatch):
    # On one CPU the whole file goes through the caller's row loops: 20,000
    # rows allocate as many lists and tuples, none of which a GC pass can
    # free.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    n = 20_000
    path = tmp_path / "rows.csv"
    ids = np.array([f"id{i}" for i in range(n)])
    x = np.arange(n) / 7
    assert gc_passes(lambda: write_csv(path, ["id", "x"], ids, x)) == []
    table = {}
    kinds = {"id": data.id_column, "x": data.float_column}
    assert gc_passes(lambda: table.update(data.read_csv(path, kinds))) == []
    assert table["x"].tobytes() == x.tobytes()


def test_only_gc_paused_toggles_the_gc():
    # one switch for the cyclic GC: fileio.gc_paused, which restores it
    names = {"disable", "enable", "freeze"}
    users = set()
    for path in Path(fileio.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.ImportFrom)
                    and names & {alias.name for alias in node.names}):
                users.add((path.name, owner.get(node)))
    assert users == {("fileio.py", "gc_paused")}


# Writes two files of 3 ranges and more with write_csv, reads them back with
# read_csv, and saves the arrays read; prints how many times it forked.
SPLIT_SCRIPT = """
import os, sys
import numpy as np
from gustuq import data, fileio

forks = []
os.register_at_fork(before=lambda: forks.append(1))
out = sys.argv[1]
rng = np.random.default_rng(5)
n = 3 * fileio.RANGE_ROWS + 17
ids = np.array([f"id{i}" for i in range(n)])
floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
floats[::97] = np.nan
gaps = np.ma.masked_where(rng.uniform(size=n) < 0.2, rng.standard_normal(n))
texts = rng.choice(["plain", "a, comma", 'say "hi"', "two\\r\\nlines", ""], n).tolist()
fileio.write_csv(f"{out}/plain.csv", ["id", "x", "gap"], ids, floats, gaps)
fileio.write_csv(f"{out}/quoted.csv", ["id", "x", "text"], ids, floats, texts)
blank_nan = lambda t: np.fromiter((float(v) if v else np.nan for v in t), float, len(t))
as_text = lambda t: np.asarray(t, dtype=str)
plain = data.read_csv(f"{out}/plain.csv", {"id": data.id_column, "x": data.float_column,
                                           "gap": blank_nan}, key=("id",))
quoted = data.read_csv(f"{out}/quoted.csv", {"id": data.id_column, "x": data.float_column,
                                             "text": as_text}, key=("id",))
np.savez(f"{out}/plain.npz", **plain)
np.savez(f"{out}/quoted.npz", **quoted)
print(len(forks))
"""


def test_split_write_and_read_give_the_bytes_and_arrays_of_one_cpu(tmp_path):
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    first_cpu = min(os.sched_getaffinity(0))

    def run(name, one_cpu):
        out = tmp_path / name
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", SPLIT_SCRIPT, str(out)], env=env, capture_output=True,
            text=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, {first_cpu})) if one_cpu else None)
        assert done.returncode == 0, done.stderr
        files = {f.name: f.read_bytes() for f in out.glob("*.csv")}
        arrays = {}
        for f in out.glob("*.npz"):
            with np.load(f) as saved:
                arrays.update({f"{f.stem}.{k}": saved[k] for k in saved.files})
        return int(done.stdout), files, arrays

    forks, files, arrays = run("cpus", one_cpu=False)
    one_forks, one_files, one_arrays = run("cpu1", one_cpu=True)
    # the write of each file and the read of the plain one split
    assert one_forks == 0 and forks == (3 if parallel.available_cpus() > 1 else 0)
    assert files == one_files and len(files) == 2
    assert b'"say ""hi"""' in files["quoted.csv"] and b",\r\n" in files["plain.csv"]
    assert arrays.keys() == one_arrays.keys()
    for name, array in arrays.items():
        assert array.dtype == one_arrays[name].dtype, name
        assert array.tobytes() == one_arrays[name].tobytes(), name  # float bits too
    assert np.isnan(arrays["plain.gap"]).any()


def write_three_ranges(path) -> None:
    n = 3 * RANGE_ROWS
    write_csv(path, ["k", "x"], np.arange(n), np.arange(n) / 7)


@needs_two_cpus
@pytest.mark.parametrize("who", ["worker", "caller"])
def test_failed_piece_leaves_no_file_and_no_process(tmp_path, monkeypatch, who):
    caller = os.getpid()
    write_rows = fileio._write_rows

    def failing(*args):
        if os.getpid() != caller:
            os._exit(1)  # the worker dies
        if who == "caller":
            raise RuntimeError("the caller's piece failed")
        return write_rows(*args)

    monkeypatch.setattr(fileio, "_write_rows", failing)
    path = tmp_path / "out.csv"
    if who == "worker":
        with pytest.raises(WorkerDied) as err:
            write_three_ranges(path)
        assert str(err.value) == f"{path}: a worker process died"
    else:
        with pytest.raises(RuntimeError, match="the caller's piece failed"):
            write_three_ranges(path)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
