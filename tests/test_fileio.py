import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq.data import format_timestamp
from gustuq.errors import UsageError
from gustuq.fileio import BLOCK_ROWS, fmt, write_csv

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
    header = ["id", "x, y", "count", "time", 'say "hi"']
    columns = [ids, floats, ints, times, texts]
    rows = [
        [str(t), fmt(x), i, format_timestamp(s), u]
        for t, x, i, s, u in zip(ids, floats.tolist(), ints.tolist(), times, texts)
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


@pytest.mark.parametrize("column", [
    np.array([True, False]),
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
