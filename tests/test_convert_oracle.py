"""convert_csv against the row-at-a-time loop it replaced.

convert_csv parses a block of rows a column at a time. The oracle below is the
per-row, per-cell loop it used to run; both must give identical file bytes or
an identical StoreError text on every input.
"""
import csv
import functools
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from subjack import store
from subjack.store import StoreError, convert_csv, signed_log, write_blocks

NAMES = ["a", "b", "c", "d"]
GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["1_000", "-0", "0", "-0.0", "1e-400", "١٢", " 2.5 ", "+7", "1e308", ".5", "-1",
         # padding str.strip() removes; float() skips all but U+001C, which it rejects
         "\u30003.5\u3000", "\xa0-2\xa0", "\x1c7\x1c", "\u20031e3\u2003"]
    ),
)
EMPTY = st.sampled_from(["", " ", "\t", "  \t ", "\u3000", "\xa0", "\x1c", "\u2003"])
BAD = st.sampled_from(
    ["hello", "nan", "inf", "-inf", "NaN", "-Infinity", "1e999", "1,5", "1__0", "0x10"]
)
# cells of unselected columns: commas, quotes and newlines force quoting
JUNK = st.text(alphabet=' ,"\n\rx1', max_size=5)


def _oracle_blocks(csv_path, reader, positions, apply_log):
    """Yield the selected columns of complete CSV rows as float64 blocks."""
    buf = []
    kept = 0
    for row_num, row in enumerate(reader, start=1):
        values = []
        for pos in positions:
            text = row[pos].strip() if pos < len(row) else ""
            if text == "":
                values = None
                break
            try:
                value = float(text)
            except ValueError:
                raise StoreError(
                    f"{csv_path}: unparseable value {text!r} at row {row_num}"
                ) from None
            if not math.isfinite(value):
                raise StoreError(f"{csv_path}: non-finite value {text!r} at row {row_num}")
            values.append(signed_log(value) if apply_log else value)
        if values is None:
            continue
        buf.append(values)
        kept += 1
        if len(buf) >= 65536:
            yield np.asarray(buf)
            buf = []
    if kept == 0:
        raise StoreError(f"{csv_path}: zero retained rows")
    if buf:
        yield np.asarray(buf)


def _oracle_convert(csv_path, columns, transform, out_path):
    with open(csv_path, "r", newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        positions = [names.index(name) for name in columns]
        blocks = _oracle_blocks(csv_path, reader, positions, transform == "signed_log")
        return write_blocks(out_path, len(columns), blocks)


def _outcome(convert, csv_path, columns, transform, out_path):
    try:
        header = convert(csv_path, columns, transform, out_path)
    except (StoreError, csv.Error) as exc:
        assert not out_path.exists()
        return type(exc).__name__, str(exc)
    return header, out_path.read_bytes()


def _assert_same_as_oracle(tmp, text, columns, transform):
    csv_path = tmp / "in.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    got = _outcome(convert_csv, csv_path, columns, transform, tmp / "new.sjds")
    want = _outcome(_oracle_convert, csv_path, columns, transform, tmp / "old.sjds")
    assert got == want


def _plant(row, positions, j, bad, empty_before):
    """Put bad in selected column j; optionally empty an earlier selected cell."""
    need = max(positions) + 1
    row.extend("1" for _ in range(need - len(row)))
    if empty_before is not None and j > 0:
        row[positions[empty_before % j]] = ""
    row[positions[j]] = bad


@st.composite
def csv_inputs(draw):
    columns = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    positions = [NAMES.index(name) for name in columns]
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        width = draw(st.sampled_from([len(NAMES)] * 6 + [0, 1, 2, 3]))  # some rows short
        rows.append([
            draw(st.one_of(GOOD, GOOD, GOOD, EMPTY)) if pos in positions else draw(JUNK)
            for pos in range(width)
        ])
    if rows:
        plants = st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(columns) - 1), BAD,
            st.none() | st.integers(0, 3),
        )
        for i, j, bad, empty_before in draw(st.lists(plants, max_size=3)):
            _plant(rows[i], positions, j, bad, empty_before)
    out = io.StringIO()
    csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))).writerows(
        [NAMES] + rows
    )
    return out.getvalue(), columns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=csv_inputs(),
    transform=st.sampled_from(["none", "signed_log"]),
    block_rows=st.sampled_from([1, 2, 5, 65536]),
)
def test_convert_matches_row_loop(tmp_path_factory, case, transform, block_rows):
    text, columns = case
    # small blocks put block boundaries, and blocks with nothing kept, into
    # these short files; the full-size block is covered below
    with mock.patch.object(store, "_BLOCK_ROWS", block_rows):
        _assert_same_as_oracle(tmp_path_factory.mktemp("csv"), text, columns, transform)


_BIG_ROWS = 140_000  # three blocks of 65536 rows


@functools.cache
def _big_lines():
    rng = np.random.default_rng(11)
    cells = rng.integers(-5000, 5000, size=(_BIG_ROWS, 3)).astype(str).tolist()
    for i in rng.integers(0, _BIG_ROWS, size=_BIG_ROWS // 50).tolist():
        cells[i][int(rng.integers(0, 3))] = ""
    return tuple(f"{a},{b},{c}\r\n" for a, b, c in cells)


_EDGES = [0, 65534, 65535, 65536, 65537, 131071, 131072, _BIG_ROWS - 1]


# no shrink phase, for the reason given at test_whitespace_only_cells_across_full_blocks
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    plants=st.lists(
        st.tuples(st.sampled_from(_EDGES) | st.integers(0, _BIG_ROWS - 1),
                  st.integers(0, 1), BAD, st.booleans()),
        max_size=2,
    ),
    drop_first_block=st.booleans(),
    transform=st.sampled_from(["none", "signed_log"]),
)
def test_convert_matches_row_loop_across_full_blocks(tmp_path_factory, plants, drop_first_block,
                                                     transform):
    lines = list(_big_lines())
    if drop_first_block:
        lines[:65536] = [",1,2\r\n"] * 65536
    for i, j, bad, empty_before in plants:
        _replant(lines, i, j, bad, empty_before)
    text = "x,y,z\r\n" + "".join(lines)
    _assert_same_as_oracle(tmp_path_factory.mktemp("big"), text, ["x", "z"], transform)


def _replant(lines, i, j, cell, empty_before):
    """Put cell in selected column j (of x, z) of CSV line i, as _plant does."""
    row = next(csv.reader([lines[i]]))
    _plant(row, [0, 2], j, cell, 0 if empty_before else None)
    out = io.StringIO()
    csv.writer(out).writerow(row)
    lines[i] = out.getvalue()


# no shrink phase: each shrink step converts 140,000 rows twice, and a failing
# example already names its planted rows
@settings(max_examples=4, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    blanks=st.lists(
        st.tuples(st.sampled_from(_EDGES), st.integers(0, 1), st.sampled_from([" ", "\t"])),
        min_size=1, max_size=4,
    ),
    bad=st.none() | st.tuples(st.sampled_from(_EDGES) | st.integers(0, _BIG_ROWS - 1),
                              st.integers(0, 1), BAD),
    transform=st.sampled_from(["none", "signed_log"]),
)
def test_whitespace_only_cells_across_full_blocks(tmp_path_factory, blanks, bad, transform):
    # a whitespace-only cell makes float() fail on its column, so that column
    # of the 65536-row block is stripped and parsed again
    lines = list(_big_lines())
    for i, j, blank in blanks:
        _replant(lines, i, j, blank, False)
    if bad is not None:
        _replant(lines, *bad, False)
    text = "x,y,z\r\n" + "".join(lines)
    _assert_same_as_oracle(tmp_path_factory.mktemp("blank"), text, ["x", "z"], transform)


def test_convert_matches_row_loop_on_distinct_reals(tmp_path):
    # one full block and a short one of repr(float) cells, no magnitude
    # repeated, so signed_log's np.unique gives back a table as long as a block
    rows = 70_000
    rng = np.random.default_rng(12)
    mags = np.unique(np.exp(rng.uniform(-40.0, 40.0, size=3 * rows)))
    cells = rng.permutation(mags)[: 2 * rows].reshape(rows, 2)
    cells *= rng.choice([-1.0, 1.0], size=cells.shape)
    text = "x,y\r\n" + "".join(f"{a!r},{b!r}\r\n" for a, b in cells.tolist())
    _assert_same_as_oracle(tmp_path, text, ["x", "y"], "signed_log")


_HUGE = "z" * (csv.field_size_limit() + 1)  # the reader fails on this field


@pytest.mark.parametrize("text", [
    f"x,y\r\n1,2\r\nhello,3\r\n4,{_HUGE}\r\n",   # bad cell first: StoreError
    f"x,y\r\n1,2\r\n4,{_HUGE}\r\nhello,3\r\n",   # reader fails first: csv.Error
    f"x,y\r\n1,2\r\n4,{_HUGE}\r\n",
])
def test_reader_failure_after_rows_of_a_block(tmp_path, text):
    _assert_same_as_oracle(tmp_path, text, ["x"], "none")
