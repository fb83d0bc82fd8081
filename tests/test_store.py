import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subjack import store
from subjack.store import (
    HEADER_SIZE,
    StoreError,
    convert_csv,
    open_dataset,
    signed_log,
    write_blocks,
    write_matrix,
)


def test_write_then_read_all_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((1000, 8)) * 10.0 ** rng.integers(-3, 4, size=(1000, 8))
    path = tmp_path / "m.sjds"
    header = write_matrix(matrix, path)
    assert (header.row_count, header.col_count) == (1000, 8)
    handle = open_dataset(path)
    batch = handle.read_records(np.arange(1000))
    assert batch.rows.tobytes() == matrix.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_round_trip_property(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("rt") / "m.sjds"
    write_matrix(matrix, path)
    got = open_dataset(path).read_records(np.arange(matrix.shape[0])).rows
    assert got.tobytes() == matrix.tobytes()


def test_duplicate_indices_allowed(small_dataset):
    handle, matrix = small_dataset
    batch = handle.read_records([0, 0, 0])
    assert batch.rows.shape == (3, 3)
    for row in batch.rows:
        np.testing.assert_array_equal(row, matrix[0])


def test_boundary_row(small_dataset):
    handle, matrix = small_dataset
    batch = handle.read_records([handle.row_count - 1])
    np.testing.assert_array_equal(batch.rows[0], matrix[-1])


def test_shuffled_read_matches_permuted_matrix(small_dataset):
    handle, matrix = small_dataset
    perm = np.random.default_rng(5).permutation(handle.row_count)
    batch = handle.read_records(perm)
    np.testing.assert_array_equal(batch.rows, matrix[perm])


def test_reads_are_pure(small_dataset):
    handle, _ = small_dataset
    first = handle.read_records([3, 1, 4, 1, 5])
    second = handle.read_records([3, 1, 4, 1, 5])
    assert first.rows.tobytes() == second.rows.tobytes()


def test_out_of_range_index(small_dataset):
    handle, _ = small_dataset
    with pytest.raises(IndexError, match="out of range"):
        handle.read_records([handle.row_count])
    with pytest.raises(IndexError):
        handle.read_records([-1])


def test_any_integer_dtype_reads_the_same_rows(small_dataset):
    handle, _ = small_dataset
    want = handle.read_records([3, 1, 99]).rows.tobytes()
    for dtype in (np.uint8, np.int16, np.uint32, np.int64, np.uint64):
        assert handle.read_records(np.array([3, 1, 99], dtype=dtype)).rows.tobytes() == want
    with pytest.raises(IndexError, match=re.escape("row index 200 out of range [0, 100)")):
        handle.read_records(np.array([200], dtype=np.uint8))


def test_empty_indices_rejected(small_dataset):
    handle, _ = small_dataset
    with pytest.raises(ValueError):
        handle.read_records([])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(1, 200),
    n_cols=st.integers(1, 1000),
    size=st.integers(1, 10_000),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["random", "sorted", "reversed"]),
)
def test_gather_equals_memmap_fancy_indexing(tmp_path_factory, n_rows, n_cols, size, seed, order):
    n_cols = min(n_cols, 10**6 // size)  # at most 8 MB gathered
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    matrix = rng.standard_normal((n_rows, n_cols)) * scale
    path = tmp_path_factory.mktemp("gather") / "m.sjds"
    write_matrix(matrix, path)
    idx = rng.integers(0, n_rows, size=size)  # duplicates whenever size > n_rows
    idx[rng.integers(0, size)] = 0
    idx[rng.integers(0, size)] = n_rows - 1
    if order != "random":
        idx.sort()
        idx = idx[::-1].copy() if order == "reversed" else idx
    mapped = np.memmap(path, dtype="<f8", mode="r", offset=HEADER_SIZE, shape=(n_rows, n_cols))
    batch = open_dataset(path).read_records(idx)
    expected = np.array(mapped[idx], dtype=np.float64)
    assert type(batch.rows) is np.ndarray
    assert batch.rows.dtype == np.float64 and batch.rows.flags.c_contiguous
    assert batch.rows.shape == expected.shape
    assert batch.rows.tobytes() == expected.tobytes() == matrix[idx].tobytes()


@pytest.mark.parametrize("indices, error, text", [
    ([100], IndexError, "row index 100 out of range [0, 100)"),
    ([3, 250, -4], IndexError, "row index 250 out of range [0, 100)"),
    ([-1], IndexError, "row index -1 out of range [0, 100)"),
    ([0, -7, 1000], IndexError, "row index -7 out of range [0, 100)"),
    ([], ValueError, "indices must be a non-empty 1-d sequence"),
    ([[0, 1], [2, 3]], ValueError, "indices must be a non-empty 1-d sequence"),
    ([[0.5]], ValueError, "indices must be a non-empty 1-d sequence"),
    ([1.7], ValueError, "indices must be integers, got dtype float64"),
    ([250.0], ValueError, "indices must be integers, got dtype float64"),
    ([True, False], ValueError, "indices must be integers, got dtype bool"),
    (["1"], ValueError, "indices must be integers, got dtype <U1"),
])
def test_read_records_error_texts(small_dataset, indices, error, text):
    handle, _ = small_dataset
    with pytest.raises(error) as info:
        handle.read_records(indices)
    assert type(info.value) is error
    assert str(info.value) == text


def test_rows_past_2_to_the_32_read_back_bit_for_bit(huge_sparse_dataset):
    path, put = huge_sparse_dataset
    handle = open_dataset(path)
    n_rows = handle.row_count
    assert n_rows == 2**32 + 5
    rows = [0, 2**31, 2**32, n_rows - 1]
    values = [1.5, -5e-324, 3.0e300, math.pi]
    put(rows, values)
    got = handle.read_records(rows[::-1] + [1, 2**32 + 1]).rows
    assert got.tobytes() == np.array(values[::-1] + [0.0, 0.0]).reshape(-1, 1).tobytes()
    with pytest.raises(IndexError) as info:
        handle.read_records([0, n_rows])
    assert str(info.value) == f"row index {n_rows} out of range [0, {n_rows})"


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="reads the mapping's VmFlags from Linux's /proc/self/smaps")
def test_dataset_mapping_advises_random_access(tmp_path):
    path = _valid_file(tmp_path)
    handle = open_dataset(path)
    target = str(path.resolve())
    flags, in_target = [], False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):  # a mapping's first line
                in_target = line.split(maxsplit=5)[5:] == [target + "\n"]
            elif in_target and line.startswith("VmFlags:"):
                flags.append(line.split()[1:])
    assert handle.row_count == 100  # the handle, and so its mapping, is still alive
    assert len(flags) == 1
    assert "rr" in flags[0]  # VM_RAND_READ: madvise(MADV_RANDOM), no readahead


def _valid_file(tmp_path):
    path = tmp_path / "v.sjds"
    write_matrix(np.arange(200, dtype=float).reshape(100, 2), path)
    return path


def test_open_valid_header(tmp_path):
    handle = open_dataset(_valid_file(tmp_path))
    assert (handle.row_count, handle.col_count) == (100, 2)


@pytest.mark.parametrize("replacement", [np.zeros((50, 2)), np.full((100, 3), -1.0)],
                         ids=["shorter", "wider"])
def test_file_replaced_after_open_is_not_mapped(tmp_path, monkeypatch, replacement):
    # a writer renames another file onto the path right after the store opens it
    path, other = _valid_file(tmp_path), tmp_path / "other.sjds"
    write_matrix(replacement, other)

    def open_then_replace(*args, **kwargs):
        fh = open(*args, **kwargs)
        if other.exists():
            os.replace(other, path)
        return fh

    monkeypatch.setattr(store, "open", open_then_replace, raising=False)
    handle = open_dataset(path)
    assert (handle.row_count, handle.col_count) == (100, 2)
    rows = handle.read_records([0, 1, 99]).rows
    assert rows.tolist() == [[0.0, 1.0], [2.0, 3.0], [198.0, 199.0]]


def test_bad_magic_rejected(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(StoreError, match="not an SJDS file"):
        open_dataset(path)


def test_truncated_file_rejected(tmp_path):
    path = _valid_file(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(StoreError, match="length mismatch"):
        open_dataset(path)


def test_oversized_file_rejected(tmp_path):
    path = _valid_file(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(StoreError, match="length mismatch"):
        open_dataset(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[20] = 7
    path.write_bytes(raw)
    with pytest.raises(StoreError, match="unsupported dtype"):
        open_dataset(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "stub.sjds"
    path.write_bytes(b"SJDS" + b"\x00" * 6)
    with pytest.raises(StoreError, match="truncated header"):
        open_dataset(path)


def test_header_is_24_bytes(tmp_path):
    assert HEADER_SIZE == 24
    path = _valid_file(tmp_path)
    magic, version, n, p, dtype = struct.unpack("<4sIQIB3x", path.read_bytes()[:24])
    assert (magic, n, p, dtype) == (b"SJDS", 100, 2, 0)


def test_unsupported_version_rejected(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(raw)
    with pytest.raises(StoreError, match="unsupported format version 99"):
        open_dataset(path)


def test_writer_requires_rows(tmp_path):
    with pytest.raises(StoreError, match="no rows"):
        write_blocks(tmp_path / "empty.sjds", 2, [])
    assert not (tmp_path / "empty.sjds").exists()


def test_failed_write_keeps_old_file(tmp_path):
    path = _valid_file(tmp_path)
    before = path.read_bytes()

    def blocks():
        yield np.zeros((10, 2))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_blocks(path, 2, blocks())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_written_file_has_plain_open_mode(tmp_path):
    plain = tmp_path / "plain.bin"
    with open(plain, "wb"):
        pass
    path = tmp_path / "m.sjds"
    write_blocks(path, 1, [np.ones((3, 1))])
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_signed_log_known_values():
    assert signed_log(math.e) == pytest.approx(1.0, abs=1e-15)
    assert signed_log(-math.e) == pytest.approx(-1.0, abs=1e-15)
    assert signed_log(0.0) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_signed_log_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        signed_log(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_signed_log_is_odd(x):
    assert signed_log(-x) == -signed_log(x)


_LOG_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
              1e-310, -1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _log_inputs(draw):
    """Blocks of heavy repeats, of all-distinct values, and of edge values."""
    kind = draw(st.sampled_from(["repeats", "distinct", "edges"]))
    if kind == "repeats":
        pool = draw(st.lists(_FINITE, min_size=1, max_size=5))
        picks = st.sampled_from(pool)
        size = draw(st.integers(0, 300))
        # each pooled magnitude may appear with either sign
        return [draw(picks) * draw(st.sampled_from([1.0, -1.0])) for _ in range(size)]
    if kind == "distinct":
        return draw(st.lists(_FINITE, max_size=300, unique_by=abs))
    return draw(st.lists(st.sampled_from(_LOG_EDGES) | _FINITE, max_size=100))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(values=_log_inputs())
@example(values=_LOG_EDGES + [7.25, -7.25, 7.25, 3.0, -3.0] * 5)
def test_signed_log_array_matches_signed_log_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    want = np.array([signed_log(v) for v in values], dtype=np.float64)
    assert store._signed_log_array(x).tobytes() == want.tobytes()


def test_signed_log_array_on_distinct_reals_matches_math_log():
    # distinct magnitudes near 1, where a vectorised log is likeliest to
    # differ from libm's math.log in the last bit, and spread over binades
    rng = np.random.default_rng(5)
    x = np.unique(np.concatenate([rng.uniform(0.5, 2.0, size=32768),
                                  np.exp(rng.uniform(-700.0, 700.0, size=32768))]))
    x[::2] *= -1.0
    want = np.array([signed_log(v) for v in x.tolist()], dtype=np.float64)
    assert store._signed_log_array(x).tobytes() == want.tobytes()


def test_signed_log_array_follows_the_math_log_it_calls(monkeypatch):
    # a log one ulp above libm's is matched by nothing but math.log itself,
    # so a vectorised log fails here whatever kernel the CPU selects
    real_log = math.log

    def perturbed_log(x):
        return math.nextafter(real_log(x), math.inf)

    rng = np.random.default_rng(6)
    x = np.concatenate([rng.uniform(0.5, 2.0, size=4096), [1.0, -1.0, 7.25, -7.25, 0.0]])
    x[::3] *= -1.0
    want = np.array([0.0 if v == 0.0 else (1.0 if v > 0 else -1.0) * perturbed_log(abs(v))
                     for v in x.tolist()], dtype=np.float64)
    monkeypatch.setattr(store.math, "log", perturbed_log)
    assert store._signed_log_array(x).tobytes() == want.tobytes()


def _write_csv(path, text):
    path.write_text(text)
    return path


def test_convert_identity_ingestion(tmp_path):
    csv_path = _write_csv(tmp_path / "a.csv", "x,y\n1.5,9\n-2.25,9\n3.0,9\n")
    out = tmp_path / "a.sjds"
    header = convert_csv(csv_path, ["x"], "none", out)
    assert (header.row_count, header.col_count) == (3, 1)
    rows = open_dataset(out).read_records([0, 1, 2]).rows
    np.testing.assert_array_equal(rows[:, 0], [1.5, -2.25, 3.0])


def test_convert_five_columns_drops_missing_and_transforms(tmp_path):
    text = (
        "a,b,c,d,e,junk\n"
        "10,20,30,40,50,zzz\n"
        "1,2,,4,5,zzz\n"          # missing c: dropped
        "-3,6,7,8,9,zzz\n"
        "2,2,2,2,,zzz\n"          # missing e: dropped
    )
    csv_path = _write_csv(tmp_path / "air.csv", text)
    out = tmp_path / "air.sjds"
    header = convert_csv(csv_path, ["a", "b", "c", "d", "e"], "signed_log", out)
    assert (header.row_count, header.col_count) == (2, 5)
    rows = open_dataset(out).read_records([0, 1]).rows
    expected = [[signed_log(v) for v in (10, 20, 30, 40, 50)],
                [signed_log(v) for v in (-3, 6, 7, 8, 9)]]
    np.testing.assert_allclose(rows, expected, rtol=0, atol=0)


def test_convert_unparseable_value_names_row(tmp_path):
    csv_path = _write_csv(tmp_path / "bad.csv", "x\n1.0\nhello\n3.0\n")
    with pytest.raises(StoreError, match="unparseable value 'hello' at row 2"):
        convert_csv(csv_path, ["x"], "none", tmp_path / "bad.sjds")
    assert not (tmp_path / "bad.sjds").exists()


def test_convert_unknown_column(tmp_path):
    csv_path = _write_csv(tmp_path / "c.csv", "x,y\n1,2\n")
    with pytest.raises(StoreError, match="unknown column 'z'"):
        convert_csv(csv_path, ["z"], "none", tmp_path / "c.sjds")


def test_convert_zero_retained_rows(tmp_path):
    csv_path = _write_csv(tmp_path / "d.csv", "x,y\n,2\n,3\n")
    with pytest.raises(StoreError, match="zero retained rows"):
        convert_csv(csv_path, ["x"], "none", tmp_path / "d.sjds")


def test_convert_short_row_treated_as_missing(tmp_path):
    csv_path = _write_csv(tmp_path / "e.csv", "x,y\n1,2\n3\n5,6\n")
    header = convert_csv(csv_path, ["y"], "none", tmp_path / "e.sjds")
    assert header.row_count == 2


@pytest.mark.parametrize("text", [
    "x\n1.0\nhello\n",       # unparseable
    "x,y\n,2\n,3\n",          # zero retained rows
    "x\n1.0\nnan\n",          # non-finite
])
def test_failed_convert_keeps_old_file(tmp_path, text):
    csv_path = _write_csv(tmp_path / "in.csv", text)
    out = _valid_file(tmp_path)
    before = out.read_bytes()
    with pytest.raises(StoreError):
        convert_csv(csv_path, ["x"], "none", out)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", out.name]


@pytest.mark.parametrize("transform", ["none", "signed_log"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_convert_rejects_nonfinite(tmp_path, cell, transform):
    csv_path = _write_csv(tmp_path / "f.csv", f"x\n1.0\n2.0\n{cell}\n")
    with pytest.raises(StoreError, match=f"non-finite value '{cell}' at row 3"):
        convert_csv(csv_path, ["x"], transform, tmp_path / "f.sjds")
    assert not (tmp_path / "f.sjds").exists()


def test_convert_reads_utf8_under_a_posix_locale(tmp_path):
    # U+3000 is three bytes in UTF-8, which the POSIX locale's ASCII codec rejects
    csv_path = tmp_path / "wide.csv"
    csv_path.write_bytes("x,y\n\u30001.5\u3000,9\n-2\u3000,9\n".encode("utf-8"))
    path = [str(Path(store.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    posix = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "POSIX"}
    outs = {}
    for name, extra in [("default", {}), ("posix", posix)]:
        out = tmp_path / f"{name}.sjds"
        proc = subprocess.run(
            [sys.executable, "-m", "subjack.cli", "convert", "--csv", str(csv_path),
             "--columns", "x", "--out", str(out)],
            env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[name] = out.read_bytes()
    assert outs["posix"] == outs["default"]
    rows = open_dataset(tmp_path / "posix.sjds").read_records([0, 1]).rows
    np.testing.assert_array_equal(rows[:, 0], [1.5, -2.0])


def test_convert_missing_file(tmp_path):
    with pytest.raises(StoreError, match="cannot read CSV"):
        convert_csv(tmp_path / "nope.csv", ["x"], "none", tmp_path / "o.sjds")
