"""Fixed-width binary dataset files with O(1) random row access.

File layout (little-endian):

    offset  size  field
    0       4     magic b"SJDS"
    4       4     format version (uint32)
    8       8     row count N (uint64)
    16      4     column count p (uint32)
    20      1     dtype code (uint8; 0 = IEEE float64)
    21      3     padding
    24      -     N*p float64 values, row-major

Row i starts at byte 24 + i*p*8, so any row is reachable with one seek.
Other versions and dtype codes are rejected on open. replacing, the one
policy for every file written (write_blocks' datasets, simulate's --out),
renames a finished temp file onto its target, so a failed write leaves the
target as it was, and a directory at the target fails before any write.

open_dataset checks and maps one descriptor, so a file renamed onto the path
meanwhile is never mapped unchecked. The map is read-only and advised random
access where the platform has madvise: each subsample reads n scattered rows,
and readahead on every page not yet cached would multiply that.

Reads and ingestion work in bulk. read_records checks its indices, then
gathers every requested row with one bounds-checked ``take`` on the mapped
array. convert_csv reads CSV rows a block at a time into per-column cell lists
and parses, checks and transforms a column at a time. Cells go to float()
unstripped: float() ignores the surrounding whitespace str.strip() removes,
or rejects the cell. A column of a block where float() fails (a
whitespace-only cell, padding of U+001C..U+001F, a bad cell) is stripped and
parsed again, and only a block still holding a bad cell is rescanned row
by row, to name the first one. signed_log runs math.log once per distinct
magnitude of a column block. Output bytes and error texts are those of a
row-by-row loop.
"""
from __future__ import annotations

import csv
import errno
import math
import mmap
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path

import numpy as np

MAGIC = b"SJDS"
FORMAT_VERSION = 1
DTYPE_FLOAT64 = 0

_HEADER_FMT = "<4sIQIB3x"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)
assert HEADER_SIZE == 24

_ROW_DTYPE = np.dtype("<f8")
_BLOCK_ROWS = 65536  # CSV rows converted per block


class StoreError(Exception):
    """A dataset file is malformed or cannot be ingested."""


@dataclass(frozen=True)
class DatasetHeader:
    row_count: int
    col_count: int

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT, MAGIC, FORMAT_VERSION, self.row_count, self.col_count, DTYPE_FLOAT64
        )


@dataclass(frozen=True)
class RecordBatch:
    """Rows pulled from a dataset."""

    rows: np.ndarray  # (n, p) float64


class DatasetHandle:
    """Read-only view of an open dataset's rows.

    Immutable after open; reads never touch file state, so one handle can be
    shared across threads.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows
        self.row_count, self.col_count = rows.shape

    def read_records(self, indices) -> RecordBatch:
        """Fetch the given rows, duplicates allowed, in the order requested.

        The indices are checked first (1-d, non-empty, of an integer dtype,
        within [0, row_count)), then gathered from the mapped rows with one
        bounds-checked ``take`` into a new float64 array, the only copy made.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must be a non-empty 1-d sequence")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= self.row_count:
            bad = idx[(idx < 0) | (idx >= self.row_count)][0]
            raise IndexError(f"row index {bad} out of range [0, {self.row_count})")
        return RecordBatch(np.asarray(self._rows.take(idx, axis=0), dtype=np.float64))


def open_dataset(path: str | Path) -> DatasetHandle:
    """Validate header and file length, then map the rows for random access.

    One descriptor gives the length (fstat), the header and the mapping, so
    the rows are those of the file checked even if path is replaced meanwhile.
    The handle's rows keep the mapping alive; it is unmapped with the handle.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = fh.read(HEADER_SIZE)
            if len(raw) < HEADER_SIZE:
                raise StoreError(f"{path}: truncated header ({len(raw)} bytes)")
            magic, version, n_rows, n_cols, dtype_code = struct.unpack(_HEADER_FMT, raw)
            if magic != MAGIC:
                raise StoreError(f"{path}: not an SJDS file (magic {magic!r})")
            if version != FORMAT_VERSION:
                raise StoreError(f"{path}: unsupported format version {version}")
            if dtype_code != DTYPE_FLOAT64:
                raise StoreError(f"{path}: unsupported dtype code {dtype_code}")
            if n_rows < 1 or n_cols < 1:
                raise StoreError(f"{path}: invalid shape ({n_rows} x {n_cols})")
            expected = HEADER_SIZE + n_rows * n_cols * _ROW_DTYPE.itemsize
            if size != expected:
                raise StoreError(
                    f"{path}: length mismatch (expected {expected} bytes, found {size})"
                )
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise StoreError(f"cannot open dataset: {exc}") from exc
    if hasattr(mmap, "MADV_RANDOM"):
        mapping.madvise(mmap.MADV_RANDOM)
    shape = (n_rows, n_cols)
    return DatasetHandle(np.ndarray(shape, _ROW_DTYPE, buffer=mapping, offset=HEADER_SIZE))


@contextmanager
def replacing(path: str | Path, mode: str):
    """Yield a new file under a temp name beside path, opened "x" + mode ("b", "t").

    The file is renamed onto path when the block completes; on any exception,
    KeyboardInterrupt included, it is removed and path is left as it was. A
    directory at path raises IsADirectoryError before the file is opened.
    """
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    # 50 characters (<= 200 bytes of UTF-8) keep the temp name legal wherever the
    # target's is; "x", not mkstemp, so the file gets the umask's mode, not 0600
    tmp = path.with_name(f".{path.name[:50]}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x" + mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def refuse_as_output(source: str | Path, source_stat: os.stat_result,
                     out_path: str | Path, kind: str) -> None:
    """Raise StoreError if out_path is the file source_stat describes, by that
    name or through any link; nothing at out_path is no clash."""
    try:
        same = os.path.samestat(source_stat, os.stat(out_path))
    except FileNotFoundError:  # nothing at out_path yet
        same = False
    if same:
        raise StoreError(f"{source}: the output path {out_path} is this {kind}")


def write_blocks(path: str | Path, col_count: int, blocks) -> DatasetHeader:
    """Write (m, col_count) row blocks to path through replacing, each block
    before the next is pulled."""
    if col_count < 1:
        raise ValueError("col_count must be >= 1")
    with replacing(path, "b") as fh:
        fh.write(DatasetHeader(row_count=0, col_count=col_count).pack())
        row_count = 0
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=_ROW_DTYPE)
            if arr.ndim != 2 or arr.shape[1] != col_count:
                raise ValueError(f"block must be 2-d with {col_count} columns")
            fh.write(arr)
            row_count += arr.shape[0]
            del block, arr  # free this block before the next is built
        if row_count < 1:
            raise StoreError("no rows written")
        header = DatasetHeader(row_count=row_count, col_count=col_count)
        fh.seek(0)
        fh.write(header.pack())
    return header


def write_matrix(rows, path: str | Path) -> DatasetHeader:
    """Write an in-memory (n, p) matrix as a dataset file."""
    arr = np.ascontiguousarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("rows must be a 2-d matrix")
    return write_blocks(path, arr.shape[1], [arr])


def signed_log(x: float) -> float:
    """sign(x) * log|x|, with 0 mapped to 0. Rejects non-finite input."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"signed_log requires finite input, got {x}")
    if x == 0.0:
        return 0.0
    mag = math.log(abs(x))
    return mag if x > 0 else -mag


def convert_csv(
    csv_path: str | Path,
    columns: list[str],
    transform: str | None,
    out_path: str | Path,
) -> DatasetHeader:
    """Ingest named numeric CSV columns into a dataset file.

    The CSV is UTF-8, with or without a leading byte-order mark. The first
    CSV row is the header; an empty string (after stripping whitespace) is a
    missing value and drops the whole row. Any other value float() rejects,
    and nan or +-inf, is an error, unless an earlier selected cell of its row
    is empty. The error names the first bad row and, within
    it, the first bad selected column. With transform="signed_log" each
    retained value is mapped through signed_log. An out_path that is the CSV,
    or a link to it, is refused before the header is read.

    Rows are converted _BLOCK_ROWS at a time, a column at a time. The file
    and the error texts are what a row-by-row loop gives;
    tests/test_convert_oracle.py keeps that loop as the reference.
    """
    if transform not in (None, "none", "signed_log"):
        raise ValueError(f"unknown transform {transform!r}")
    apply_log = transform == "signed_log"
    if not columns:
        raise ValueError("at least one column must be selected")

    try:
        fh = open(csv_path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise StoreError(f"cannot read CSV: {exc}") from exc
    with fh:
        refuse_as_output(csv_path, os.fstat(fh.fileno()), out_path, "CSV")
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise StoreError(f"{csv_path}: empty file") from None
        positions = []
        for name in columns:
            try:
                positions.append(names.index(name))
            except ValueError:
                raise StoreError(f"{csv_path}: unknown column {name!r}") from None

        blocks = _retained_blocks(csv_path, reader, positions, apply_log)
        return write_blocks(out_path, len(columns), blocks)


def _retained_blocks(csv_path, reader, positions: list[int], apply_log: bool):
    """Yield the selected columns of complete CSV rows as float64 blocks.

    Reads _BLOCK_ROWS CSV rows at a time into one list of cell strings per
    selected column (no row lists are kept), then converts the block a column
    at a time. If the reader fails part-way (a csv.Error, a decoding error),
    the rows before the failure are still checked first, so a bad cell there
    is reported as it would be by a row-at-a-time loop.
    """
    kept = 0
    first_row = 1
    while True:
        cols, read_error = _read_columns(reader, positions, _BLOCK_ROWS)
        m = len(cols[0])
        if m:
            block = _convert_block(csv_path, cols, first_row, apply_log)
            del cols  # free the cells now, and the block after it is written
            first_row += m
            kept += len(block)
            if len(block):
                yield block
            del block
        if read_error is not None:
            raise read_error
        if m < _BLOCK_ROWS:
            break
    if kept == 0:
        raise StoreError(f"{csv_path}: zero retained rows")


def _read_columns(reader, positions: list[int], limit: int):
    """The selected cells of the next limit rows, by column; "" past a short row.

    Also returns the exception that stopped the reader early, or None.
    """
    cols: list[list[str]] = [[] for _ in positions]
    appends = [(col.append, pos) for col, pos in zip(cols, positions)]
    try:
        for row in islice(reader, limit):
            width = len(row)
            for append, pos in appends:
                append(row[pos] if pos < width else "")
    except Exception as exc:  # re-raised by the caller after the rows before it
        return cols, exc
    return cols, None


def _convert_block(csv_path, cols: list[list[str]], first_row: int, apply_log: bool):
    """Parse one block of cells, column by column; return its complete rows.

    Row by row, a selected cell is parsed only if every earlier selected cell
    of its row is non-empty (the first empty one drops the row). A column's
    cells are first parsed unstripped, an empty cell being one of length 0.
    float() ignores the surrounding whitespace str.strip() removes (or, for
    U+001C..U+001F, rejects the cell), so this gives the stripped values
    whenever it succeeds. If it fails anywhere in the column, every cell is
    stripped, the empty ones found again, and the column parsed again. If
    that fails too, or a value is non-finite, the error comes from
    _bad_cell_error, which finds the first such cell in row order.
    """
    m = len(cols[0])
    counted = np.ones(m, dtype=bool)
    parsed = []
    for col in cols:
        try:
            values, counted = _parse_column(col, counted)
        except ValueError:
            try:
                values, counted = _parse_column(list(map(str.strip, col)), counted)
            except ValueError:
                raise _bad_cell_error(csv_path, cols, first_row) from None
        if not np.isfinite(values).all():
            raise _bad_cell_error(csv_path, cols, first_row)
        parsed.append((values, counted))
    block = np.empty((int(np.count_nonzero(counted)), len(cols)), dtype=np.float64)
    for j, (values, mask) in enumerate(parsed):
        column = values[counted[mask]]
        block[:, j] = _signed_log_array(column) if apply_log else column
    return block


def _parse_column(texts: list[str], counted: np.ndarray):
    """float() of each non-empty text where counted; the narrowed mask with it.

    Raises ValueError from the first text float() rejects.
    """
    counted = counted & (np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) > 0)
    size = int(np.count_nonzero(counted))
    values = np.fromiter(
        map(float, compress(texts, counted.tolist())), dtype=np.float64, count=size
    )
    return values, counted


def _signed_log_array(values: np.ndarray) -> np.ndarray:
    """signed_log of each finite value, through math.log as signed_log does.

    math.log runs once per distinct magnitude (np.unique), and each value
    takes the log of its own magnitude back by index, so every value still
    gets math.log of the same double.
    """
    out = np.zeros_like(values)
    nonzero = values != 0.0
    x = values[nonzero]
    distinct, inverse = np.unique(np.abs(x), return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), dtype=np.float64, count=distinct.size)
    mags = logs[inverse]
    out[nonzero] = np.where(x < 0, -mags, mags)
    return out


def _bad_cell_error(csv_path, cols: list[list[str]], first_row: int) -> StoreError:
    """The error for a block's first failing cell, scanning row by row."""
    for row_num, cells in enumerate(zip(*cols), start=first_row):
        for cell in cells:
            text = cell.strip()
            if text == "":
                break
            try:
                value = float(text)
            except ValueError:
                return StoreError(f"{csv_path}: unparseable value {text!r} at row {row_num}")
            if not math.isfinite(value):
                return StoreError(f"{csv_path}: non-finite value {text!r} at row {row_num}")
    raise AssertionError("a block that failed to parse has no failing cell")
