import os
import struct

import numpy as np
import pytest

from subjack import simulate
from subjack.store import HEADER_SIZE, DatasetHeader, write_matrix, open_dataset


@pytest.fixture(autouse=True)
def fresh_replication_pool():
    """Give each test its own replication pool: a pool forked before a test's
    monkeypatch would not see it, and one left running would outlive the test."""
    simulate._discard_pool()
    yield
    simulate._discard_pool()


@pytest.fixture
def small_dataset(tmp_path):
    """100 x 3 dataset with known contents; returns (handle, matrix)."""
    rng = np.random.default_rng(42)
    matrix = rng.normal(loc=2.0, scale=1.5, size=(100, 3))
    path = tmp_path / "small.sjds"
    write_matrix(matrix, path)
    return open_dataset(path), matrix


@pytest.fixture
def huge_sparse_dataset(tmp_path):
    """A one-column dataset of 2**32 + 5 zero rows, made as a hole: 32 GiB in
    size, a few KiB on disk. Rows past 2**32 sit past byte 2**35.

    Returns (path, put), where put(rows, values) writes each value at its row.
    """
    n_rows = 2**32 + 5
    path = tmp_path / "huge.sjds"
    with open(path, "wb") as fh:
        fh.write(DatasetHeader(row_count=n_rows, col_count=1).pack())
        try:
            fh.truncate(HEADER_SIZE + 8 * n_rows)
        except OSError as exc:
            pytest.skip(f"cannot make a 32 GiB file here: {exc}")
    info = os.stat(path)
    if getattr(info, "st_blocks", None) is None or info.st_blocks * 512 >= info.st_size:
        path.unlink()
        pytest.skip("the temp directory's file system left no hole after truncate")

    def put(rows, values):
        with open(path, "r+b") as fh:
            for row, value in zip(rows, values):
                fh.seek(HEADER_SIZE + 8 * int(row))
                fh.write(struct.pack("<d", value))

    return path, put
