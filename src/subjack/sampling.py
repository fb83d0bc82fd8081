"""Seeded index generation for subsampling.

Randomness scheme (recorded as RNG_ID in every report):

  * Per-subsample seeds come from the SplitMix64 finalizer applied to
    master_seed + k * 0x9E3779B97F4A7C15 (mod 2^64). The gamma is odd and the
    finalizer is a bijection, so distinct ordinals k under one master seed are
    guaranteed distinct seeds.
  * Each seed keys an independent Philox-4x64-10 counter-based stream; its raw
    64-bit output is mathematically fixed, so index streams replay exactly on
    any machine. Each thread re-keys one reused Philox rather than building a
    new one per seed; the stream is the one np.random.Philox(key=seed) gives.
  * Uniform integers on [0, N) use bitmask rejection on the raw words: mask to
    the next power of two, discard candidates >= N. No modulo bias; at least
    half of all candidates are accepted.

Every index stream is a pure function of (seed, N, n) regardless of batching
or which worker performs the draw. Subsample k of a run with master seed s
draws draw_with_replacement(subsample_seed(s, k), N, n), so it does not
depend on K either.
"""
from __future__ import annotations

import threading

import numpy as np

RNG_ID = "philox4x64/splitmix64-derive/bitmask-reject"

# Ordinal ranges reserved in subsample_seed's k-space so different uses of one
# master seed can never collide: estimate runs use k = 1..K (K < 2^32),
# Monte Carlo replications use REPLICATION_SEED_OFFSET + m, benchmark repeats
# use BENCH_SEED_OFFSET + r.
REPLICATION_SEED_OFFSET = 2**32
BENCH_SEED_OFFSET = 2**33

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_ZERO4 = np.zeros(4, dtype=np.uint64)

_streams = threading.local()


def subsample_seed(master_seed: int, k: int) -> int:
    """Derive the seed for ordinal k from the master seed (SplitMix64 mix)."""
    if k < 1:
        raise ValueError("ordinal k must be >= 1")
    z = (int(master_seed) + k * _GAMMA) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _index_mask(n_rows: int) -> np.uint64:
    # smallest all-ones mask covering [0, n_rows)
    return np.uint64((1 << (n_rows - 1).bit_length()) - 1 if n_rows > 1 else 0)


def checked_seed(seed: int) -> int:
    """seed as an int, if it is a valid Philox key."""
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _keyed_philox(seed: int) -> np.random.Philox:
    """This thread's Philox, reset to the start of the stream keyed by seed.

    Assigning the state costs a fifth of constructing np.random.Philox(key=seed),
    which dominated a per-subsample draw.
    """
    seed = checked_seed(seed)
    bits = getattr(_streams, "philox", None)
    if bits is None:
        bits = _streams.philox = np.random.Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": _ZERO4,
            "key": np.array([seed & _MASK64, seed >> 64], dtype=np.uint64),
        },
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bits


def draw_with_replacement(seed: int, n_rows: int, n: int) -> np.ndarray:
    """Draw n independent uniform indices on [0, n_rows), with replacement."""
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = _keyed_philox(seed)
    mask = _index_mask(n_rows)
    bound = np.uint64(n_rows)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        block = bits.random_raw(max(2 * need, 16))
        cand = block & mask
        good = cand[cand < bound]
        take = min(need, good.size)
        out[filled : filled + take] = good[:take].astype(np.int64)
        filled += take
    return out


class ExclusionSet:
    """Growing index set with linear-scan membership, shared across draws.

    Deliberately not a hash set: each membership check walks the whole array,
    so total cost grows quadratically in the number of indices drawn. That is
    the point — it models duplicate avoidance where every candidate must be
    compared against everything already taken.
    """

    def __init__(self, capacity: int = 1024):
        self._values = np.empty(max(capacity, 16), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, value: int) -> bool:
        return bool(np.any(self._values[: self._size] == value))

    def add(self, value: int) -> None:
        if self._size == self._values.size:
            self._values = np.concatenate([self._values, np.empty_like(self._values)])
        self._values[self._size] = value
        self._size += 1


def draw_without_replacement(
    seed: int, n_rows: int, n: int, already_drawn: ExclusionSet
) -> np.ndarray:
    """Draw n indices avoiding duplicates against a shared running set.

    Rejection protocol: generate a candidate, scan it against every index
    already drawn, regenerate on collision, otherwise record and keep it.
    Exists for cost-model benchmarking; use draw_with_replacement for
    estimation.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(already_drawn) + n > n_rows:
        raise ValueError(
            f"insufficient room: {len(already_drawn)} drawn + {n} requested > {n_rows}"
        )
    bits = _keyed_philox(seed)
    mask = int(_index_mask(n_rows))
    out = np.empty(n, dtype=np.int64)
    filled = 0
    buffer: list[int] = []
    pos = 0
    while filled < n:
        if pos >= len(buffer):
            buffer = bits.random_raw(4096).tolist()
            pos = 0
        cand = buffer[pos] & mask
        pos += 1
        if cand >= n_rows:
            continue
        if cand in already_drawn:
            continue
        already_drawn.add(cand)
        out[filled] = cand
        filled += 1
    return out
