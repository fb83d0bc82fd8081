"""Seeded index generation for subsampling.

Randomness scheme (recorded as RNG_ID in every report):

  * Per-subsample seeds come from the SplitMix64 finalizer applied to
    master_seed + k * 0x9E3779B97F4A7C15 (mod 2^64). The gamma is odd and the
    finalizer is a bijection, so distinct ordinals k under one master seed are
    guaranteed distinct seeds. Master seeds outside [0, 2^64) are rejected
    rather than folded onto another seed.
  * Each seed keys an independent Philox-4x64-10 counter-based stream; its raw
    64-bit output is mathematically fixed, so index streams replay exactly on
    any machine. Each thread re-keys one reused Philox through one reused
    state dict rather than building a new one per seed; the stream is the one
    np.random.Philox(key=seed) gives.
  * Uniform integers on [0, N) use bitmask rejection on the raw words: mask to
    the next power of two, discard candidates >= N. No modulo bias; at least
    half of all candidates are accepted.

A draw returns the first n accepted words of its seed's stream, whatever the
block size used to fetch them, so every index stream is a pure function of
(seed, N, n) regardless of batching or which worker performs the draw.
draw_chunk draws a whole chunk of seeds in rounds: each round takes one block
per remaining seed from the start of its stream and makes one pass of numpy
calls over the blocks; draw_with_replacement is its one-row case. The first
block is sized to the acceptance rate p = N / (mask + 1) by block_width: the
smallest w with p*w - 2*sqrt(w*p*(1-p)) >= n, floored at 16: enough words for
n acceptances unless their accepted count falls more than two standard
deviations below its mean. The few rows that fall short are redrawn in the
next round with blocks twice as wide, through the same numpy calls. No output
byte depends on the width; only the share of rows redrawn does.
draw_without_replacement reads its seed's stream one word at a time.
subsample_seeds derives a chunk's seeds in one pass of uint64 array
arithmetic; subsample_seed is its one-ordinal case. Subsample k of a run with
master seed s draws the row of subsample_seed(s, k), so it does not depend on
K or on the chunking either.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Iterator, Sequence

import numpy as np

RNG_ID = "philox4x64/splitmix64-derive/bitmask-reject"

# Ordinal ranges reserved in subsample_seed's k-space so different uses of one
# master seed can never collide: estimate runs use k = 1..K (K < 2^32),
# Monte Carlo replications use REPLICATION_SEED_OFFSET + m (M < 2^32), benchmark
# repeats use BENCH_SEED_OFFSET + r. pipeline.check_run enforces K's bound and
# simulate.ExperimentConfig M's.
REPLICATION_SEED_OFFSET = 2**32
BENCH_SEED_OFFSET = 2**33

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15

_streams = threading.local()


def subsample_seeds(master_seed: int, ks) -> list[int]:
    """The seeds of ordinals ks under master_seed, in order (SplitMix64 mix).

    One pass of wrapping uint64 array arithmetic over all of ks, which numpy
    reads as int64 ordinals. Only arrays take part: numpy warns when a uint64
    scalar product wraps, an array never.
    """
    z = np.asarray(ks)
    if z.size == 0:
        return []
    if z.dtype.kind not in "iu":
        raise ValueError(f"ordinals must be integers below 2**63, got dtype {z.dtype}")
    if z.min() < 1:
        raise ValueError("ordinal k must be >= 1")
    z = z.astype(np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(int(master_seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.tolist()


def subsample_seed(master_seed: int, k: int) -> int:
    """Derive the seed for ordinal k from the master seed (SplitMix64 mix)."""
    return subsample_seeds(master_seed, [k])[0]


def _index_mask(n_rows: int) -> np.uint64:
    # smallest all-ones mask covering [0, n_rows)
    return np.uint64((1 << (n_rows - 1).bit_length()) - 1 if n_rows > 1 else 0)


def _as_int(value) -> int | None:
    """value as an int if it is an integer-valued number, else None (bools too)."""
    if isinstance(value, bool):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def checked_count(value, what: str, minimum: int = 1) -> int:
    """value as an int, if it is an integer-valued number >= minimum.

    what names the value in the error, e.g. "subsample count K".
    """
    count = _as_int(value)
    if count is None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if count < minimum:
        raise ValueError(f"{what} must be >= {minimum}")
    return count


def checked_seed(seed: int) -> int:
    """seed as an int, if it is an integer that is a valid Philox key."""
    key = _as_int(seed)
    if key is None:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= key < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {key}")
    return key


def checked_master_seed(master_seed: int) -> int:
    """master_seed as an int, if it is an integer subsample_seed does not fold.

    subsample_seed reduces the master seed mod 2^64, so 2**64 + 5 would run
    seed 5 while the report recorded 2**64 + 5; such seeds are rejected.
    """
    seed = _as_int(master_seed)
    if seed is None or not 0 <= seed < 2**64:
        raise ValueError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")
    return seed


def _philox_stream() -> tuple[np.random.Philox, dict, list[int]]:
    """This thread's Philox, with the state dict and key list that re-key it.

    The state dict's counter and buffer are Python-int tuples; re-keying writes
    the two key words into the key list and assigns the same dict to
    bits.state. That costs about 1 us, against about 5 us for a freshly built
    state dict and about 18 us for constructing np.random.Philox(key=seed)
    (2 vCPU, numpy 2.4, Python 3.11).
    """
    stream = getattr(_streams, "stream", None)
    if stream is None:
        key = [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        stream = _streams.stream = (np.random.Philox(0), state, key)
    return stream


def _keyed_philox(seed: int) -> np.random.Philox:
    """This thread's Philox, reset to the start of the stream keyed by seed."""
    seed = checked_seed(seed)
    bits, state, key = _philox_stream()
    key[0] = seed & _MASK64
    key[1] = seed >> 64
    bits.state = state
    return bits


def _checked_seeds(seeds) -> Sequence[int]:
    """seeds as Python ints, if every one is a valid Philox key; else
    checked_seed's error for the first that is not. A list of Python ints in
    range, as subsample_seeds returns, passes with one check of the whole list.
    """
    if set(map(type, seeds)) == {int} and min(seeds) >= 0 and max(seeds) < 2**128:
        return seeds
    return [checked_seed(seed) for seed in seeds]


def block_width(n_rows: int, n: int) -> int:
    """Raw words in each row's first block when drawing n indices on [0, n_rows).

    The smallest w with p*w - 2*sqrt(w*p*(1-p)) >= n, floored at 16, where
    p = n_rows / (mask + 1) is the acceptance rate: w words hold n accepted
    ones unless their count falls two standard deviations below its mean.
    The closed-form root of that quadratic in sqrt(w) starts the search, which
    then tests the rule itself, so float rounding of the root cannot move w.
    """
    p = n_rows / (int(_index_mask(n_rows)) + 1)
    c = p * (1 - p)
    w = max(math.floor(((math.sqrt(c) + math.sqrt(c + p * n)) / p) ** 2) - 1, 16)
    while p * w - 2 * math.sqrt(w * c) < n:
        w += 1
    return w


def draw_chunk(seeds, n_rows: int, n: int) -> np.ndarray:
    """Draw n uniform indices on [0, n_rows) per seed, as a (len(seeds), n) array.

    Row i holds the first n accepted words of the stream keyed by seeds[i].
    The seeds are checked once for the chunk. Each round takes one block of
    width raw words from the start of every remaining row's stream, joins the
    blocks into one buffer, and masks, bounds and ranks it by one numpy call
    each. The first round's width is block_width(n_rows, n); a row with fewer
    than n accepted words is redrawn in the next round at twice the width.
    The width sets only how many rows are redrawn: no output byte depends on it.
    """
    n_rows = checked_count(n_rows, "n_rows")
    n = checked_count(n, "n")
    seeds = _checked_seeds(seeds)
    mask = _index_mask(n_rows)
    bound = np.uint64(n_rows)
    bits, state, key = _philox_stream()
    out = np.empty((0, n), dtype=np.int64)
    rows = np.arange(len(seeds))
    width = block_width(n_rows, n)
    while rows.size:
        blocks = []
        for seed in map(seeds.__getitem__, rows.tolist()):
            key[0] = seed & _MASK64
            key[1] = seed >> 64
            bits.state = state
            blocks.append(bits.random_raw(width))
        # one copy of all blocks; np.stack of 1-d blocks took 4x as long per row
        raw = np.concatenate(blocks).reshape(-1, width)
        raw &= mask
        accepted = raw < bound
        # a rank never exceeds width; a narrow dtype makes the cumsum 3x faster
        rank = np.cumsum(accepted, axis=1, dtype=np.min_scalar_type(width))
        full = rank[:, -1] >= n
        selected = raw[accepted & (rank <= n) & full[:, None]].reshape(-1, n)
        if not out.size:
            # allocated after the first round's buffers, so that freeing them
            # does not leave the top of the heap free for glibc to trim, which
            # a caller that keeps each output alive would fault back in
            out = np.empty((len(seeds), n), dtype=np.int64)
        out[rows[full]] = selected
        rows = rows[~full]
        width *= 2
    return out


def draw_with_replacement(seed: int, n_rows: int, n: int) -> np.ndarray:
    """Draw n independent uniform indices on [0, n_rows), with replacement."""
    return draw_chunk([seed], n_rows, n)[0]


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


def _raw_words(bits: np.random.Philox) -> Iterator[int]:
    """bits' raw 64-bit words in stream order, fetched 4096 at a time."""
    while True:
        yield from bits.random_raw(4096).tolist()


def draw_without_replacement(
    seed: int, n_rows: int, n: int, already_drawn: ExclusionSet
) -> np.ndarray:
    """Draw n indices avoiding duplicates against a shared running set.

    Rejection protocol: generate a candidate, scan it against every index
    already drawn, regenerate on collision, otherwise record and keep it.
    Exists for cost-model benchmarking; use draw_with_replacement for
    estimation.
    """
    n_rows = checked_count(n_rows, "n_rows")
    n = checked_count(n, "n")
    if len(already_drawn) + n > n_rows:
        raise ValueError(
            f"insufficient room: {len(already_drawn)} drawn + {n} requested > {n_rows}"
        )
    mask = int(_index_mask(n_rows))
    out = np.empty(n, dtype=np.int64)
    filled = 0
    for word in _raw_words(_keyed_philox(seed)):
        cand = word & mask
        if cand >= n_rows or cand in already_drawn:
            continue
        already_drawn.add(cand)
        out[filled] = cand
        filled += 1
        if filled == n:
            break
    return out
