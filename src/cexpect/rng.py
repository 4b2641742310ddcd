"""Deterministic random-number streams and chunked Monte Carlo scheduling.

Every simulation in this package draws from numpy's Philox bit generator, a
counter-based generator (Philox 4x64 with 10 rounds, identical to the
Random123 reference implementation), so streams are splittable by key instead
of by jumping state.  The key layout is pinned here and frozen by test
vectors in tests/test_rng.py so ports to other runtimes can match the byte
stream:

    key word 0 = seed mod 2**64
    key word 1 = (stream_tag << 32) | chunk_index

``stream_tag`` separates independent draw streams inside one experiment
(e.g. the copula draw vs. an auxiliary noise draw) and ``chunk_index``
enumerates fixed-size replication chunks.  A replication batch is therefore
fully determined by (seed, tag, chunk) and is independent of how many worker
threads execute the chunks.  Chunk outputs are always merged in ascending
chunk order, which makes every reduction bit-identical for any worker count.

A pool runs the chunks through an in-order window: at most 2 x workers
chunks are submitted and not yet taken, and the next chunk is submitted
when the oldest one is taken.  So finished chunks cannot pile up while the
caller works through the earlier ones, and a worker's exception cancels
the chunks still queued.

A worker does its experiment's per-row work itself and returns only the
columns the reports read (squared errors, predictor values, a walk in a
narrow integer dtype), never the raw draws the columns came from.
Elementwise arithmetic gives a row the same value in whichever chunk it
runs, so the result does not depend on the chunking; reductions over whole
columns run once, after assembly.  ``simulate_chunked`` assembles array
chunks in place: it allocates each output array once, from the first
chunk's shape and dtype, copies every chunk into its rows as the chunk
arrives in that order, and drops the chunk, instead of keeping every chunk
alive until one final concatenation.

The record stream (tag 4, ``ordered.simulate_records``) uses chunks of 8192
sequences.  Each chunk draws a (count, depth) block of standard exponentials,
the hazard increments of the records, and then a (count, depth - 1) block of
standard exponentials, inverted into the geometric waits between records.
"""

from collections import deque
from itertools import islice

import numpy as np

from .errors import DomainError

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Replication chunk size shared by all experiments. Changing it changes the
# random stream layout, so it is part of the reproducibility contract.
CHUNK_SIZE = 65536

# Most draws a model may take per replication (a vector dimension, a number
# of copies, brokers or order statistics, a walk or record depth): a chunk of
# CHUNK_SIZE rows that wide is 64 MiB of float64.
MAX_ROW_WIDTH = 128


def check_row_width(width, param):
    """A size field of at most MAX_ROW_WIDTH, checked before any allocation."""
    if width > MAX_ROW_WIDTH:
        raise DomainError(f"{param} must be <= {MAX_ROW_WIDTH}, got {width}", param)


def philox_stream(seed, stream):
    """Return a numpy Generator for the (seed, stream) Philox key."""
    key = np.array([seed & MASK64, stream & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_stream(seed, tag, chunk_index):
    """Generator for replication chunk `chunk_index` of draw stream `tag`."""
    if not 0 <= tag <= MASK32:
        raise ValueError(f"stream tag must fit in 32 bits, got {tag}")
    if not 0 <= chunk_index <= MASK32:
        raise ValueError(f"chunk index must fit in 32 bits, got {chunk_index}")
    return philox_stream(seed, (tag << 32) | chunk_index)


def chunk_sizes(n_total, chunk_size=CHUNK_SIZE):
    """(chunks, last): n_total replications split into `chunks` fixed-size
    chunks, the last of which holds `last` rows (ragged)."""
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    chunks = -(-n_total // chunk_size)
    return chunks, n_total - (chunks - 1) * chunk_size


def _chunk_results(worker, n_total, seed, tag, chunk_size, pool):
    """Iterator over `worker(rng, count)` per chunk, in ascending chunk order.

    With a pool, at most 2 x pool._max_workers chunks are in flight (see the
    module docstring); the queued ones are cancelled if a worker raises or
    the iterator is dropped.
    """
    chunks, last = chunk_sizes(n_total, chunk_size)

    def call(c):
        return worker(chunk_stream(seed, tag, c), chunk_size if c < chunks - 1 else last)

    indices = iter(range(chunks))
    if pool is None:
        yield from map(call, indices)
        return
    window = deque(pool.submit(call, c) for c in islice(indices, 2 * pool._max_workers))
    try:
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(call, c) for c in islice(indices, 1))
            yield result
    finally:
        for future in window:
            future.cancel()


def run_chunked(worker, n_total, seed, tag=0, chunk_size=CHUNK_SIZE, pool=None):
    """Run `worker(rng, count)` over deterministic chunks, in chunk order.

    Returns the list of per-chunk results ordered by chunk index.  `pool`
    may be a concurrent.futures executor owned by the caller; workers must
    not mutate shared state.  Results are identical for any pool size.
    """
    return list(_chunk_results(worker, n_total, seed, tag, chunk_size, pool))


def simulate_chunked(worker, n_total, seed, tag=0, chunk_size=CHUNK_SIZE, pool=None):
    """Like run_chunked but assembles tuple-of-array chunk results.

    `worker(rng, count)` must return a tuple of 1-D/2-D arrays whose leading
    dimension is `count`.  The chunks are copied in chunk order into arrays
    allocated once (see the module docstring), so the assembled arrays equal
    the concatenation of the chunks bit for bit regardless of parallelism.
    """
    out = None
    row = 0
    for part in _chunk_results(worker, n_total, seed, tag, chunk_size, pool):
        if not isinstance(part, tuple):
            raise TypeError("worker must return a tuple of arrays")
        if out is None:
            out = tuple(np.empty((n_total,) + a.shape[1:], dtype=a.dtype) for a in part)
        count = part[0].shape[0]
        for i, dst in enumerate(out):
            dst[row : row + count] = part[i]
        row += count
        del part
    if row != n_total:
        raise ValueError(f"workers returned {row} rows in all, expected {n_total}")
    return out
