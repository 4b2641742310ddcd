"""Deterministic random-number streams and chunked Monte Carlo scheduling.

Every simulation in this package draws from numpy's Philox bit generator, a
counter-based generator (Philox 4x64 with 10 rounds, identical to the
Random123 reference implementation), so streams are splittable by key instead
of by jumping state.  The key layout is pinned here and frozen by test
vectors in tests/test_rng.py so ports to other runtimes can match the byte
stream:

    key word 0 = seed, in 0..2**64 - 1
    key word 1 = (stream_tag << 32) | chunk_index

``stream_tag`` separates independent draw streams inside one experiment
(e.g. the copula draw vs. an auxiliary noise draw) and ``chunk_index``
enumerates fixed-size replication chunks.  A replication batch is therefore
fully determined by (seed, tag, chunk) and is independent of how many worker
threads execute the chunks.  Chunk outputs are always merged in ascending
chunk order, which makes every reduction bit-identical for any worker count.

A pool runs the chunks through ``Executor.map``: every chunk is submitted
at once and the results are taken in chunk order.  A worker's exception is
raised at its chunk and cancels the chunks still queued.  Every chunk
result is kept until the caller merges it, so a worker does its
experiment's per-row work itself and returns statistics of its rows, not
the rows: the ``reports.Moments`` (count, means and centred co-moments) of
the per-row values its reports read, or integer counts (the copula-swap
lattice cells, the coalition's wins).
``run_chunked``'s caller merges them left to right in ascending chunk
order, so the merged statistics depend on the chunking, which is fixed,
and never on the number of workers.  Only the record chunks return rows,
the hazards of their kept sequences, which ``ordered.simulate_records``
keeps whole.  ``simulate_chunked`` assembles the whole samples of
``ordered.order_stat_matrix`` and ``coalition.simulate_market``: the row
blocks the order-stats and coalition workers reduce, joined by
``join_rows`` as each model's ``sample`` joins its ``blocks``, into arrays
allocated once, each part copied into its rows as it arrives and dropped.

A chunk worker draws its rows through its model's ``blocks(rng, n)``,
which yields them in consecutive row blocks (``row_slices``): EVAL_BLOCK
rows for a bivariate model, either copies model, a market and the
order-stats rows, and ``condexp.gemm_rows(dim)`` rows for a Gaussian
vector (see below).  Each block draws all of its own columns before the
next block starts, and a model's ``sample`` is its blocks joined, so the
draws of a chunk depend on (seed, tag, chunk) and the model alone.  A
bivariate model on a Gaussian copula draws its blocks through
``copulas.Gaussian.score_blocks``, whose blocks yield normal scores, the
same draws in the same order as the copula's uniforms, and maps the
scores onto its margins.  A ``blocks`` call holds one block of draws at a
time: it drops its names of a block once the block is yielded, before the
next block draws.  Each block's arrays are new: the caller may keep them.

A worker allocates the arrays it fills when its chunk starts, writes its
per-row values into them a block of rows at a time, and returns
statistics computed from them.  They are dropped when it returns, and the
next chunk its thread runs reuses their memory through the allocator.  A
chunk's arrays are at most eight CHUNK_SIZE rows of float64 (4 MiB, the
covariance identity's), but for three operations whose rows grow with the
config: a corollary chain holds a row per distinct index set beside three,
up to MAX_ROW_WIDTH + 3 rows (65.5 MiB), the coalition k + 1 rows of
squared errors for k brokers (up to 64.5 MiB), and the martingale a
narrow-integer row per predictor index.  Each running chunk holds its
arrays and a block of draws (8 MiB at EVAL_BLOCK rows of MAX_ROW_WIDTH),
so a run may start at most MAX_WORKERS threads.

A chunk worker must not start threads of its own: the pool's workers
already occupy the cores, and extra threads make them wait on each other.
A whole-chunk BLAS product does start them: OpenBLAS may run a gemm of
more than 2**18 multiply-adds on its own threads, and runs a (65536, 6) @
(6, 6) product on two.  Measured on 2 vCPUs, two pool workers drawing
Gaussian vectors that way took longer than one.  So
``condexp.GaussianVector.blocks`` multiplies in row blocks that OpenBLAS
keeps on the calling thread, the theorems' linear predictors take one
product over one such block at a time, and ``reports.Moments.of_block``
forms co-moments from elementwise products, with no BLAS call.

The record stream (tag 4, ``ordered.simulate_records``) draws a chunk's
sequences in its ``row_slices`` blocks.  A block of b sequences draws a
(b, depth) array of standard exponentials, the hazard increments of its
records, and then a (b, depth - 1) one, inverted into the geometric waits.
"""

import numpy as np

from .errors import DomainError

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Replication chunk size shared by all experiments. Changing it changes the
# random stream layout, so it is part of the reproducibility contract.
CHUNK_SIZE = 65536

# Rows a chunk worker, or a regression table, handles at a time: the
# table's scratch arrays, 35 bytes a key, then fit in L2 cache.  On 2 vCPUs
# (2 MiB of L2 each) a record table took 0.93-0.97 ms on 65,536 keys at this
# size, 0.86-1.16 ms at 16,384, 1.6 ms at 65,536 and 5.2-5.3 ms as
# whole-array expressions.
EVAL_BLOCK = 8192

# Largest size field a model may have (a vector dimension, a number of
# copies, brokers or order statistics, a walk or record depth).  A model
# may draw one column more than its size field: the conditional-iid copies'
# target, the walk's next step, the outsider beside the brokers.  (Gaussian
# copies draw three normals a row, whatever their count.)  So a replication
# takes at most MAX_ROW_WIDTH + 1 draws, and a chunk of CHUNK_SIZE rows that
# wide is 64.5 MiB of float64.
MAX_ROW_WIDTH = 128


# Most worker threads a run may start; see the module docstring.
MAX_WORKERS = 64


def check_workers(workers):
    """A worker-thread count, an int in 1..MAX_WORKERS, checked before any
    pool starts."""
    if isinstance(workers, bool) or not isinstance(workers, int) or not 1 <= workers <= MAX_WORKERS:
        message = f"workers must be an integer in 1..{MAX_WORKERS}, got {workers!r}"
        raise DomainError(message, "workers")


def check_row_width(width, param):
    """A size field of at most MAX_ROW_WIDTH, checked before any allocation."""
    if width > MAX_ROW_WIDTH:
        raise DomainError(f"{param} must be <= {MAX_ROW_WIDTH}, got {width}", param)


def check_seed(seed):
    """A seed in 0..2**64 - 1, so that no two seeds key the same stream."""
    if not 0 <= seed <= MASK64:
        raise DomainError(f"seed must be in 0..2**64 - 1, got {seed}", "seed")


def philox_stream(seed, stream):
    """Return a numpy Generator for the (seed, stream) Philox key."""
    key = np.array([seed & MASK64, stream & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_stream(seed, tag, chunk_index):
    """Generator for replication chunk `chunk_index` of draw stream `tag`."""
    check_seed(seed)
    if not 0 <= tag <= MASK32:
        raise ValueError(f"stream tag must fit in 32 bits, got {tag}")
    if not 0 <= chunk_index <= MASK32:
        raise ValueError(f"chunk index must fit in 32 bits, got {chunk_index}")
    return philox_stream(seed, (tag << 32) | chunk_index)


def chunk_sizes(n_total):
    """(chunks, last): n_total replications split into `chunks` chunks of
    CHUNK_SIZE rows, the last of which holds `last` rows (ragged)."""
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    chunks = -(-n_total // CHUNK_SIZE)
    return chunks, n_total - (chunks - 1) * CHUNK_SIZE


def row_slices(n, rows=EVAL_BLOCK):
    """The slices of `rows` rows that cover range(n) in order, the last one
    ragged: the row blocks in which a model's `blocks` draws n >= 1 rows."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _chunk_results(worker, n_total, seed, tag, pool):
    """Iterator over `worker(rng, count)` per chunk, in ascending chunk order:
    `pool.map`'s, or the builtin map's without a pool (see the module
    docstring)."""
    chunks, last = chunk_sizes(n_total)

    def call(c):
        return worker(chunk_stream(seed, tag, c), CHUNK_SIZE if c < chunks - 1 else last)

    return (map if pool is None else pool.map)(call, range(chunks))


def run_chunked(worker, n_total, seed, tag=0, pool=None):
    """Run `worker(rng, count)` over deterministic chunks, in chunk order.

    Returns the list of per-chunk results ordered by chunk index.  `pool`
    may be a concurrent.futures executor owned by the caller; workers must
    not mutate shared state.  Results are identical for any pool size.
    """
    return list(_chunk_results(worker, n_total, seed, tag, pool))


def simulate_chunked(worker, n_total, seed, tag=0, pool=None):
    """Like run_chunked but assembles tuple-of-array chunk results.

    `worker(rng, count)` must return a tuple of 1-D/2-D arrays whose leading
    dimension is `count`.  The chunks are joined in chunk order by
    join_rows, so the assembled arrays equal the concatenation of the
    chunks bit for bit regardless of parallelism.
    """
    return join_rows(_chunk_results(worker, n_total, seed, tag, pool), n_total)


def join_rows(parts, n_total):
    """The tuples of arrays `parts`, consecutive row parts of n_total rows
    in all, joined: each part is copied into arrays allocated once, from the
    first part's shapes and dtypes, and dropped."""
    out = None
    row = 0
    for part in parts:
        if not isinstance(part, tuple):
            raise TypeError("each row part must be a tuple of arrays")
        if out is None:
            out = tuple(np.empty((n_total,) + a.shape[1:], dtype=a.dtype) for a in part)
        count = part[0].shape[0]
        for dst, a in zip(out, part):
            dst[row : row + count] = a
        row += count
        del part, a
    if row != n_total:
        raise ValueError(f"row parts hold {row} rows in all, expected {n_total}")
    return out
