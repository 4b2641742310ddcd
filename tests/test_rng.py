"""Random-stream contract: pinned Philox key layout and chunked determinism."""

from concurrent.futures import CancelledError, Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from cexpect.errors import DomainError
from cexpect.rng import (
    CHUNK_SIZE,
    MASK64,
    MAX_WORKERS,
    check_seed,
    check_workers,
    chunk_sizes,
    chunk_stream,
    join_rows,
    philox_stream,
    row_slices,
    run_chunked,
    simulate_chunked,
)

# Frozen vectors for the pinned key layout (Philox 4x64-10, numpy bit
# generator, key = [seed, (tag << 32) | chunk]).  A port that reproduces
# these integers reproduces every byte of every report.
PHILOX_RAW64_SEED42_TAG7_CHUNK3 = [
    2628808496572970774,
    4484908567482035490,
    18348629564526026222,
    2752358406896262008,
]


def test_philox_raw_test_vectors():
    key = np.array([42, (7 << 32) | 3], dtype=np.uint64)
    raw = np.random.Generator(np.random.Philox(key=key)).bit_generator.random_raw(4)
    assert [int(x) for x in raw] == PHILOX_RAW64_SEED42_TAG7_CHUNK3


def test_chunk_stream_matches_key_layout():
    a = chunk_stream(42, 7, 3).random(8)
    b = philox_stream(42, (7 << 32) | 3).random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_tags_and_chunks():
    base = chunk_stream(1, 2, 3).random(16)
    assert not np.array_equal(base, chunk_stream(1, 2, 4).random(16))
    assert not np.array_equal(base, chunk_stream(1, 3, 3).random(16))
    assert not np.array_equal(base, chunk_stream(2, 2, 3).random(16))


def test_chunk_stream_rejects_oversized_ids():
    with pytest.raises(ValueError):
        chunk_stream(1, 1 << 32, 0)
    with pytest.raises(ValueError):
        chunk_stream(1, 0, 1 << 32)


def test_seeds_outside_64_bits_are_refused():
    # Seeds that agree mod 2**64 would key the same stream.
    for seed in (0, MASK64):
        check_seed(seed)
        chunk_stream(seed, 0, 0)
    for seed in (-1, 1 << 64):
        with pytest.raises(DomainError) as exc:
            check_seed(seed)
        assert exc.value.param == "seed"
        with pytest.raises(ValueError):
            chunk_stream(seed, 0, 0)


def test_chunk_sizes_cover_total():
    # (chunks, rows of the last chunk), computed without a per-chunk list.
    assert chunk_sizes(3 * CHUNK_SIZE + 17) == (4, 17)
    assert chunk_sizes(2 * CHUNK_SIZE) == (2, CHUNK_SIZE)
    assert chunk_sizes(1) == (1, 1)
    assert chunk_sizes(10**13) == (-(-(10**13) // CHUNK_SIZE), 10**13 % CHUNK_SIZE)


def test_run_chunked_is_pool_independent():
    from concurrent.futures import ThreadPoolExecutor

    def worker(rng, count):
        return float(np.sum(rng.random(count)))

    serial = run_chunked(worker, 250_000, seed=5, tag=2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = run_chunked(worker, 250_000, seed=5, tag=2, pool=pool)
    assert serial == parallel


def test_simulate_chunked_concatenates_in_chunk_order():
    def worker(rng, count):
        u = rng.random(count)
        return u, u * 2.0

    a1, b1 = simulate_chunked(worker, 200_000, seed=9, tag=1)
    a2, b2 = simulate_chunked(worker, 200_000, seed=9, tag=1)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, 2.0 * a1)
    assert a1.shape == (200_000,)


def _mixed_worker(rng, count):
    u = rng.random(count)
    return u, rng.integers(0, 7, size=(count, 3)), (u < 0.5)


@pytest.mark.parametrize("n_total", [CHUNK_SIZE, 2 * CHUNK_SIZE + 17, 500, 9 * CHUNK_SIZE + 5])
@pytest.mark.parametrize("workers", [None, 2])
def test_simulate_chunked_equals_concatenated_parts(n_total, workers):
    from concurrent.futures import ThreadPoolExecutor

    parts = run_chunked(_mixed_worker, n_total, seed=4, tag=3)
    if workers is None:
        got = simulate_chunked(_mixed_worker, n_total, seed=4, tag=3)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got = simulate_chunked(_mixed_worker, n_total, seed=4, tag=3, pool=pool)
    assert len(got) == 3
    for i, arr in enumerate(got):
        expect = np.concatenate([p[i] for p in parts], axis=0)
        assert arr.dtype == expect.dtype and arr.shape == expect.shape
        np.testing.assert_array_equal(arr, expect)


@pytest.mark.parametrize("workers", [None, 2])
def test_simulate_chunked_requires_tuple_results(workers):
    from concurrent.futures import ThreadPoolExecutor

    def worker(rng, count):
        return rng.random(count)

    if workers is None:
        with pytest.raises(TypeError):
            simulate_chunked(worker, 3 * CHUNK_SIZE, seed=1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            with pytest.raises(TypeError):
                simulate_chunked(worker, 3 * CHUNK_SIZE, seed=1, pool=pool)


@pytest.mark.parametrize("sizes", [(3, 4), (3, 4, 5)])
def test_join_rows_rejects_parts_that_do_not_hold_n_total_rows(sizes):
    parts = ((np.zeros(k), np.ones((k, 2))) for k in sizes)
    with pytest.raises(ValueError):
        join_rows(parts, 8)


def test_row_slices_reject_an_empty_sample():
    with pytest.raises(DomainError):
        row_slices(0)


def test_simulate_chunked_rejects_short_chunks():
    def worker(rng, count):
        return (rng.random(count - 1),)

    with pytest.raises(ValueError):
        simulate_chunked(worker, 2 * CHUNK_SIZE, seed=1)


class _LazyFuture(Future):
    """A future whose call runs when its result is first read."""

    def __init__(self, call):
        super().__init__()
        self._call = call

    def run(self):
        if self.set_running_or_notify_cancel():
            try:
                self.set_result(self._call())
            except Exception as exc:
                self.set_exception(exc)

    def result(self, timeout=None):
        if not self.done():
            self.run()
        return super().result(timeout)


class _LazyPool(Executor):
    """Executor whose submitted calls run when their results are read, so
    the real Executor.map drives them; records every submitted future."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = _LazyFuture(lambda: fn(*args, **kwargs))
        self.futures.append(future)
        return future


class _ReversedFuture(_LazyFuture):
    """A future of a _ReversedPool: reading any result first runs every
    submitted call, the last submitted first."""

    def __init__(self, call, pool):
        super().__init__(call)
        self._pool = pool

    def result(self, timeout=None):
        for future in reversed(self._pool.futures):
            if not future.done():
                future.run()
                self._pool.completed.append(future)
        return super().result(timeout)


class _ReversedPool(_LazyPool):
    """Executor that completes its futures in reverse submission order."""

    def __init__(self):
        super().__init__()
        self.completed = []

    def submit(self, fn, /, *args, **kwargs):
        future = _ReversedFuture(lambda: fn(*args, **kwargs), self)
        self.futures.append(future)
        return future


def _first_draw(rng, count):
    return float(rng.random()), count


def test_pool_results_come_back_in_chunk_order_whatever_the_completion_order():
    n_total = 4 * CHUNK_SIZE + 7
    pool = _ReversedPool()
    got = run_chunked(_first_draw, n_total, seed=3, tag=5, pool=pool)
    assert pool.completed == pool.futures[::-1] and len(pool.futures) == 5
    assert got == run_chunked(_first_draw, n_total, seed=3, tag=5)
    assert [count for _, count in got] == [CHUNK_SIZE] * 4 + [7]


def _chunk_index(rng):
    return int(rng.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF


def test_pool_window_propagates_worker_error_and_cancels_queued_chunks():
    def worker(rng, count):
        if _chunk_index(rng) == 3:
            raise RuntimeError("chunk 3 failed")
        return count

    pool = _LazyPool()
    with pytest.raises(RuntimeError, match="chunk 3 failed"):
        run_chunked(worker, 8 * CHUNK_SIZE, seed=1, pool=pool)
    # Every chunk was submitted; chunks 0-3 were taken in order, and the
    # four queued behind them were cancelled.
    assert len(pool.futures) == 8
    assert [f.done() and not f.cancelled() for f in pool.futures[:4]] == [True] * 4
    assert isinstance(pool.futures[3].exception(), RuntimeError)
    for future in pool.futures[4:]:
        assert future.cancelled()
        with pytest.raises(CancelledError):
            future.result()


def test_same_seed_same_vectors():
    g1 = philox_stream(123, 0)
    g2 = philox_stream(123, 0)
    np.testing.assert_array_equal(g1.random(100), g2.random(100))


@pytest.mark.parametrize("method", ["standard_normal", "random", "standard_exponential"])
@pytest.mark.parametrize(
    "shape, block",
    [((CHUNK_SIZE, 6), 7281), ((33_920, 6), 4096), ((100, 3), 7), ((5,), 2)],
)
def test_row_block_fills_draw_the_whole_stream(method, shape, block):
    # The blocked draws of condexp, copulas and theorems rest on this, for
    # the installed numpy: rows drawn a block at a time are the whole-shape
    # draw, bit for bit, and leave the stream where it does.
    whole_rng, blocked_rng = chunk_stream(3, 1, 2), chunk_stream(3, 1, 2)
    whole = getattr(whole_rng, method)(shape)
    blocked = [
        getattr(blocked_rng, method)((min(block, shape[0] - start),) + shape[1:])
        for start in range(0, shape[0], block)
    ]
    assert np.concatenate(blocked).tobytes() == whole.tobytes()
    assert getattr(blocked_rng, method)(3).tobytes() == getattr(whole_rng, method)(3).tobytes()


def test_check_workers_bounds_the_pool():
    for workers in (1, MAX_WORKERS):
        check_workers(workers)
    # A count that is not an int, a bool among them, would reach the pool.
    for workers in (0, -1, MAX_WORKERS + 1, 4096, 1.5, 2.0, True, "2", None):
        with pytest.raises(DomainError) as exc:
            check_workers(workers)
        assert exc.value.param == "workers"
