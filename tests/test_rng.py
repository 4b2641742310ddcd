"""Random-stream contract: pinned Philox key layout and chunked determinism."""

from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from cexpect.rng import (
    CHUNK_SIZE,
    chunk_sizes,
    chunk_stream,
    philox_stream,
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

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self._call())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class _LazyPool:
    """Executor stub: records every submitted future and the most that were
    outstanding (submitted, not yet run) at once."""

    def __init__(self, workers):
        self._max_workers = workers
        self.futures = []
        self.most_outstanding = 0

    def submit(self, fn, *args):
        future = _LazyFuture(lambda: fn(*args))
        self.futures.append(future)
        outstanding = sum(not f.done() for f in self.futures)
        self.most_outstanding = max(self.most_outstanding, outstanding)
        return future


def _first_draw(rng, count):
    return float(rng.random()), count


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_window_bounds_outstanding_chunks_and_keeps_order(workers):
    n_total = 10 * 1000 + 7
    pool = _LazyPool(workers)
    got = run_chunked(_first_draw, n_total, seed=3, tag=5, chunk_size=1000, pool=pool)
    assert got == run_chunked(_first_draw, n_total, seed=3, tag=5, chunk_size=1000)
    assert len(pool.futures) == 11
    assert pool.most_outstanding == 2 * workers


def _chunk_index(rng):
    return int(rng.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF


def test_pool_window_propagates_worker_error_and_cancels_queued_chunks():
    def worker(rng, count):
        if _chunk_index(rng) == 3:
            raise RuntimeError("chunk 3 failed")
        return count

    pool = _LazyPool(2)
    with pytest.raises(RuntimeError, match="chunk 3 failed"):
        run_chunked(worker, 80, seed=1, chunk_size=10, pool=pool)
    # Chunks 0-3 were taken in order, 4-6 were queued behind them, and 7
    # was never submitted.
    assert len(pool.futures) == 7
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
