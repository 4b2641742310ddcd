"""Random-stream contract: pinned Philox key layout and chunked determinism."""

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
    sizes = chunk_sizes(3 * CHUNK_SIZE + 17)
    assert sum(sizes) == 3 * CHUNK_SIZE + 17
    assert sizes[:-1] == [CHUNK_SIZE] * 3
    assert sizes[-1] == 17


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


@pytest.mark.parametrize("n_total", [CHUNK_SIZE, 2 * CHUNK_SIZE + 17, 500])
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


def test_same_seed_same_vectors():
    g1 = philox_stream(123, 0)
    g2 = philox_stream(123, 0)
    np.testing.assert_array_equal(g1.random(100), g2.random(100))
