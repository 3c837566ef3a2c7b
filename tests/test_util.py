"""The tile-parallel map behind the batched codec paths."""

import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

from csicodec import util
from csicodec.util import map_tiles


def test_every_tile_runs_once_and_each_worker_threads_its_carry(tile_threads):
    calls = []

    def fn(start, stop, carry):
        carry = 1 if carry is None else carry + 1
        calls.append((start, stop, threading.get_ident(), carry))
        return carry

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        map_tiles(fn, 2003, 1)
        map_tiles(fn, 37, 8)
    finally:
        sys.setswitchinterval(interval)
    tiles = sorted((start, stop) for start, stop, _, _ in calls)
    assert tiles == sorted([(k, k + 1) for k in range(2003)]
                           + [(0, 8), (8, 16), (16, 24), (24, 32), (32, 37)])
    carries = defaultdict(list)
    for _, _, thread, carry in calls[:2003]:
        carries[thread].append(carry)
    assert 1 <= len(carries) <= 4
    for seq in carries.values():
        assert seq == list(range(1, len(seq) + 1))


def test_inline_cases_run_in_tile_order_on_the_calling_thread(monkeypatch):
    here = threading.get_ident()

    def run(count, tile):
        calls = []
        map_tiles(lambda start, stop, carry:
                  calls.append((start, stop, threading.get_ident())),
                  count, tile)
        return calls

    assert run(5, 8) == [(0, 5, here)]              # one tile
    assert run(0, 8) == []
    monkeypatch.setattr(util, "_cpu_count", lambda: 1)
    assert run(5, 2) == [(0, 2, here), (2, 4, here), (4, 5, here)]
    monkeypatch.setattr(util, "_cpu_count", lambda: 4)
    monkeypatch.setattr(util, "_openblas_threads", lambda: None)
    assert run(5, 2) == [(0, 2, here), (2, 4, here), (4, 5, here)]
    with pytest.raises(ValueError):
        map_tiles(lambda *a: None, 5, 0)


def test_blas_is_pinned_inside_and_restored_after_every_call(tile_threads):
    before = tile_threads.get()
    seen = []
    map_tiles(lambda start, stop, carry: seen.append(tile_threads.get()), 10, 2)
    assert seen == [1] * 5
    assert tile_threads.get() == before
    map_tiles(lambda start, stop, carry: seen.append(tile_threads.get()), 3, 8)
    assert seen[-1] == 1                # inline, one tile: pinned as well
    assert tile_threads.get() == before

    calls = []

    def boom(start, stop, carry):
        calls.append(start)
        raise KeyError(start)

    with pytest.raises(KeyError):
        map_tiles(boom, 1000, 1)
    assert tile_threads.get() == before
    assert 1 <= len(calls) <= 4     # each worker stops at its first failure


def test_parallel_runs_stop_the_blas_workers_before_and_after(monkeypatch):
    events, count = [], [2]

    def set_(n):
        events.append(("set", n))
        count[0] = n

    blas = util._BlasThreads(get=lambda: count[0], set=set_,
                             stop_workers=lambda: events.append("stop"))
    monkeypatch.setattr(util, "_openblas_threads", lambda: blas)
    monkeypatch.setattr(util, "_cpu_count", lambda: 4)
    tile = lambda start, stop, carry: events.append("tile")

    map_tiles(tile, 8, 2)
    assert events == [("set", 1), "stop"] + ["tile"] * 4 + [("set", 2), "stop"]
    events.clear()
    map_tiles(tile, 2, 2)                   # one tile: inline, nothing stopped
    assert events == [("set", 1), "tile", ("set", 2)]
    events.clear()

    def boom(start, stop, carry):
        raise KeyError(start)

    with pytest.raises(KeyError):
        map_tiles(boom, 8, 2)
    assert events[:2] == [("set", 1), "stop"]
    assert events[-2:] == [("set", 2), "stop"]


def test_openblas_threads_work_again_after_a_parallel_run(tile_threads):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((512, 256)), rng.standard_normal((256, 256))
    before, prior = a @ b, tile_threads.get()
    for _ in range(3):
        map_tiles(lambda start, stop, carry: a[start:stop] @ b, 16, 2)
        assert tile_threads.get() == prior
        assert np.array_equal(a @ b, before)
