"""Small shared helpers: the config fingerprint, the binary container
layout shared by the four file formats, and the tile-parallel map.

`map_tiles` runs independent per-sample work (codeword adaptation,
decoding, validation) over tiles of a stack, one thread per CPU in the
process's affinity mask. NumPy's GEMMs, FiLM, sin and cos loops release the
interpreter lock, so the threads overlap. While it runs, NumPy's bundled
OpenBLAS is pinned to one thread, set at run time through its exported
`scipy_openblas_set_num_threads64_`; the caller's count is restored on the
way out. OpenBLAS's own worker threads keep a core busy for ~0.1 s after
every multi-threaded call before they sleep, so a parallel region stops
them first (its exported `blas_thread_shutdown_`, which OpenBLAS also runs
before every fork) and again on the way out; the library starts them anew
on its next multi-threaded call. Restrict the CPUs with `taskset` to use
fewer.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np


def config_fingerprint(config: dict) -> str:
    """Stable 12-hex-digit digest of a flat config mapping.

    Keys are sorted; values are rendered with repr for floats (full
    precision) and str otherwise, None as "none". Every CLI command prints
    this for its resolved configuration so runs can be told apart.
    """
    parts = []
    for key in sorted(config):
        value = config[key]
        if value is None:
            text = "none"
        elif isinstance(value, float):
            text = repr(value)
        elif isinstance(value, (list, tuple)):
            text = ",".join("none" if v is None else
                            (repr(v) if isinstance(v, float) else str(v))
                            for v in value)
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    blob = "\n".join(parts).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# Inclusive ranges of container header fields.
DIM = (1, 0xFFFFFFFF)                              # a u32 size: at least 1
BIT_WIDTH = (1, 16)                                # quantizer bits per symbol
POSITIVE = (math.ulp(0.0), sys.float_info.max)     # an f64: finite and > 0


class Container:
    """A versioned little-endian file layout: 4-byte magic, u32 version, a
    fixed header of named fields, then a body whose exact byte count follows
    from them. `fields` lists (name, struct code, inclusive (low, high) range
    or None) in file order; `body_size` maps the fields (a dict) to bytes.
    """

    def __init__(self, kind: str, magic: bytes, version: int, fields: tuple,
                 body_size: Callable[[dict], int]):
        self.kind = kind
        self.magic = magic
        self.version = version
        self.fields = fields
        self.header = struct.Struct("<4sI" + "".join(code for _, code, _ in fields))
        self.body_size = body_size

    def pack(self, *values) -> bytes:
        """Header bytes for these field values, given in file order."""
        return self.header.pack(self.magic, self.version, *values)

    def unpack(self, blob: bytes, context: str) -> tuple[dict, memoryview]:
        """Check a whole file and split it into (header fields, body).

        Checks magic, version, every field's range, then the exact size,
        computed from the fields alone, so nothing is allocated for a body
        before its header holds. Raises ValueError starting with `context`.
        """
        if bytes(blob[:4]) != self.magic:
            raise ValueError(f"{context}: bad magic {bytes(blob[:4])!r}, "
                             f"expected {self.magic!r}")
        if len(blob) < self.header.size:
            raise ValueError(f"{context}: truncated {self.kind} header")
        _, version, *values = self.header.unpack_from(blob)
        if version != self.version:
            raise ValueError(f"{context}: unsupported {self.kind} version {version}")
        fields = {}
        for (name, _, bounds), value in zip(self.fields, values):
            if bounds is not None and not bounds[0] <= value <= bounds[1]:
                raise ValueError(f"{context}: {name} {value!r} is outside "
                                 f"[{bounds[0]!r}, {bounds[1]!r}]")
            fields[name] = value
        expected = self.body_size(fields)
        body = memoryview(blob)[self.header.size:]
        if len(body) != expected:
            raise ValueError(f"{context}: {self.kind} payload length {len(body)} "
                             f"does not match the {expected} bytes its header gives")
        return fields, body

    def load(self, path) -> tuple[dict, memoryview]:
        """Read and unpack one file; errors name the path."""
        with open(path, "rb") as fh:
            blob = fh.read()
        return self.unpack(blob, str(path))


def _no_workers() -> None:
    pass


@dataclass(frozen=True)
class _BlasThreads:
    """Getter and setter of the BLAS library's thread count, and a call that
    stops its idle worker threads until the library next needs them."""

    get: Callable[[], int]
    set: Callable[[int], None]
    stop_workers: Callable[[], None] = _no_workers


@cache
def _openblas_threads() -> _BlasThreads | None:
    """Thread-count handle of the OpenBLAS that NumPy links, or None.

    Only the scipy-openblas build that NumPy wheels bundle is recognised:
    any other BLAS, or a build without the exported symbols, gives None.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    if blas.get("name") != "scipy-openblas":
        return None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*"))):
        lib = ctypes.CDLL(path)   # already loaded by NumPy: the same instance
        try:
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        stop = getattr(lib, "blas_thread_shutdown_", None)
        if stop is None:
            return _BlasThreads(get=get, set=set_)
        stop.argtypes, stop.restype = [], ctypes.c_int
        return _BlasThreads(get=get, set=set_, stop_workers=stop)
    return None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_tiles(fn: Callable, count: int, tile: int) -> None:
    """Call fn(start, stop, carry) for every tile [start, stop) of range(count).

    Tiles hold at most `tile` rows and run on up to one thread per CPU in
    the affinity mask. Each thread passes a carry through its tiles: its
    first call gets None and every later call what the previous one
    returned, so a worker can reuse its buffers (an activation tape). fn
    must write only its own tile's part of a shared result, so the result
    does not depend on which thread ran which tile.

    While the call runs, NumPy's OpenBLAS runs one thread per GEMM, so
    concurrent tiles do not contend for the cores; the caller's thread
    count is restored on the way out, also when fn raises. A parallel run
    also stops OpenBLAS's worker threads when it starts and again after the
    restore (which restarts them): right after a multi-threaded GEMM of the
    caller they spin for ~0.1 s and take a core from the tiles (a 64-message
    round ran 30-80% longer, measured). Like a fork, this must not overlap a
    BLAS call on another thread. Inline runs are pinned too: at a tile's
    few rows a second BLAS thread gains little, and after a parallel region
    it has to be started, so the single messages that follow would wait on
    it (up to twice their time, measured). A raising
    tile stops the tiles not yet started, and its exception is re-raised
    here. Runs inline, in tile order, when there is one tile or one CPU,
    and also without an OpenBLAS thread handle, in which case nothing is
    pinned.
    """
    if tile < 1:
        raise ValueError("tile must be >= 1")
    starts = range(0, count, tile)
    blas = _openblas_threads()
    pending = iter(starts)
    lock = threading.Lock()
    failed = threading.Event()

    def work():
        carry = None
        try:
            while not failed.is_set():
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                carry = fn(start, min(start + tile, count), carry)
        except BaseException:
            failed.set()
            raise

    if blas is None:
        work()
        return
    workers = min(len(starts), _cpu_count())
    prior = blas.get()
    blas.set(1)
    try:
        if workers <= 1:
            work()
        else:
            blas.stop_workers()
            with ThreadPoolExecutor(workers, thread_name_prefix="csicodec-tile") as pool:
                futures = [pool.submit(work) for _ in range(workers)]
            for future in futures:
                future.result()
    finally:
        failed.set()    # an interrupted wait leaves no tile to start
        blas.set(prior)
        if workers > 1:
            blas.stop_workers()
