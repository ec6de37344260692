"""Reference kernel: a fixed piece of work that tracks the host's speed.

The benchmark runs on shared machines whose speed drifts with other load,
by up to 40% over minutes, far more than the changes it should resolve.
A block of reference kernel runs follows every factorization call, taking
about ``SHARE`` of the call's time, and a call's cost is its wall time
divided by the mean kernel time of the blocks that bracket it.  Drift slows
both alike and cancels in the ratio; a change to the package moves only the
call.

The kernel uses only Python, numpy and LAPACK, never the package, and mixes
the kinds of work the package does, in about equal shares of time: an
interpreted loop, a column-by-column elimination made of small numpy
operations, a LAPACK QR, a matrix product, and column sums over the
workload's fixtures, which reads memory far past the core's caches as the
package does.  Its own arrays are fixed and take about 2 MB, so it adds
little to the peak memory the benchmark reports; the fixtures of a workload
are the same in every run of it.
"""
from __future__ import annotations

import time

import numpy as np

SHARE = 0.05
STREAM_BYTES = 64e6  # read per kernel run by the column sums

_RNG = np.random.default_rng(20250324)
_SMALL = _RNG.standard_normal((512, 64))
_TALL = _RNG.standard_normal((1536, 128))
_SQUARE = _RNG.standard_normal((256, 256))


def _interpreted() -> int:
    s = 0
    for i in range(150_000):
        s += i * i
    return s


def _small_ops() -> None:
    for _ in range(2):
        x = _SMALL.copy()
        for j in range(x.shape[1]):
            v = x[:, j] / np.linalg.norm(x[:, j])
            x[:, j:] -= np.outer(v, v @ x[:, j:])


def _lapack_qr() -> None:
    np.linalg.qr(_TALL, mode="r")


def _product() -> None:
    for _ in range(15):
        _SQUARE @ _SQUARE


def _stream(arrays) -> None:
    passes = max(1, round(STREAM_BYTES / sum(a.nbytes for a in arrays)))
    for _ in range(passes):
        for a in arrays:
            a.sum(axis=0)


def run_ms(arrays) -> float:
    """Run the kernel once over the fixture ``arrays``; return its wall time
    in milliseconds."""
    t0 = time.perf_counter()
    _interpreted()
    _small_ops()
    _lapack_qr()
    _product()
    _stream(arrays)
    return (time.perf_counter() - t0) * 1e3


def block_ms(arrays, call_ms: float, ref_ms: float) -> float:
    """Run the kernel often enough to take about ``SHARE`` of the time of a
    call that lasted ``call_ms``, given a kernel run of ``ref_ms``; at least
    once.  Return the mean wall time of one run in milliseconds."""
    runs = max(1, round(SHARE * call_ms / ref_ms))
    return sum(run_ms(arrays) for _ in range(runs)) / runs
