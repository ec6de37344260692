"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: while a traced call runs,
the names the package's callers look up (module attributes such as
``rand_srrqr.apply`` and class attributes such as
``SrrqrState._advance``) are replaced by wrappers that time the original.
Untraced calls run with nothing installed.  Spans are kept in memory and
written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    call_id: int
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# -- computed operation counts, read off the arguments of a span -------------


def _sketch_attrs(args, kwargs, out) -> dict:
    op, mat = args[0], args[1]
    n = mat.shape[1]
    if op.kind == "srht":
        ops = n * op.m * math.log2(op.m)  # one add or subtract per butterfly
    elif op.kind == "gaussian":
        ops = 2.0 * op.d * op.m * n
    else:
        ops = 0.0
    return {"kind": op.kind, "rows": op.m, "ops": ops}


def _pad_attrs(args, kwargs, out) -> dict:
    return {"rows_in": args[0].shape[0], "rows_out": out.shape[0]}


def _final_qr_attrs(args, kwargs, out) -> dict:
    m, n = args[0].shape
    return {"flops": 2.0 * m * n * n - 2.0 * n**3 / 3.0}


def _srrqr_attrs(args, kwargs, out) -> dict:
    return {"k": out.k, "swaps": out.swap_count}


def _rand_attrs(args, kwargs, out) -> dict:
    return {"k": out.k, "eps_measured": bool(out.distortion_is_measured)}


# (module, attribute path, span name, attrs); the wrapped attribute is the
# one the caller looks up, e.g. rand_srrqr imports apply, srrqr and
# stable_partial_qr by name, so those are patched in rand_srrqr's namespace.
TRACE_POINTS = [
    ("spectra_rrqr.rand_srrqr", "rand_srrqr_tol", "rand_srrqr.rand_srrqr_tol", _rand_attrs),
    ("spectra_rrqr.rand_srrqr", "rand_srrqr_rank", "rand_srrqr.rand_srrqr_rank", _rand_attrs),
    ("spectra_rrqr.rand_srrqr", "pad_rows_pow2", "sketch.pad", _pad_attrs),
    ("spectra_rrqr.rand_srrqr", "apply", "sketch.apply", _sketch_attrs),
    ("spectra_rrqr.sketch", "fwht", "sketch.fwht", None),
    ("spectra_rrqr.sketch", "_gaussian_block", "sketch.rng", None),
    ("spectra_rrqr.rand_srrqr", "srrqr", "srrqr.srrqr", _srrqr_attrs),
    ("spectra_rrqr.srrqr", "srrqr", "srrqr.srrqr", _srrqr_attrs),
    ("spectra_rrqr.srrqr", "SrrqrState._advance", "srrqr.growth", None),
    ("spectra_rrqr.srrqr", "SrrqrState._interchange_core", "srrqr.interchange", None),
    ("spectra_rrqr.rand_srrqr", "stable_partial_qr", "dense_core.final_qr", _final_qr_attrs),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            out, ok = None, False
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                extra = attrs(args, kwargs, out) if (attrs and ok) else {}
                self.spans.append(Span(span_id, name, start, end, parent, self.call_id, extra))

        return traced

    @contextlib.contextmanager
    def installed(self, call_id: int):
        """Install every trace point for one call, then restore the originals."""
        self.call_id = call_id
        saved = []
        try:
            for modname, path, name, attrs in TRACE_POINTS:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, attrs))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part its children cover (calls are serial,
    so children of one span never overlap)."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return {s.span_id: s.duration_ns - covered[s.span_id] for s in spans}
