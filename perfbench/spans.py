"""Spans around calls into lrcompress's modules, held in memory.

Wrappers replace the module attributes that the library's callers look up
at call time, so no library code changes. A span is (name, start, end,
parent); a layer's self time is its span minus the spans it directly
contains.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from lrcompress import EntryOracle

# (module, attribute, span name). Several names can reach one function:
# lr_recompress looks truncated_svd up in linalg, the merges in hmerge.
PATCHES = [
    ("lrcompress.baca", "select_pivot_blocks", "baca.select_pivot_blocks"),
    ("lrcompress.baca", "lrid", "baca.lrid"),
    ("lrcompress.baca", "qrcp", "linalg.qrcp"),
    ("lrcompress.baca", "lr_recompress", "linalg.lr_recompress"),
    ("lrcompress.linalg", "truncated_svd", "linalg.truncated_svd"),
    ("lrcompress.hmerge", "baca_compress", "baca.baca_compress"),
    ("lrcompress.hmerge", "truncated_svd", "linalg.truncated_svd"),
    ("lrcompress.hmerge", "merge_pair_horizontal", "hmerge.merge_pair_horizontal"),
    ("lrcompress.hmerge", "merge_pair_vertical", "hmerge.merge_pair_vertical"),
    ("lrcompress.aca", "lr_norm_update", "aca.lr_norm_update"),
    ("lrcompress.kernels", "bessel_j0", "bessel.bessel_j0"),
    ("lrcompress.kernels", "bessel_y0", "bessel.bessel_y0"),
]


class Tracer:
    """Spans of one call, appended in start order."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.results = defaultdict(list)  # span name -> return values kept

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def _lookup(module, attr):
    return getattr(importlib.import_module(module), attr)


class Traced:
    """Stand-in for a library function that records a span per call.

    Pickles as a reference to the module attribute, so tasks sent to a
    process pool still ship; spans recorded in pool workers stay there.
    """

    def __init__(self, tracer, module, attr, name, keep_result=False):
        self.tracer = tracer
        self.module = module
        self.attr = attr
        self.name = name
        self.fn = _lookup(module, attr)
        self.keep_result = keep_result

    def __call__(self, *args, **kwargs):
        with self.tracer.span(self.name):
            out = self.fn(*args, **kwargs)
        if self.keep_result:
            self.tracer.results[self.name].append(out)
        return out

    def __reduce__(self):
        return _lookup, (self.module, self.attr)


@contextmanager
def installed(tracer):
    """Patch every PATCHES entry with a Traced wrapper, restoring on exit."""
    originals = []
    try:
        for module, attr, name in PATCHES:
            wrapper = Traced(tracer, module, attr, name,
                             keep_result=name == "baca.baca_compress")
            originals.append((module, attr, wrapper.fn))
            setattr(importlib.import_module(module), attr, wrapper)
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(importlib.import_module(module), attr, fn)


class CountingOracle(EntryOracle):
    """Delegating oracle that spans and counts every ``block`` call.

    The inherited ``subblock`` wraps this proxy, so H-BACA leaf gathers are
    counted too.
    """

    def __init__(self, base, tracer):
        self.base = base
        self.tracer = tracer
        self.rows, self.cols, self.dtype = base.rows, base.cols, base.dtype
        self.entries = 0

    def element(self, i, j):
        return self.base.element(i, j)

    def block(self, row_idx, col_idx):
        row_idx = np.asarray(row_idx)
        col_idx = np.asarray(col_idx)
        self.entries += row_idx.size * col_idx.size
        with self.tracer.span("kernels.block"):
            return self.base.block(row_idx, col_idx)


def summarize(spans):
    """Per-name inclusive seconds, self seconds and call counts.

    Self times sum to the duration of the root spans, since every span's
    duration is split between itself and its direct children.
    """
    inclusive, own, calls = Counter(), Counter(), Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child_time):
        own[name] += end - start - inner
    return inclusive, own, calls
