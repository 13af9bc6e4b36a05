"""Span tracer that wraps kirchhoff's public functions from outside the package.

A wrapper is installed in every module namespace that binds the wrapped
function: `verify` imports `tree_count` by name, so patching `spectral`
alone would miss its calls. Spans are not stored one by one. Each span
closes into per-name self-time and count totals kept in memory, which is
all the per-layer metrics need. A span's self time is its duration minus
the durations of the spans it directly contains, so the self times of all
spans plus the root's own self time add up to the root span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import kirchhoff.cli
import kirchhoff.enumeration as enumeration
import kirchhoff.families as families
import kirchhoff.graphs as graphs
import kirchhoff.spectral as spectral
import kirchhoff.verify as verify

ROOT = "trace.root"


class Tracer:
    """Per-span-name self seconds and counters for one traced process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list] = []  # open spans: [name, seconds of direct children]

    def _count(self, count, args, result) -> None:
        for key, amount in count(args, result).items():
            self.counts[key] += amount

    def span(self, name, fn, under=None, elsewhere=None, count=None):
        """`fn` timed as span `name`.

        With `under`, only calls made directly inside an open `under` span
        are timed; other calls go to `elsewhere` (default `fn`) untimed.
        `count(args, result)` returns counter increments, added after the call.
        """
        stack, totals, clock = self._stack, self.self_s, time.perf_counter
        elsewhere = elsewhere or fn

        def wrapper(*args, **kwargs):
            if under is not None and stack[-1][0] != under:
                return elsewhere(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                totals[name] += elapsed - frame[1]
                stack[-1][1] += elapsed
            if count is not None:
                self._count(count, args, result)
            return result

        return wrapper

    def counter(self, fn, count):
        """`fn` with its `count(args, result)` increments added, no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(count, args, result)
            return result

        return wrapper

    def span_each_next(self, name, generator_fn, count=None):
        """A generator function whose every `next` is timed as span `name`."""

        def wrapper(*args, **kwargs):
            step = self.span(name, generator_fn(*args, **kwargs).__next__, count=count)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    @contextmanager
    def root(self):
        """The root span; its self time is what no layer span covers."""
        if self._stack:
            raise RuntimeError("root span is already open")
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[ROOT] += elapsed - frame[1]
            self.root_s += elapsed


def _calls(key):
    return lambda args, result: {key: 1}


def _hooks(t: Tracer) -> list[tuple[object, object]]:
    """(original, wrapper) for every traced function."""
    e, s, g, v, f = enumeration, spectral, graphs, verify, families
    eigvalsh = np.linalg.eigvalsh
    return [
        (e.subset_blocks, t.span_each_next(
            "enumeration.generate", e.subset_blocks,
            count=lambda a, r: {"enumeration.blocks": 1, "enumeration.rows": r[1].shape[0]})),
        (e.batch_eigenvalues, t.span(
            "enumeration.assemble", e.batch_eigenvalues,
            count=lambda a, r: {"enumeration.solved_rows": r.shape[0]})),
        (eigvalsh, t.span(
            "enumeration.solve", eigvalsh, under="enumeration.assemble",
            elsewhere=t.counter(eigvalsh, _calls("spectral.eigvalsh.calls")))),
        (e.batch_kf, t.span(
            "enumeration.kf", e.batch_kf,
            count=lambda a, r: {"enumeration.connected_rows": int(r[0].sum())})),
        (e._pool_top_groups, t.counter(
            e._pool_top_groups, lambda a, r: {"enumeration.pooled_rows": r[0].size})),
        (e.scan_subsets, t.span("enumeration.pool", e.scan_subsets)),
        (e.wiener_block, t.span(
            "enumeration.wiener", e.wiener_block,
            count=lambda a, r: {"enumeration.rows": r.shape[0]})),
        (e.scan_labeled_trees, t.span("enumeration.hist", e.scan_labeled_trees)),
        (s.tree_count, t.span(
            "spectral.tree_count", s.tree_count, count=_calls("spectral.tree_count.calls"))),
        (s.laplacian_spectrum, t.span(
            "spectral.crosscheck", s.laplacian_spectrum, under="spectral.tree_count")),
        (s.kf_spectral, t.span(
            "spectral.kf_spectral", s.kf_spectral, count=_calls("spectral.kf_spectral.calls"))),
        (g.make_graph, t.span("graphs.make_graph", g.make_graph)),
        (g.is_connected, t.span("graphs.is_connected", g.is_connected)),
        (g.graph6_encode, t.span("graphs.graph6", g.graph6_encode)),
        (v.verify_theorem, t.span("verify.self", v.verify_theorem)),
        (v.extremal_search, t.span("verify.self", v.extremal_search)),
        (v.bound_eval, t.span("verify.bound_eval", v.bound_eval)),
        (v.complement_shape, t.span("verify.complement_shape", v.complement_shape)),
        (v.labeled_copy_count, t.span("verify.copy_count", v.labeled_copy_count)),
        (v.render_report, t.span("cli.render", v.render_report)),
        (f.build, t.span("families.build", f.build)),
        (f.closed_form_kf, t.span("families.closed_form", f.closed_form_kf)),
    ]


@contextmanager
def installed(t: Tracer):
    """Bind every wrapper wherever its original is bound; restore on exit.

    Opens the root span and yields the traced `kirchhoff.cli.main`, whose
    span is `cli.self`.
    """
    namespaces = [m for name, m in sys.modules.items() if name == "kirchhoff" or name.startswith("kirchhoff.")]
    namespaces.append(np.linalg)
    patched = []
    try:
        for original, wrapper in _hooks(t):
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        with t.root():
            yield t.span("cli.self", kirchhoff.cli.main)
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
