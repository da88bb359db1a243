"""Span tracing of manifold_sde from outside the package.

Nothing under ``src/`` knows about tracing.  A :class:`Tracer` wraps the
public callables the layers hand each other -- handle fields (rebuilt with
``dataclasses.replace``), the ``RngStream`` methods, ``Stepper.step`` through
the ``make_stepper`` name the harness imports, cost callables, and the CLI
helpers -- and records one span per call: id, parent id, name, thread, start,
end and a count.  Spans stay in memory until :meth:`Tracer.write` at the end of
the run.  A layer's self time is its spans' duration minus the part of each
span covered by its child spans (the union of their intervals, so children
running in parallel worker threads are not counted twice).
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    thread: int
    start_ns: int
    end_ns: int
    count: int
    ok: int


class Tracer:
    """Collects spans; ``root`` parents spans opened on threads with no open span.

    The harness runs chunks on pool threads, whose first span has no parent on
    its own thread; while a traced ``simulate`` runs, ``root`` is that call's
    span, so chunk work is charged to the simulate call that spawned it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, is_root=False):
        """``fn`` inside a span called ``name``.

        ``count(args, result)`` returns ``(count, ok)`` stored on the span.
        ``is_root`` makes the span the parent of spans on other threads.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            stack.append(sid)
            outer_root = self.root
            if is_root:
                self.root = sid
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    self.root = outer_root
            n, ok = count(args, out) if count is not None else (0, 0)
            self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                   start, end, n, ok))
            return out

        return traced

    # -- per-layer wrapping ---------------------------------------------------

    def handle(self, handle):
        """A traced copy of a ``ManifoldHandle``.

        Field callables are wrapped through ``dataclasses.replace`` (the
        tubular retraction too).  ``constraint_residual`` and
        ``functional_point`` are methods, so the copy is an instance of a
        subclass that overrides them with traced versions of the originals.
        The differential of a tubular retraction at a manifold point is the
        tangent projection, so it is charged to ``manifolds.project``.
        """
        from manifold_sde.geometry import ManifoldHandle

        def opt(name, fn):
            return None if fn is None else self.wrap(name, fn)

        tub = handle.tubular
        tubular = dataclasses.replace(
            tub,
            mapping=self.wrap("manifolds.retract", tub.mapping),
            differential=opt("manifolds.project", tub.differential),
            domain=opt("manifolds.domain", tub.domain),
        )
        fields = {f.name: getattr(handle, f.name) for f in dataclasses.fields(handle)}
        fields.update(
            metric=self.wrap("manifolds.metric", handle.metric),
            metric_inv=self.wrap("manifolds.metric", handle.metric_inv),
            project=self.wrap("manifolds.project", handle.project),
            christoffel=self.wrap("manifolds.christoffel", handle.christoffel),
            sigma=self.wrap("manifolds.sigma", handle.sigma),
            ito_drift=self.wrap("manifolds.drift", handle.ito_drift),
            strat_drift=self.wrap("manifolds.drift", handle.strat_drift),
            in_domain=opt("manifolds.domain", handle.in_domain),
            tubular=tubular,
        )
        traced_cls = type("TracedHandle", (ManifoldHandle,), {
            "constraint_residual": self.wrap("geometry.residual",
                                             ManifoldHandle.constraint_residual),
            "functional_point": self.wrap("geometry.functional_point",
                                          ManifoldHandle.functional_point),
        })
        return traced_cls(**fields)

    def cost(self, cost):
        """A traced copy of a ``CostFunctional``."""
        return dataclasses.replace(
            cost,
            running=None if cost.running is None else self.wrap("costs.running", cost.running),
            terminal=None if cost.terminal is None else self.wrap("costs.terminal", cost.terminal),
        )

    def rng_class(self):
        """A ``RngStream`` subclass whose stream opening and draws are spans.

        The harness draws a path's noise block as one ``(n_div, *noise)``
        array and each retry as a single ``noise`` array, so a draw with the
        rank of the noise shape is a retry.  The next step call on the same
        thread is then the retry step.  The count is the bytes drawn.
        """
        from manifold_sde.rng import RngStream

        tracer = self
        local = self._local

        def nbytes(args, out):
            return int(np.asarray(out).nbytes), 0

        block_draw = self.wrap("rng.normal", RngStream.normal, count=nbytes)
        retry_draw = self.wrap("rng.retry_normal", RngStream.normal, count=nbytes)

        class TracedRngStream(RngStream):
            __post_init__ = tracer.wrap("rng.open", RngStream.__post_init__)

            def normal(self, shape=()):
                if len(shape) == 2:
                    local.retry = True
                    return retry_draw(self, shape)
                return block_draw(self, shape)

        return TracedRngStream

    def stepper_factory(self, make_stepper):
        """``make_stepper`` returning steppers whose ``step`` is a span.

        The count is rows stepped; ``ok`` is rows whose proposal was accepted.
        """
        local = self._local

        def rows(args, out):
            ok = np.asarray(out.ok)
            return int(ok.size), int(np.count_nonzero(ok))

        def factory(*args, **kwargs):
            stepper = make_stepper(*args, **kwargs)
            step = self.wrap("integrators.step", stepper.step, count=rows)
            retry = self.wrap("integrators.retry_step", stepper.step, count=rows)

            def dispatch(x, t, h, inc):
                if getattr(local, "retry", False):
                    local.retry = False
                    return retry(x, t, h, inc)
                return step(x, t, h, inc)

            return dataclasses.replace(stepper, step=dispatch)

        return factory

    @contextlib.contextmanager
    def installed(self):
        """Patch the package's module-level names for the duration of a pass.

        Patched: the harness's ``RngStream`` and ``make_stepper``, the
        integrators' ``mu_retraction_adjusted``, and the CLI's
        ``parse_config``, ``make_manifold``, ``make_cost``, ``simulate`` and
        ``_write_csv``.  Handles and costs built by the benchmark itself are
        wrapped with :meth:`handle` and :meth:`cost`.
        """
        from manifold_sde import cli, harness, integrators

        patches = [
            (harness, "RngStream", self.rng_class()),
            (harness, "make_stepper", self.stepper_factory(harness.make_stepper)),
            (integrators, "mu_retraction_adjusted",
             self.wrap("integrators.mu_adjust", integrators.mu_retraction_adjusted)),
            (cli, "parse_config", self.wrap("cli.parse", cli.parse_config)),
            (cli, "make_manifold",
             lambda *a, _f=cli.make_manifold, **k: self.handle(_f(*a, **k))),
            (cli, "make_cost", lambda *a, _f=cli.make_cost, **k: self.cost(_f(*a, **k))),
            (cli, "simulate", self.simulate(cli.simulate)),
            (cli, "_write_csv", self.wrap("cli.csv_write", cli._write_csv)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    def simulate(self, simulate):
        """``simulate`` as a root span: its self time is harness bookkeeping."""
        return self.wrap("harness.simulate", simulate, is_root=True)

    # -- reporting ------------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: ``[self seconds, calls, count sum, ok sum]``."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start_ns, s.end_ns))
        out = defaultdict(lambda: [0.0, 0, 0, 0])
        for s in self.spans:
            covered = _covered(children.get(s.sid, ()), s.start_ns, s.end_ns)
            agg = out[s.name]
            agg[0] += (s.end_ns - s.start_ns - covered) * 1e-9
            agg[1] += 1
            agg[2] += s.count
            agg[3] += s.ok
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Summed duration in seconds of the spans called ``name``."""
        return sum(s.end_ns - s.start_ns for s in self.spans if s.name == name) * 1e-9

    def threads_per_root(self, root_name: str, child_name: str) -> int:
        """Most distinct threads that ran ``child_name`` spans under one root span."""
        roots = {s.sid for s in self.spans if s.name == root_name}
        parent_of = {s.sid: s.parent for s in self.spans}
        threads = defaultdict(set)
        for s in self.spans:
            if s.name != child_name:
                continue
            p = s.parent
            while p and p not in roots:
                p = parent_of.get(p, 0)
            if p:
                threads[p].add(s.thread)
        return max((len(t) for t in threads.values()), default=0)

    def write(self, path) -> None:
        """Write every span as CSV, times in ns from the first span's start."""
        t0 = min((s.start_ns for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,thread,start_ns,end_ns,count,ok\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(f"{s.sid},{s.parent},{s.name},{s.thread},"
                         f"{s.start_ns - t0},{s.end_ns - t0},{s.count},{s.ok}\n")


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
