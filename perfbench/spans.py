"""Span recorder for the traced run.

The recorder wraps the public entry point of every layer from the outside —
no file under ``src/`` changes — and keeps one :class:`Span` per call in
memory: name, layer, start, end, parent and op id. Where a module imported
an entry point by name, the wrapper replaces that module's attribute too.
:meth:`Recorder.uninstall` puts every original back, so untraced windows run
the unmodified program.

Parents follow a context variable, which ``asyncio.to_thread`` copies into
worker threads (and the recorder's wrapper of ``ThreadExecutor.map`` into
pool threads). The one hop it cannot follow — ``AsyncServer.submit`` hands
its request to a server worker task created at start-up — is linked by the
request object: the server span is registered under the request and the
``Engine.submit`` span that receives it adopts it as parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import itertools
import json
import sys
import time
from collections import OrderedDict, defaultdict
from typing import Callable

import numpy as np

#: layers, named after the modules they wrap
LAYERS = ("server", "engine", "dispatch", "plan", "runner", "kernel", "delta",
          "algo")
#: time the recorder spends measuring flops, kept out of every layer
PROBE = "probe"


@dataclasses.dataclass(eq=False)
class Span:
    sid: int
    name: str
    layer: str
    t0: float
    parent: "Span | None"
    op: int | None
    phase: str
    t1: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None)


@contextlib.contextmanager
def operation(op_id: int):
    """Spans opened inside (with no traced parent) belong to op ``op_id``."""
    token = _OP.set(op_id)
    try:
        yield
    finally:
        _OP.reset(token)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]`` —
    overlapping children (thread-pool chunks) count once."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span → its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent.sid].append((sp.t0, sp.t1))
    return {sp.sid: sp.duration - covered(children[sp.sid], sp.t0, sp.t1)
            for sp in spans}


class _RowFlops:
    """Per-row partial-product counts of (A, B) pairs, memoised on the
    operand objects (held, so their ids stay unique while cached)."""

    def __init__(self, capacity: int = 32):
        self._cache: OrderedDict = OrderedDict()
        self.capacity = capacity

    def __call__(self, A, B, rows) -> int:
        key = (id(A), id(B))
        hit = self._cache.get(key)
        if hit is None:
            a_rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
            per_row = np.bincount(a_rows, weights=np.diff(B.indptr)[A.indices],
                                  minlength=A.shape[0])
            cum = np.concatenate(([0], np.cumsum(per_row)))
            hit = (A, B, cum)
            self._cache[key] = hit
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        cum = hit[2]
        rows = np.asarray(rows)
        if not rows.size:
            return 0
        lo, hi = int(rows[0]), int(rows[-1])
        if hi - lo + 1 == rows.size:
            return int(cum[hi + 1] - cum[lo])
        return int((cum[rows + 1] - cum[rows]).sum())


class Recorder:
    """In-memory spans plus the wrappers that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._links: dict[int, Span] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._flops = _RowFlops()
        self._specs: dict[str, object] = {}

    # -- recording ------------------------------------------------------- #
    def _open(self, name: str, layer: str, parent: Span | None) -> Span:
        op = parent.op if parent is not None else _OP.get()
        sp = Span(next(self._ids), name, layer, time.perf_counter(), parent,
                  op, self.phase)
        self.spans.append(sp)
        return sp

    def _wrap(self, fn: Callable, name: str, layer: str, *,
              parent_of: Callable | None = None,
              on_open: Callable | None = None,
              on_return: Callable | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = parent_of(args) if parent_of is not None else None
            sp = rec._open(name, layer, parent or _CURRENT.get())
            if on_open is not None:
                on_open(sp, args)
            token = _CURRENT.set(sp)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            finally:
                sp.t1 = time.perf_counter()
                _CURRENT.reset(token)
            if on_return is not None:
                on_return(sp, args, out)
            return out

        return wrapper

    def _wrap_async(self, fn: Callable, name: str, layer: str, *,
                    on_open: Callable | None = None,
                    on_return: Callable | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sp = rec._open(name, layer, _CURRENT.get())
            if on_open is not None:
                on_open(sp, args)
            token = _CURRENT.set(sp)
            try:
                out = await fn(*args, **kwargs)
            except BaseException as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            finally:
                sp.t1 = time.perf_counter()
                _CURRENT.reset(token)
            if on_return is not None:
                on_return(sp, args, out)
            return out

        return wrapper

    # -- kernels --------------------------------------------------------- #
    def _kernel(self, fn: Callable, key: str, phase: str) -> Callable:
        """Kernel span; a numeric pass is followed by a probe span (sibling,
        outside every layer) that counts its partial products from the
        operands (``rows`` is argument 4 of ``numeric`` and of
        ``numeric_into``)."""
        rec = self

        def after(sp, args, _out):
            t0 = time.perf_counter()
            sp.attrs["flops"] = rec._flops(args[0], args[1], args[4])
            probe = rec._open("probe.flops", PROBE, sp.parent)
            probe.t0, probe.t1 = t0, time.perf_counter()

        return self._wrap(fn, f"kernel.{phase}", "kernel",
                          on_open=lambda sp, _a: sp.attrs.update(key=key),
                          on_return=after if phase == "numeric" else None)

    def _traced_spec(self, spec):
        hit = self._specs.get(spec.key)
        if hit is None or hit[0] is not spec:
            wrapped = dataclasses.replace(
                spec,
                numeric=self._kernel(spec.numeric, spec.key, "numeric"),
                symbolic=self._kernel(spec.symbolic, spec.key, "symbolic"),
                numeric_into=(None if spec.numeric_into is None else
                              self._kernel(spec.numeric_into, spec.key,
                                           "numeric")))
            hit = (spec, wrapped)
            self._specs[spec.key] = hit
        return hit[1]

    # -- install / uninstall --------------------------------------------- #
    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every ``repro`` module that
        binds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or
                                   name.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import repro.algorithms as algorithms
        from repro.core import api, plan, registry
        from repro.parallel import runner
        from repro.parallel.executor import ThreadExecutor
        from repro.service import AsyncServer, Engine

        rec = self

        def link(sp, args):
            rec._links[id(args[1])] = sp

        def unlink(sp, args, resp):
            # a coalesced request never reaches the engine
            rec._links.pop(id(args[1]), None)
            stats(sp, args, resp)

        def linked(args):
            return rec._links.pop(id(args[1]), None)

        def stats(sp, _args, resp):
            st = resp.stats
            sp.attrs.update(coalesced=st.coalesced,
                            plan_hit=st.plan_cache_hit,
                            result_hit=st.result_cache_hit,
                            algorithm=st.algorithm)

        def delta_out(sp, _args, out):
            sp.attrs.update(kind=out.kind, dirty_fraction=out.dirty_fraction,
                            plans_spliced=out.plans_spliced,
                            results_patched=out.results_patched)

        def picked(sp, _args, key):
            sp.attrs["pick"] = key

        def map_in_context(pool, fn, items):
            # pool threads start with an empty context: carry the caller's
            # current span into each chunk, so chunk spans find their parent
            ctx = contextvars.copy_context()
            return thread_map(pool, lambda item: ctx.copy().run(fn, item),
                              items)

        thread_map = ThreadExecutor.map
        self._patch_method(ThreadExecutor, "map", map_in_context)
        self._patch_method(AsyncServer, "submit", self._wrap_async(
            AsyncServer.submit, "server.submit", "server", on_open=link,
            on_return=unlink))
        self._patch_method(AsyncServer, "apply_delta", self._wrap_async(
            AsyncServer.apply_delta, "server.apply_delta", "server"))
        self._patch_method(Engine, "submit", self._wrap(
            Engine.submit, "engine.submit", "engine", parent_of=linked,
            on_return=stats))
        self._patch_method(Engine, "multiply", self._wrap(
            Engine.multiply, "engine.multiply", "engine", on_return=stats))
        self._patch_method(Engine, "apply_delta", self._wrap(
            Engine.apply_delta, "delta.apply", "delta", on_return=delta_out))
        self._replace(registry.auto_select, self._wrap(
            registry.auto_select, "dispatch.auto_select", "dispatch",
            on_return=picked))
        get_spec = registry.get_spec
        self._replace(get_spec, functools.wraps(get_spec)(
            lambda key: rec._traced_spec(get_spec(key))))
        self._replace(plan.build_plan, self._wrap(
            plan.build_plan, "plan.build", "plan"))
        self._replace(plan.splice_plan, self._wrap(
            plan.splice_plan, "plan.splice", "plan"))
        self._replace(api.masked_spgemm, self._wrap(
            api.masked_spgemm, "runner.masked_spgemm", "runner"))
        self._replace(runner.parallel_masked_spgemm, self._wrap(
            runner.parallel_masked_spgemm, "runner.parallel", "runner"))
        for name in ("triangle_count", "ktruss", "betweenness_centrality"):
            fn = getattr(algorithms, name)
            self._replace(fn, self._wrap(fn, f"algo.{name}", "algo"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._links.clear()

    # -- export ---------------------------------------------------------- #
    def chrome(self) -> dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing);
        one track per op."""
        if not self.spans:
            return {"traceEvents": []}
        base = min(sp.t0 for sp in self.spans)
        events = []
        for sp in self.spans:
            args = {"layer": sp.layer, "phase": sp.phase, "sid": sp.sid,
                    "parent": sp.parent.sid if sp.parent else None}
            args.update({k: v for k, v in sp.attrs.items()
                         if isinstance(v, (int, float, str, bool))})
            events.append({"name": sp.name, "cat": sp.layer, "ph": "X",
                           "ts": (sp.t0 - base) * 1e6,
                           "dur": sp.duration * 1e6, "pid": 1,
                           "tid": sp.op if sp.op is not None else 0,
                           "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome(), fh)
