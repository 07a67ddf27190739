"""The three workloads, each a closed loop through the public API.

* ``serve-warm`` — two clients send warm, store-keyed, two-phase
  ``algorithm="auto"`` TC requests to a default ``AsyncServer(Engine())``.
* ``stream-delta`` — over an engine with the result cache on, client A reads
  while client B alternates one delta batch with a fixed number of reads.
* ``analytics-cold`` — one caller runs ``triangle_count``, ``ktruss`` and
  ``betweenness_centrality`` with library defaults on two graphs.

An untraced run (``trace=False``) reports the end-to-end metrics. A traced
run alternates untraced and traced windows: the traced ones give the
per-layer metrics, the pair gives the tracing overhead.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.algorithms as algorithms
from repro import native
from repro.delta import DeltaBatch
from repro.service import AsyncServer, Engine, Request

from . import inputs as inp_mod
from .layers import UNITS as LAYER_UNITS
from .layers import layer_metrics
from .measure import (chunked_tail, csr_fingerprint, median, peak_rss_mb,
                      tail, windowed_rate)
from .spans import Recorder, operation

#: end-to-end metrics every run reports (untraced)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
#: end-to-end detail a traced run reports from its untraced windows, beside
#: the per-layer metrics
DETAIL = {
    "trace.overhead_pct": "%",
    "error_rate": "share",
    "delta_p50_ms": "ms",
    "delta_p90_ms": "ms",
    "tc_solve_ms": "ms",
    "ktruss_solve_ms": "ms",
    "bc_solve_ms": "ms",
}
PER_LAYER = {**LAYER_UNITS, **DETAIL}

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = {"serve-warm": 3, "stream-delta": 3, "analytics-cold": 15}
#: tail percentile of ``latency_tail_ms`` on the request workloads
TAIL_PCT = 99
DELTA_TAIL_PCT = 90
#: result-cache budget of the stream-delta engine
RESULT_CACHE_BYTES = 256 << 20
#: untraced/traced windows of a traced run (alternating, untraced first)
TRACE_WINDOWS = 4
#: sub-windows whose median completion rate is ``ops_per_s``
RATE_WINDOWS = 5


@dataclass
class Outcome:
    """What one run measured."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    recorder: Recorder | None = None


class OpLog:
    """Client-side record of every op: latency samples, failures, and the
    op intervals the trace analysis attributes spans to."""

    def __init__(self):
        self.ids = itertools.count(1)
        self.attempted = 0
        self.failures: list[str] = []
        self.reads: list[float] = []      # untraced read latencies
        self.writes: list[float] = []     # untraced delta latencies
        self.stamps: list[float] = []     # untraced op completion times
        self.untraced_spans: list[tuple] = []
        self.traced_ops: list[tuple] = []  # (op, kind, t0, t1)
        self.window = {"untraced": [0, 0.0], "traced": [0, 0.0]}

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _fresh_native_probe() -> None:
    """Forget the process-wide native probe, so every ``Engine()`` pays the
    warm-up a fresh process pays (the compiled ``.so`` stays cached)."""
    reset = getattr(native, "_reset_probe", None)
    if reset is not None:
        reset()


def _summary(outcome: Outcome, setups, ops_per_s: float, p50_s: float,
             tail_s: float, note: str) -> None:
    outcome.metrics["setup_s"] = (median(setups), "s")
    outcome.metrics["ops_per_s"] = (ops_per_s, "1/s")
    outcome.metrics["latency_p50_ms"] = (1e3 * p50_s, "ms")
    outcome.metrics["latency_tail_ms"] = (1e3 * tail_s, "ms")
    outcome.notes.append(f"samples: setup={len(setups)} {note}")


def _request_summary(outcome: Outcome, setups, log: OpLog) -> None:
    """Untraced request workloads: rate = median over sub-windows, tail =
    median of per-chunk p99s (see :func:`chunked_tail`)."""
    (t_start, t_end), = log.untraced_spans
    p99, chunks = chunked_tail(log.reads, TAIL_PCT)
    _summary(outcome, setups,
             windowed_rate(log.stamps, t_start, t_end, RATE_WINDOWS),
             median(log.reads), p99,
             f"latency={len(log.reads)} (tail = median p{TAIL_PCT} of "
             f"{chunks} chunks; rate = median of {RATE_WINDOWS} windows)")


def _finish(outcome: Outcome, log: OpLog, rss_mb: float,
            rec: Recorder | None, traced_rate=None,
            untraced_rate=None) -> None:
    """Counts, and either the peak memory (untraced run) or the per-layer
    metrics (traced run). ``rss_mb`` is read before any oracle work."""
    outcome.attempted = log.attempted
    outcome.failed = len(log.failures)
    outcome.notes += [f"failure: {f}" for f in log.failures[:5]]
    if rec is None:
        outcome.metrics["peak_rss_mb"] = (rss_mb, "MiB")
        return
    for name, value in layer_metrics(rec.spans, log.traced_ops).items():
        outcome.metrics[name] = (value, PER_LAYER[name])
    overhead = (100.0 * (untraced_rate / traced_rate - 1.0)
                if traced_rate and untraced_rate else 0.0)
    outcome.metrics["trace.overhead_pct"] = (overhead, "%")
    outcome.metrics["error_rate"] = (
        outcome.failed / max(outcome.attempted, 1), "share")
    for name, unit in DETAIL.items():
        outcome.metrics.setdefault(name, (0.0, unit))
    outcome.recorder = rec


def _windows(seconds: float, trace: bool):
    """(traced?, seconds) per measure window."""
    if not trace:
        return [(False, seconds)]
    return [(i % 2 == 1, seconds / TRACE_WINDOWS)
            for i in range(TRACE_WINDOWS)]


async def _timed_windows(seconds, trace, rec, log, run_window):
    """Run ``run_window(deadline, traced)`` per window, toggling the
    recorder between them (no op is in flight at a toggle)."""
    for traced, length in _windows(seconds, trace):
        if traced:
            rec.phase = "measure"
            rec.install()
        t0 = time.perf_counter()
        try:
            done = await run_window(t0 + length, traced)
        finally:
            if traced:
                rec.uninstall()
        t_end = time.perf_counter()
        slot = log.window["traced" if traced else "untraced"]
        slot[0] += done
        slot[1] += t_end - t0
        if not traced:
            log.untraced_spans.append((t0, t_end))


def _rate(slot) -> float:
    return slot[0] / slot[1] if slot[1] else 0.0


async def _submit(server, req, log: OpLog, traced: bool, kind: str):
    """One read; returns ``(response, t0, t1)`` or None on failure."""
    op = next(log.ids)
    log.attempted += 1
    t0 = time.perf_counter()
    try:
        with operation(op):
            resp = await server.submit(req)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        log.fail(f"{kind}: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    if traced:
        log.traced_ops.append((op, kind, t0, t1))
    else:
        log.reads.append(t1 - t0)
        log.stamps.append(t1)
    return resp, t0, t1


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
async def _setups(inp, requests: dict, reps: int, log: OpLog,
                  rec: Recorder | None, **engine_kw):
    """``reps`` set-ups, each: ``Engine(**engine_kw)`` (with the native
    warm-up), operand registration, server start, and a cold pass that
    fills the plan cache. All but the last server are closed. Returns
    ``(engine, server, seconds per set-up, cold outputs)`` where each cold
    output is ``(request key, t0, t1, fingerprint)``."""
    seconds, cold = [], []
    for rep in range(reps):
        _fresh_native_probe()
        if rec is not None:
            rec.install()
        try:
            t0 = time.perf_counter()
            engine = Engine(**engine_kw)
            for key, m in inp.operands.items():
                engine.register(key, m)
            server = AsyncServer(engine)
            await server.start()
            done = []
            for key, req in requests.items():
                log.attempted += 1
                t_sub = time.perf_counter()
                done.append((key, t_sub, await server.submit(req),
                             time.perf_counter()))
            seconds.append(time.perf_counter() - t0)
        finally:
            if rec is not None:
                rec.uninstall()
        cold += [(key, t_sub, t_end, csr_fingerprint(resp.result))
                 for key, t_sub, resp, t_end in done]
        if rep + 1 < reps:
            await server.close()
            engine.close()
    return engine, server, seconds, cold


async def _serve(seed: int, seconds: float, trace: bool) -> Outcome:
    inp = inp_mod.serve_inputs(seed)
    requests = {key: Request(a=a, b=b, mask=m, complemented=compl,
                             semiring="plus_pair", phases=2)
                for key, (a, b, m, compl) in inp.requests.items()}
    log, outcome = OpLog(), Outcome()
    rec = Recorder() if trace else None
    engine, server, setups, cold = await _setups(
        inp, requests, 1 if trace else SETUP_REPS["serve-warm"], log, rec)
    outputs = [(key, fp) for key, _t0, _t1, fp in cold]
    pos = [0] * inp_mod.SERVE_CLIENTS

    async def window(deadline, traced):
        async def client(c):
            done = 0
            stream = inp.streams[c]
            while time.perf_counter() < deadline:
                target = inp.targets[stream[pos[c] % stream.size]]
                pos[c] += 1
                got = await _submit(server, requests[(c, target)], log,
                                    traced, target)
                if got is not None:
                    outputs.append(((c, target), csr_fingerprint(
                        got[0].result)))
                    done += 1
            return done
        counts = await asyncio.gather(*(client(c) for c in
                                        range(inp_mod.SERVE_CLIENTS)))
        return sum(counts)

    try:
        await _timed_windows(seconds, trace, rec, log, window)
    finally:
        await server.close()
        engine.close()
    rss = peak_rss_mb()
    expected = inp_mod.serve_expected(inp)
    for key, fp in outputs:
        if fp != expected[key]:
            log.fail(f"client {key[0]} {key[1]}: output differs from the "
                     f"oracle")
    if not trace:
        _request_summary(outcome, setups, log)
    _finish(outcome, log, rss, rec, _rate(log.window["traced"]),
            _rate(log.window["untraced"]))
    return outcome


# ---------------------------------------------------------------------- #
# stream-delta
# ---------------------------------------------------------------------- #
def _batch(d: dict) -> DeltaBatch:
    def stack(*cols):
        return np.column_stack(cols) if cols[0].size else []

    return DeltaBatch(delete=stack(d["del_r"], d["del_c"]),
                      insert=stack(d["ins_r"], d["ins_c"], d["ins_v"]),
                      update=stack(d["upd_r"], d["upd_c"], d["upd_v"]))


async def _stream(seed: int, seconds: float, trace: bool) -> Outcome:
    inp = inp_mod.stream_inputs(seed)
    names = [k for k, _ in inp_mod.STREAM_READS]
    keys = sorted(inp.operands)
    # one Request object per client and kind: the trace links spans to
    # requests by identity
    requests = {(client, kind): Request(a=a, b=b, mask=m, semiring=sr,
                                        phases=2)
                for client in "AB"
                for kind, (a, b, m, sr) in inp.reads.items()}
    log, outcome = OpLog(), Outcome()
    rec = Recorder() if trace else None
    engine, server, setups, cold = await _setups(
        inp, {kind: r for (c, kind), r in requests.items() if c == "A"},
        1 if trace else SETUP_REPS["stream-delta"], log, rec,
        result_cache_bytes=RESULT_CACHE_BYTES)
    # (kind, key, t0, t1, fingerprint); cold reads precede every delta
    reads = [(kind, inp.reads[kind][0], t0, t1, fp)
             for kind, t0, t1, fp in cold]
    applied = {k: [] for k in keys}  # key -> [(t_start, t_end)] per batch
    pos = {"A": 0, "B": 0, "delta": 0}

    async def read(client, kind, traced):
        got = await _submit(server, requests[(client, kind)], log, traced,
                            kind)
        if got is None:
            return 0
        resp, t0, t1 = got
        reads.append((kind, inp.reads[kind][0], t0, t1,
                       csr_fingerprint(resp.result)))
        return 1

    async def window(deadline, traced):
        async def client_a():
            done = 0
            while time.perf_counter() < deadline:
                kind = names[inp.stream_a[pos["A"] % inp.stream_a.size]]
                pos["A"] += 1
                done += await read("A", kind, traced)
            return done

        async def client_b():
            done = 0
            while time.perf_counter() < deadline:
                key = keys[inp.delta_keys[pos["delta"] % inp.delta_keys.size]]
                pos["delta"] += 1
                seq = inp.deltas[key]
                if len(applied[key]) >= len(seq):
                    log.fail(f"delta sequence of {key} exhausted")
                    return done
                batch = _batch(seq[len(applied[key])])
                op = next(log.ids)
                log.attempted += 1
                t0 = time.perf_counter()
                try:
                    with operation(op):
                        await server.apply_delta(key, batch)
                except Exception as exc:  # noqa: BLE001 - counted
                    log.fail(f"delta {key}: {type(exc).__name__}: {exc}")
                    return done
                t1 = time.perf_counter()
                applied[key].append((t0, t1))
                done += 1
                if traced:
                    log.traced_ops.append((op, "delta", t0, t1))
                else:
                    log.writes.append(t1 - t0)
                    log.stamps.append(t1)
                for _ in range(inp_mod.STREAM_READS_PER_DELTA):
                    kind = names[inp.stream_b[pos["B"] % inp.stream_b.size]]
                    pos["B"] += 1
                    done += await read("B", kind, traced)
            return done

        return sum(await asyncio.gather(client_a(), client_b()))

    try:
        await _timed_windows(seconds, trace, rec, log, window)
        finals = {k: csr_fingerprint(engine.entry(k).value) for k in keys}
    finally:
        await server.close()
        engine.close()
    rss = peak_rss_mb()
    _check_stream(inp, reads, applied, finals, log)
    if not trace:
        _request_summary(outcome, setups, log)
    _finish(outcome, log, rss, rec, _rate(log.window["traced"]),
            _rate(log.window["untraced"]))
    writes = log.writes
    if trace:
        outcome.metrics["delta_p50_ms"] = (1e3 * median(writes), "ms")
        outcome.metrics["delta_p90_ms"] = (
            1e3 * tail(writes, DELTA_TAIL_PCT), "ms")
    outcome.notes.append(
        f"deltas: {sum(len(v) for v in applied.values())} applied, "
        f"{len(writes)} untraced, p50 {1e3 * median(writes):.2f} ms; "
        f"reads checked: {len(reads)}")
    return outcome


def candidate_versions(windows, t0: float, t1: float) -> range:
    """Versions of one key that were current at some moment of
    ``[t0, t1]``, given the ``(start, end)`` of every batch applied to it
    in order: version v is current from some moment of batch v's call
    until some moment of batch v+1's."""
    started = bisect.bisect_right([s for s, _ in windows], t1)
    finished = bisect.bisect_left([e for _, e in windows], t0)
    return range(finished, started + 1)


def _check_stream(inp, reads, applied, finals, log: OpLog) -> None:
    """Every read must equal the oracle of a version current at some moment
    between its submit and its reply; every store ends in the state the
    applied batches produce."""
    wanted = {k: set() for k in applied}
    spans = []
    for kind, key, t0, t1, _fp in reads:
        cands = candidate_versions(applied[key], t0, t1)
        wanted[key].update(cands)
        spans.append(cands)
    expected = {}
    for key, versions in wanted.items():
        expected.update(inp_mod.stream_expected(inp, key, versions))
    for (kind, key, t0, t1, fp), cands in zip(reads, spans):
        if not any(expected[(kind, v)] == fp for v in cands):
            log.fail(f"{kind}: output matches no version current between "
                     f"submit and reply (versions {cands.start}.."
                     f"{cands.stop - 1})")
    for key, fp in finals.items():
        if fp != inp_mod.final_state_fingerprint(inp, key, len(applied[key])):
            log.fail(f"store {key}: final state differs from the applied "
                     f"batches")


# ---------------------------------------------------------------------- #
# analytics-cold
# ---------------------------------------------------------------------- #
APPS = ("tc", "ktruss", "bc")


def _solve(app: str, g, sources):
    if app == "tc":
        return algorithms.triangle_count(g)
    if app == "ktruss":
        return algorithms.ktruss(g, inp_mod.KTRUSS_K)
    return algorithms.betweenness_centrality(g, sources)


def _solve_summary(app: str, result):
    """What a solve is checked by: the triangle count, the k-truss pattern
    fingerprint, or the centrality array."""
    if app == "tc":
        return result
    if app == "ktruss":
        sub = result.subgraph
        return inp_mod.pattern_fingerprint(sub.indptr, sub.indices, sub.shape)
    return result.centrality


def _solve_ok(app: str, summary, expected) -> bool:
    if app == "bc":
        return np.allclose(summary, expected, rtol=1e-9, atol=1e-9)
    return summary == expected


def _analytics(seed: int, seconds: float, trace: bool) -> Outcome:
    inp = inp_mod.analytics_inputs(seed)
    log, outcome = OpLog(), Outcome()
    rec = Recorder() if trace else None
    setups = []
    for _ in range(1 if trace else SETUP_REPS["analytics-cold"]):
        _fresh_native_probe()
        t0 = time.perf_counter()
        engine = Engine()
        setups.append(time.perf_counter() - t0)
        engine.close()
    passes = {False: [], True: []}
    per_app = {app: [] for app in APPS}
    outputs = []  # (app, graph, summary)
    deadline = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < deadline or len(passes[False]) < 2:
        if rec is not None:
            rec.phase = "measure"
            if traced:
                rec.install()
        t_pass = 0.0
        times = dict.fromkeys(APPS, 0.0)
        try:
            for app in APPS:
                for name, g in inp.graphs.items():
                    op = next(log.ids)
                    log.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        with operation(op):
                            result = _solve(app, g, inp.sources[name])
                    except Exception as exc:  # noqa: BLE001 - counted
                        log.fail(f"{app}/{name}: {type(exc).__name__}: {exc}")
                        continue
                    t1 = time.perf_counter()
                    outputs.append((app, name, _solve_summary(app, result)))
                    if traced:
                        log.traced_ops.append((op, app, t0, t1))
                    times[app] += t1 - t0
                    t_pass += t1 - t0
        finally:
            if traced:
                rec.uninstall()
        passes[traced].append(t_pass)
        if not traced:
            for app in APPS:
                per_app[app].append(times[app])
        traced = trace and not traced
    rss = peak_rss_mb()
    expected = inp_mod.analytics_expected(inp)
    for app, name, summary in outputs:
        if not _solve_ok(app, summary, expected[(app, name)]):
            log.fail(f"{app}/{name}: result differs from the oracle")
    untraced = passes[False]
    if not trace:
        # a run holds a handful of passes: no percentile above the median
        # has ten samples beyond it, so the tail is the slowest pass
        _summary(outcome, setups, 1.0 / median(untraced), median(untraced),
                 max(untraced), f"passes={len(untraced)} (tail = slowest)")
    _finish(outcome, log, rss, rec,
            1.0 / statistics.fmean(passes[True]) if passes[True] else None,
            1.0 / statistics.fmean(untraced))
    if trace:
        for app in APPS:
            outcome.metrics[f"{app}_solve_ms"] = (
                1e3 * median(per_app[app]), "ms")
    outcome.notes.append(
        f"passes: {len(untraced)} untraced, {len(passes[True])} traced; "
        + ", ".join(f"{app} median {1e3 * median(per_app[app]):.1f} ms"
                    for app in APPS))
    return outcome


WORKLOADS = {
    "serve-warm": lambda seed, s, t: asyncio.run(_serve(seed, s, t)),
    "stream-delta": lambda seed, s, t: asyncio.run(_stream(seed, s, t)),
    "analytics-cold": _analytics,
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return WORKLOADS[workload](seed, seconds, trace)
