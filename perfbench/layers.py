"""Per-layer metrics from the spans of a traced run.

``ops`` are the client-side records of the traced measure windows: each op
has an id (shared by every span it caused), its kind and its wall interval
as the client saw it. Self time is a span's duration minus the part its
children cover. When an op's spans run one at a time, as on the serial
executor every workload uses, their self times, the probe time and the op's
unattributed remainder add up to the op's wall time; chunks on parallel
threads each keep their own self time, and the shares can then pass 1.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .measure import percentile
from .spans import LAYERS, PROBE, self_times

#: keys ``auto_select`` can return
PICK_KEYS = ("esc", "msa", "hash", "heap", "inner", "msa-loop", "msa-native",
             "hash-native")

#: name → unit of every metric :func:`layer_metrics` reports
UNITS = {
    "server.self_ms.p50": "ms",
    "server.wait_ms.p99": "ms",
    "server.coalesced_share": "share",
    "engine.self_ms.p50": "ms",
    "engine.plan_hit_rate": "share",
    "engine.result_hit_rate": "share",
    "dispatch.calls": "count",
    "dispatch.auto_select_ms.sum": "ms",
    **{f"dispatch.pick.{k}": "share" for k in PICK_KEYS},
    "dispatch.native_share": "share",
    "plan.builds": "count",
    "plan.build_ms.sum": "ms",
    "plan.symbolic_ms.sum": "ms",
    "plan.splice_ms.p50": "ms",
    "runner.self_ms.p50": "ms",
    "runner.chunks_per_call.p50": "count",
    "kernel.numeric_ms.p50": "ms",
    "kernel.share": "share",
    "kernel.mflops_per_s": "Mflop/s",
    "delta.apply_ms.p50": "ms",
    "delta.dirty_fraction.mean": "share",
    "delta.plans_spliced": "count/delta",
    "delta.results_patched": "count/delta",
    "algo.products_per_solve": "count",
    "algo.self_ms": "ms",
    **{f"{layer}.self_share": "share" for layer in LAYERS
       if layer != "kernel"},
    "trace.probe_share": "share",
    "trace.unattributed_share": "share",
}

_PRODUCTS = ("runner.masked_spgemm", "engine.multiply")


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _share(hits, total) -> float:
    return hits / total if total else 0.0


def layer_metrics(spans, ops) -> dict:
    """Every metric in :data:`UNITS`; one that the workload never exercises
    reads 0. Timings are in ms."""
    st = self_times(spans)
    kids = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            kids[sp.parent.sid].append(sp)
    measured = [sp for sp in spans if sp.phase == "measure"]

    def named(pool, *names):
        return [sp for sp in pool if sp.name in names]

    def subtree(root):
        stack = [root]
        while stack:
            sp = stack.pop()
            yield sp
            stack.extend(kids[sp.sid])

    def is_numeric(sp):
        return sp.name == "kernel.numeric"

    out = {}
    server = named(measured, "server.submit", "server.apply_delta")
    out["server.self_ms.p50"] = 1e3 * _p50(
        [st[sp.sid] for sp in server if sp.name == "server.submit"])
    waits = []
    for sp in server:
        starts = [k.t0 for k in kids[sp.sid] if k.layer in ("engine", "delta")]
        if starts:
            waits.append(min(starts) - sp.t0)
    out["server.wait_ms.p99"] = 1e3 * percentile(waits, 99) if waits else 0.0
    submits = named(server, "server.submit")
    out["server.coalesced_share"] = _share(
        sum(bool(sp.attrs.get("coalesced")) for sp in submits), len(submits))

    engine = named(measured, "engine.submit", "engine.multiply")
    out["engine.self_ms.p50"] = 1e3 * _p50([st[sp.sid] for sp in engine])
    result_hits = sum(bool(sp.attrs.get("result_hit")) for sp in engine)
    out["engine.plan_hit_rate"] = _share(
        sum(bool(sp.attrs.get("plan_hit")) for sp in engine),
        len(engine) - result_hits)
    out["engine.result_hit_rate"] = _share(result_hits, len(engine))

    picks = named(spans, "dispatch.auto_select")
    out["dispatch.calls"] = float(len(picks))
    out["dispatch.auto_select_ms.sum"] = 1e3 * sum(sp.duration for sp in picks)
    for key in PICK_KEYS:
        out[f"dispatch.pick.{key}"] = _share(
            sum(sp.attrs.get("pick") == key for sp in picks), len(picks))
    numeric = [sp for sp in measured if is_numeric(sp)]
    out["dispatch.native_share"] = _share(
        sum(sp.attrs["key"].endswith("-native") for sp in numeric),
        len(numeric))

    builds = named(spans, "plan.build")
    out["plan.builds"] = float(len(builds))
    out["plan.build_ms.sum"] = 1e3 * sum(sp.duration for sp in builds)
    out["plan.symbolic_ms.sum"] = 1e3 * sum(
        k.duration for sp in builds for k in kids[sp.sid]
        if k.name == "kernel.symbolic")
    out["plan.splice_ms.p50"] = 1e3 * _p50(
        [sp.duration for sp in named(spans, "plan.splice")])

    outer = [sp for sp in measured if sp.layer == "runner"
             and (sp.parent is None or sp.parent.layer != "runner")]
    runner_self, chunks, numeric_ms = [], [], []
    for root in outer:
        tree = list(subtree(root))
        runner_self.append(sum(st[sp.sid] for sp in tree
                               if sp.layer == "runner"))
        passes = [sp for sp in tree if is_numeric(sp)]
        chunks.append(len(passes))
        numeric_ms.append(sum(st[sp.sid] for sp in passes))
    out["runner.self_ms.p50"] = 1e3 * _p50(runner_self)
    out["runner.chunks_per_call.p50"] = float(_p50(chunks))
    out["kernel.numeric_ms.p50"] = 1e3 * _p50(numeric_ms)
    numeric_self = sum(st[sp.sid] for sp in numeric)
    out["kernel.mflops_per_s"] = (
        sum(sp.attrs.get("flops", 0) for sp in numeric) / numeric_self / 1e6
        if numeric_self > 0 else 0.0)

    deltas = named(measured, "delta.apply")
    out["delta.apply_ms.p50"] = 1e3 * _p50([sp.duration for sp in deltas])
    out["delta.dirty_fraction.mean"] = _mean(
        [sp.attrs["dirty_fraction"] for sp in deltas
         if sp.attrs.get("kind") in ("pattern", "mixed")])
    out["delta.plans_spliced"] = _mean(
        [sp.attrs.get("plans_spliced", 0) for sp in deltas])
    out["delta.results_patched"] = _mean(
        [sp.attrs.get("results_patched", 0) for sp in deltas])

    solves = [sp for sp in measured if sp.layer == "algo"]
    out["algo.products_per_solve"] = _mean(
        [sum(k.name in _PRODUCTS for k in kids[sp.sid]) for sp in solves])
    out["algo.self_ms"] = 1e3 * _mean([st[sp.sid] for sp in solves])

    op_ids = {op for op, *_ in ops}
    wall = sum(t1 - t0 for _op, _kind, t0, t1 in ops)
    by_layer = defaultdict(float)
    for sp in spans:
        if sp.op in op_ids:
            by_layer[sp.layer] += st[sp.sid]
    for layer in LAYERS:
        name = "kernel.share" if layer == "kernel" else f"{layer}.self_share"
        out[name] = _share(by_layer[layer], wall)
    out["trace.probe_share"] = _share(by_layer[PROBE], wall)
    out["trace.unattributed_share"] = _share(
        wall - sum(by_layer.values()), wall)
    return out
