#!/usr/bin/env python
"""Chunk-budget checker: are the ``BYTES_PER_FLOP`` constants honest?

The cache-aware partitioner (:mod:`repro.parallel.partition`) sizes chunks
so each one streams roughly :data:`DEFAULT_CHUNK_CACHE_BYTES` of memory
traffic: a kernel tier's ``BYTES_PER_FLOP`` constant converts the cache
target into a per-chunk flops budget. That normalization has a directly
observable consequence — *every* correctly-calibrated tier should produce
per-chunk wall times near ``cache_bytes / stream_bandwidth``, regardless of
how many flops its chunks carry. A constant that is too small packs too few
flops per chunk (times collapse toward dispatch overhead); one that is too
large overfills the cache (times balloon past the streaming bound).

This tool serves a triangle-counting workload through a real
:class:`repro.service.Engine` once per kernel tier: ``msa``/``hash`` with
the compiled backend withheld (fused kernels, :data:`FUSED_BYTES_PER_FLOP`)
and, when the native probe passes, with it (compiled loops,
:data:`NATIVE_BYTES_PER_FLOP`). Each tier gets a fresh engine, so its
``repro_chunk_seconds{kernel,phase="numeric"}`` histograms — read back
through the same Prometheus text exposition a scraper would see — hold that
tier's chunks only. It interpolates the p50 per kernel and tier from the
cumulative buckets, and flags any whose p50
falls outside a ``BAND``-wide window around the streaming model. The band
is deliberately loose (machine bandwidth varies ~10x across CI boxes): the
check catches order-of-magnitude mispredictions — a stale constant after a
kernel rewrite — not single-digit drift.

Advisory by default (always exits 0, prints one line per kernel);
``--strict`` turns violations into a nonzero exit for local tuning runs.

Run from anywhere: ``PYTHONPATH=src python tools/check_chunk_budget.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: assumed sustainable single-core memory stream bandwidth. Deliberately a
#: round middle-of-the-road figure — the acceptance band absorbs real
#: machines landing anywhere from laptop DDR4 to server DDR5.
STREAM_BANDWIDTH = 16e9

#: accept p50 chunk times within expected/BAND .. expected*BAND
BAND = 16.0


def _quantile_from_buckets(edges, cumulative, q: float = 0.5) -> float:
    """Linear interpolation inside the first bucket whose cumulative count
    crosses ``q`` (the standard Prometheus ``histogram_quantile`` scheme;
    the +Inf bucket degrades to the top finite edge)."""
    total = cumulative[-1]
    if total <= 0:
        return float("nan")
    target = q * total
    prev_edge, prev_count = 0.0, 0
    for edge, count in zip(edges, cumulative):
        if count >= target:
            span = count - prev_count
            frac = (target - prev_count) / span if span else 1.0
            return prev_edge + (edge - prev_edge) * frac
        prev_edge, prev_count = edge, count
    return edges[-1]  # p50 above the top finite bucket


def _chunk_p50s(families) -> dict[str, float]:
    """kernel → p50 chunk seconds for the numeric phase, rebuilt from the
    ``repro_chunk_seconds_bucket`` exposition samples."""
    per_kernel: dict[str, dict[float, float]] = {}
    for labels, value in families.get("repro_chunk_seconds_bucket",
                                      {}).items():
        attrs = dict(labels)
        if attrs.get("phase") != "numeric":
            continue
        le = attrs["le"]
        edge = float("inf") if le == "+Inf" else float(le)
        per_kernel.setdefault(attrs["kernel"], {})[edge] = value
    out = {}
    for kernel, by_edge in per_kernel.items():
        edges = sorted(e for e in by_edge if e != float("inf"))
        cumulative = [by_edge[e] for e in edges] + [by_edge[float("inf")]]
        out[kernel] = _quantile_from_buckets(edges + [float("inf")],
                                             cumulative)
    return out


def _workload(scale: int):
    import numpy as np

    from repro.graphs import rmat
    from repro.graphs.prep import triangle_prep
    from repro.mask import Mask

    g = rmat(scale, 8, rng=np.random.default_rng(7000 + scale))
    L = triangle_prep(g)
    return L, Mask.from_matrix(L)


def _tier_p50s(L, mask, repeats: int, fused: bool) -> dict[str, float]:
    """Serve msa/hash on a fresh engine, the compiled backend withheld when
    ``fused``; returns that engine's numeric chunk p50 per kernel."""
    from contextlib import nullcontext
    from unittest import mock

    from repro.native import kernels as native_kernels
    from repro.obs import parse_exposition
    from repro.service import Engine, Request

    withheld = (mock.patch.object(native_kernels, "_backend",
                                  return_value=None)
                if fused else nullcontext())
    engine = Engine()
    try:
        engine.register("L", L)
        engine.register("M", mask.to_matrix())
        with withheld:
            for kernel in ("msa", "hash"):
                for _ in range(repeats):
                    engine.submit(Request(a="L", b="L", mask="M",
                                          algorithm=kernel, phases=2,
                                          semiring="plus_pair"))
        return _chunk_p50s(parse_exposition(engine.metrics.render()))
    finally:
        engine.close()


def check(scale: int, repeats: int) -> list[str]:
    from repro.native import native_available
    from repro.parallel.partition import (DEFAULT_CHUNK_CACHE_BYTES,
                                          FUSED_BYTES_PER_FLOP,
                                          NATIVE_BYTES_PER_FLOP)

    L, mask = _workload(scale)
    tiers = [("fused", FUSED_BYTES_PER_FLOP)]
    if native_available():
        tiers.append(("native", NATIVE_BYTES_PER_FLOP))
    else:
        print("native tier unavailable on this box; "
              "checking the fused constants only")
    kernels, p50s = {}, {}
    for tier, bpf in tiers:
        observed = _tier_p50s(L, mask, repeats, tier == "fused")
        for kernel in ("msa", "hash"):
            kernels[f"{kernel}/{tier}"] = bpf
            p50s[f"{kernel}/{tier}"] = observed.get(kernel)

    expected = DEFAULT_CHUNK_CACHE_BYTES / STREAM_BANDWIDTH
    lo, hi = expected / BAND, expected * BAND
    problems = []
    for kernel, bpf in kernels.items():
        p50 = p50s.get(kernel)
        if p50 is None or p50 != p50:
            problems.append(f"{kernel}: no numeric chunk samples recorded")
            continue
        verdict = "ok" if lo <= p50 <= hi else "OUT OF BAND"
        print(f"{kernel:12s} bytes/flop={bpf:<3d} p50 chunk "
              f"{p50 * 1e3:8.3f} ms  band [{lo * 1e3:.3f}, {hi * 1e3:.1f}] "
              f"ms  {verdict}")
        if verdict != "ok":
            direction = ("constant likely too large (chunks under-filled)"
                         if p50 < lo else
                         "constant likely too small (chunks overflow the "
                         "cache share)")
            problems.append(
                f"{kernel}: p50 chunk time {p50 * 1e3:.3f} ms outside "
                f"[{lo * 1e3:.3f}, {hi * 1e3:.1f}] ms — {direction}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=13,
                    help="rmat scale for the probe workload (default 13; "
                    "must be big enough that the cache term, not the "
                    "per-worker floor, decides the chunk count)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="requests per kernel (default 3)")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero on out-of-band kernels (default: "
                    "advisory — report and exit 0)")
    args = ap.parse_args()
    problems = check(args.scale, args.repeats)
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    if problems and not args.strict:
        print(f"{len(problems)} advisory finding(s); pass --strict to fail")
        return 0
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
