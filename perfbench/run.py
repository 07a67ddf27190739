"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Run from the repository root. The program under test is imported from
``src/``. Every line but the last is a human-readable report (metrics with
units and sample counts, provenance); the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (and a Chrome trace is written under ``perfbench/.out/``).
The exit code is 0 only when every output matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("serve-warm", "stream-delta", "analytics-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _bootstrap() -> None:
    """Import paths and the native build cache, both inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path[0:0] = [str(src), str(ROOT)]
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native-cache")
    # the compiler's scratch files and any spooled debug bundle stay here too
    os.environ["TMPDIR"] = str(OUT / "tmp")


def _warm_native() -> tuple[float, bool]:
    """Build (when the cache is cold) and load the native tier once,
    before anything is timed; returns ``(seconds, cache_was_cold)``."""
    cache = Path(os.environ["REPRO_NATIVE_CACHE"])
    cold = not any(cache.glob("*.so"))
    from repro import native

    t0 = time.perf_counter()
    native.native_backend()
    return time.perf_counter() - t0, cold


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    compile_s, cold = _warm_native()

    from perfbench.measure import provenance
    from perfbench.workloads import END_TO_END, PER_LAYER, run

    prov = provenance(ROOT, args.seed, compile_s)
    prov["native_cache_was_cold"] = cold
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(outcome.metrics[name][0]),
                      "unit": outcome.metrics[name][1]} for name in wanted}
    correct = outcome.failed == 0
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for line in outcome.notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={outcome.failed / max(outcome.attempted, 1):.6f}")
    if outcome.recorder is not None:
        path = OUT / f"trace-{tag}.json"
        outcome.recorder.write_chrome(path)
        print(f"chrome trace: {path.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "provenance": prov, "notes": outcome.notes},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
