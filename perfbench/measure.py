"""Sample statistics, output fingerprints, memory and provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

#: samples a tail percentile must leave beyond it to be reported
TAIL_MARGIN = 10


class InsufficientSamples(RuntimeError):
    """A run holds too few samples for the tail percentile it must report."""


def min_samples(pct: float) -> int:
    """Fewest samples for which ``pct`` leaves :data:`TAIL_MARGIN` beyond it
    (p99 → 1000, p90 → 100)."""
    return math.ceil(TAIL_MARGIN / (1.0 - pct / 100.0) - 1e-9)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not len(samples):
        raise InsufficientSamples("no samples")
    ordered = sorted(samples)
    idx = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx]


def tail(samples, pct: float) -> float:
    """:func:`percentile`, refusing runs with fewer than
    :func:`min_samples` samples."""
    need = min_samples(pct)
    if len(samples) < need:
        raise InsufficientSamples(
            f"p{pct:g} needs {need} samples, the run holds {len(samples)}")
    return percentile(samples, pct)


def chunked_tail(samples, pct: float) -> tuple[float, int]:
    """Median, over consecutive chunks of :func:`min_samples` samples (in
    completion order; a short last chunk joins the one before), of each
    chunk's ``pct`` percentile — a tail that one burst of interference on a
    shared machine moves by one chunk's worth. Returns ``(value, chunks)``."""
    size = min_samples(pct)
    chunks = len(samples) // size
    if not chunks:
        raise InsufficientSamples(
            f"p{pct:g} needs {size} samples, the run holds {len(samples)}")
    bounds = [i * size for i in range(chunks)] + [len(samples)]
    tails = [percentile(samples[a:b], pct)
             for a, b in zip(bounds, bounds[1:])]
    return statistics.median(tails), chunks


def windowed_rate(stamps, t_start: float, t_end: float,
                  parts: int) -> float:
    """Median over ``parts`` equal sub-windows of ``[t_start, t_end]`` of
    the completions per second in each (``stamps`` are completion times)."""
    width = (t_end - t_start) / parts
    counts = np.histogram(stamps, bins=parts, range=(t_start, t_end))[0]
    return float(np.median(counts)) / width


def median(samples) -> float:
    if not len(samples):
        raise InsufficientSamples("no samples")
    return statistics.median(samples)


def fingerprint(indptr, indices, data, shape) -> str:
    """Content hash of a CSR triple, dtype-normalised so that a repro
    ``CSRMatrix`` and a scipy oracle with equal entries hash equal."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(shape, dtype=np.int64).tobytes())
    for arr, dt in ((indptr, np.int64), (indices, np.int64),
                    (data, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return h.hexdigest()


def csr_fingerprint(m) -> str:
    return fingerprint(m.indptr, m.indices, m.data, m.shape)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _git_rev(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest(src: Path) -> str:
    """Hash of every ``.py`` file under ``src`` (the revision when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int, native_compile_s: float) -> dict:
    import numpy
    import scipy

    from repro import native

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_rev": _git_rev(root),
        "src_digest": source_digest(root / "src"),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "native_backend": native.native_backend_name(),
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE", ""),
        "native_compile_s": round(native_compile_s, 6),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }
