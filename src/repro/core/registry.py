"""Algorithm registry: names, metadata and kernel lookup.

The paper's evaluation names algorithms ``<Alg>-<Phases>`` (e.g. ``MSA-1P``,
``Hash-2P``). Here the algorithm key and phase count are separate arguments
to :func:`repro.core.api.masked_spgemm`; :func:`display_name` produces the
paper-style label, and :func:`parse_name` accepts it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import AlgorithmError
from ..native import kernels as native_kernels, native_available
from . import (
    esc_kernel,
    hash_kernel,
    heap_kernel,
    hybrid_kernel,
    inner_kernel,
    mca_kernel,
    msa_kernel,
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata + kernel entry points for one Masked SpGEMM algorithm.

    ``numeric_into`` is the optional direct-write variant of the numeric
    pass (see :mod:`repro.core.types`): given planned per-row offsets it
    scatters straight into preallocated CSR arrays, which is how two-phase
    plans skip the stitch copy. The chunk-fused kernels provide it; per-row
    kernels leave it None and keep the stitch path.

    ``listed=False`` marks routing tiers: keys :func:`auto_select` may
    return and :func:`get_spec` resolves, but that stay out of
    :func:`available_algorithms` (they are alternate execution strategies
    of a listed algorithm, not distinct algorithms).
    """

    key: str
    label: str
    family: str  # "push" or "pull"
    numeric: Callable
    symbolic: Callable
    supports_complement: bool
    description: str
    numeric_into: Optional[Callable] = None
    listed: bool = True


_SPECS: dict[str, AlgorithmSpec] = {
    "msa": AlgorithmSpec(
        "msa", "MSA", "push",
        native_kernels.msa_numeric_rows, msa_kernel.symbolic_rows, True,
        "Masked Sparse Accumulator (paper §5.2): the compiled three-state "
        "row loop when a native backend serves the call, else chunk-fused "
        "numpy (one batched mask test + scatter per chunk)",
        numeric_into=native_kernels.msa_numeric_rows_into,
    ),
    "esc": AlgorithmSpec(
        "esc", "ESC", "push",
        esc_kernel.numeric_rows, esc_kernel.symbolic_rows, True,
        "Chunk-fused expand-sort-compress: batched expansion, composite-key "
        "segmented reduction, chunk-wide mask intersection (no per-row work)",
        numeric_into=esc_kernel.numeric_rows_into,
    ),
    "hash": AlgorithmSpec(
        "hash", "Hash", "push",
        native_kernels.hash_numeric_rows, hash_kernel.symbolic_rows, True,
        "Open-addressing hash accumulator, LF 0.25 (paper §5.3): the "
        "compiled per-row table loop when a native backend serves the call, "
        "else chunk-fused numpy (probe loop batched across all rows)",
        numeric_into=native_kernels.hash_numeric_rows_into,
    ),
    "mca": AlgorithmSpec(
        "mca", "MCA", "push",
        mca_kernel.numeric_rows, mca_kernel.symbolic_rows, False,
        "Mask Compressed Accumulator indexed by mask rank (paper §5.4)",
    ),
    "heap": AlgorithmSpec(
        "heap", "Heap", "push",
        heap_kernel.numeric_rows, heap_kernel.symbolic_rows, True,
        "K-way merge with NInspect=1 mask peeking (paper §5.5), chunk-fused: "
        "one composite-key stable sort + reduceat collapse per chunk",
        numeric_into=heap_kernel.numeric_rows_into,
    ),
    "heapdot": AlgorithmSpec(
        "heapdot", "HeapDot", "push",
        heap_kernel.numeric_rows_heapdot, heap_kernel.symbolic_rows, True,
        "K-way merge with NInspect=∞ full mask inspection (paper §5.5)",
    ),
    "inner": AlgorithmSpec(
        "inner", "Inner", "pull",
        inner_kernel.numeric_rows, inner_kernel.symbolic_rows, False,
        "Pull-based sparse dot products over mask entries (paper §4.1)",
    ),
    "hybrid": AlgorithmSpec(
        "hybrid", "Hybrid", "mixed",
        hybrid_kernel.numeric_rows, hybrid_kernel.symbolic_rows, True,
        "Per-row dispatch between MSA/Heap/Inner by row-local density "
        "(the paper's §9 future-work hybrid, implemented)",
    ),
    "msa-loop": AlgorithmSpec(
        "msa-loop", "MSA(loop)", "push",
        msa_kernel.numeric_rows_loop, msa_kernel.symbolic_rows, True,
        "Per-row MSA loop (paper Alg. 2 verbatim): auto_select's pick for "
        "long-row mask-reuse regimes when no native backend is available "
        "(fused intermediates outgrow cache), and the last degrade rung",
        listed=False,
    ),
}


#: Baselines are dispatched separately (they are whole-matrix functions, not
#: row kernels) but listed so harnesses can enumerate everything.
BASELINE_KEYS = ("saxpy", "saxpy-scipy", "dot")


def get_spec(key: str) -> AlgorithmSpec:
    try:
        return _SPECS[key.lower()]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {key!r}; kernels: {sorted(_SPECS)}, "
            f"baselines: {list(BASELINE_KEYS)}"
        ) from None


def available_algorithms(*, complemented: bool | None = None,
                         include_baselines: bool = False) -> list[str]:
    """Algorithm keys, optionally filtered by complement support."""
    keys = [k for k, s in _SPECS.items() if s.listed
            and (complemented is None or not complemented
                 or s.supports_complement)]
    if include_baselines:
        keys += list(BASELINE_KEYS)
    return keys


def algorithm_info(key: str) -> AlgorithmSpec:
    return get_spec(key)


def display_name(key: str, phases: int = 1) -> str:
    """Paper-style label, e.g. ``display_name("msa", 2) == "MSA-2P"``."""
    base = {"saxpy": "SS:SAXPY*", "saxpy-scipy": "SS:SAXPY*(scipy)",
            "dot": "SS:DOT*"}.get(key.lower())
    if base is not None:
        return base
    return f"{get_spec(key).label}-{phases}P"


def parse_name(name: str) -> tuple[str, int]:
    """Inverse of :func:`display_name` for kernel algorithms:
    ``"MSA-1P" -> ("msa", 1)``. Bare keys default to one phase."""
    s = name.strip().lower()
    phases = 1
    if s.endswith("-1p"):
        s, phases = s[:-3], 1
    elif s.endswith("-2p"):
        s, phases = s[:-3], 2
    get_spec(s)  # validate
    return s, phases


#: Average partial products per output row below which interpreter overhead
#: (not memory traffic) dominates the per-row kernels, so the chunk-fused
#: ``esc`` kernel wins. Graph workloads (TC, k-truss) sit around ~10.
ESC_FLOPS_CUTOFF = 64.0

#: Total partial products above which the long-row mask-reuse regime
#: (mask about as dense as the inputs, > ESC_FLOPS_CUTOFF flops/row — the
#: k-truss support pattern, where C = E·E masked by E itself) routes to the
#: per-row ``msa-loop`` tier: the fused kernels expand a whole chunk's
#: partial products before masking, and past this much total work that
#: intermediate outgrows cache while the loop's dense accumulator stays
#: resident. Measured crossover on ktruss-support-rmat: s9 ≈ 64k total
#: flops (fused msa wins), s10 ≈ 139k (loop wins); 100k splits them.
LOOP_FLOPS_FLOOR = 100_000.0


def auto_select(A, B, mask, *, plan_free: bool = False) -> str:
    """Mask/input-density heuristic distilled from the paper's Fig. 7:

    * mask much sparser than the inputs → ``inner`` (pull wins),
    * inputs much sparser than the mask → ``heap``,
    * short rows (≲ :data:`ESC_FLOPS_CUTOFF` partial products on average) →
      ``esc`` (chunk-fused: per-row dispatch overhead would dominate),
    * long rows with a mask as dense as the inputs and enough total work
      (≥ :data:`LOOP_FLOPS_FLOOR`) → the per-row ``msa-loop`` tier
      (k-truss support regime: chunk-fused intermediates outgrow cache),
    * comparable densities → ``msa`` on small outputs (dense arrays cheap),
      ``hash`` on large ones (MSA's cache penalty grows with ncols).

    ``msa`` and ``hash`` run the compiled row loops (:mod:`repro.native`)
    whenever a backend can serve the call, so the long-row branch only
    needs ``msa-loop`` when no backend probed available: the compiled msa
    *is* that tier's per-row accumulator without the interpreter cost.

    This hybrid dispatcher is the paper's "future work" hybrid in its
    simplest form.

    ``plan_free=True`` is the dynamic-mask regime ("Masked Matrix
    Multiplication for Emergent Sparsity"): the mask is fresh every request
    and nothing will be cached or replayed, so the ``msa-loop`` routing tier
    — whose payoff assumes the mask-reuse serving pattern — is skipped and
    selection stays among the chunk-fused kernels.
    """
    nrows = max(A.nrows, 1)
    d_a = A.nnz / nrows
    d_b = B.nnz / max(B.nrows, 1)
    d_in = min(d_a, d_b)
    flops_per_row = d_a * d_b  # expected partial products per output row
    msa_cutoff = 1 << 15  # dense accumulator stops paying off past ~32k cols
    if mask.complemented:
        if flops_per_row <= ESC_FLOPS_CUTOFF:
            return "esc"
        return "msa" if B.ncols <= msa_cutoff else "hash"
    d_m = mask.nnz / max(mask.nrows, 1)
    if d_m * 4 <= d_in:
        return "inner"
    if d_in * 4 <= d_m:
        return "heap"
    if flops_per_row <= ESC_FLOPS_CUTOFF:
        return "esc"
    if (not plan_free and d_m * 2 >= d_in
            and nrows * flops_per_row >= LOOP_FLOPS_FLOOR
            and B.ncols <= msa_cutoff):
        return "msa" if native_available() else "msa-loop"
    return "msa" if B.ncols <= msa_cutoff else "hash"
