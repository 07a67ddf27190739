"""Row-parallel Masked SpGEMM driver.

Flow: estimate per-row work → cut contiguous flops-balanced chunks (sized by
the cache-aware :func:`repro.parallel.partition.chunk_budget`, not worker
count) → run the kernel per chunk on the executor → assemble the final CSR
matrix. Assembly has two modes:

* **direct write** (default whenever exact ``row_sizes`` are known, i.e. a
  two-phase request with a cached plan *or* a freshly-run symbolic pass):
  ``indptr/indices/data`` are preallocated from the row sizes and each chunk
  scatters into its disjoint slice via the kernel's ``numeric_rows_into`` —
  zero stitch copies, which is the point of the paper's two-phase
  formulation (§6);
* **stitch** (one-phase requests, kernels without a direct-write variant,
  and the process executor, whose children cannot write parent memory):
  per-chunk :class:`RowBlock` results are concatenated as before.

Two-phase requests without a plan no longer throw the symbolic results
away: the per-chunk sizes are captured into an *implied*
:class:`~repro.core.plan.SymbolicPlan` that feeds the direct-write numeric
pass and is exposed through ``plan_sink`` so callers get plan reuse for
free. Warm requests carrying a cached plan (``plan=``) skip the symbolic
map entirely, so a warm request runs zero Python-per-row work end to end.

Process-pool support: operands are parked in module globals under a token
before the pool forks, so children inherit them via copy-on-write and tasks
carry only ``(token, chunk_of_row_ids)``. Semirings are passed *by name*
(pickling lambdas is a trap); custom semiring objects therefore require a
thread/serial/simulated executor.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

import numpy as np

from ..errors import AlgorithmError
from ..obs.metrics import current_chunk_observer
from ..obs.trace import current_record
from ..mask import Mask
from ..semiring import PLUS_TIMES, Semiring
from ..semiring.standard import _REGISTRY as _SEMIRING_REGISTRY
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_multiplicable
from ..core import registry
from ..core.plan import SymbolicPlan
from ..core.types import stitch_blocks
from ..native import kernels as native_kernels
from .executor import ProcessExecutor, ThreadExecutor
from .partition import (
    NATIVE_BYTES_PER_FLOP,
    balanced_partition,
    budget_chunk_count,
    chunk_budget,
    estimate_row_weights,
)

# ---------------------------------------------------------------------- #
# process-pool plumbing: context parked in globals pre-fork
# ---------------------------------------------------------------------- #
_CONTEXTS: dict[int, tuple] = {}
_TOKENS = itertools.count()


def _chunk_task(args):
    """Top-level (picklable) task: run one chunk against the parked context."""
    token, rows, phase = args
    A, B, mask, algorithm, semiring_name = _CONTEXTS[token]
    spec = registry.get_spec(algorithm)
    semiring = _SEMIRING_REGISTRY[semiring_name]
    if phase == "symbolic":
        return spec.symbolic(A, B, mask, rows)
    return spec.numeric(A, B, mask, semiring, rows)


def uses_direct_write(algorithm: str, phases: int, executor=None,
                      row_sizes_known: bool = True) -> bool:
    """Will the runner take the direct-write path for this configuration?

    True when the kernel has a ``numeric_rows_into`` variant, the request is
    two-phase with (cached or captured) row sizes, and the executor keeps a
    shared address space. Exposed so telemetry (``RequestStats``) can report
    the path without re-deriving the conditions.
    """
    if phases != 2 or not row_sizes_known:
        return False
    if isinstance(executor, ProcessExecutor):
        return False
    try:
        spec = registry.get_spec(algorithm)
    except AlgorithmError:
        return False
    return spec.numeric_into is not None


def direct_write_numeric(spec, A, B, mask, semiring, chunks, row_sizes,
                         out_shape, executor) -> CSRMatrix:
    """Preallocate the final CSR arrays from exact ``row_sizes`` and let
    each chunk scatter into its disjoint slice (chunks are contiguous row
    ranges, so each one's destination offsets are a slice of ``indptr``)."""
    nrows, ncols = out_shape
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_sizes, out=indptr[1:])
    nnz = int(indptr[-1])
    cols = np.empty(nnz, dtype=INDEX_DTYPE)
    vals = np.empty(nnz, dtype=np.float64)
    into = spec.numeric_into
    # the active trace record and chunk-metric sink are captured *here*, on
    # the submitting thread: contextvars do not propagate into thread-pool
    # workers, so chunk closures carry both explicitly (None/None → the
    # zero-cost path). One perf_counter pair feeds both, so the histogram
    # stays bit-identical to the span when tracing is on — and populated
    # when it is off.
    rec = current_record()
    sink = current_chunk_observer()
    trace_id = rec.trace_id if rec is not None else None

    def run(chunk):
        offsets = indptr[int(chunk[0]): int(chunk[-1]) + 2]
        if rec is None and sink is None:
            into(A, B, mask, semiring, chunk, cols, vals, offsets)
            return
        t0 = time.perf_counter()
        into(A, B, mask, semiring, chunk, cols, vals, offsets)
        t1 = time.perf_counter()
        if rec is not None:
            rec.add_span("chunk", t0, t1, kernel=spec.key,
                         phase="numeric", rows=len(chunk))
        if sink is not None:
            sink(t1 - t0, spec.key, "numeric", trace_id)

    executor.map(run, chunks)
    return CSRMatrix(indptr, cols, vals, out_shape, check=False)


def parallel_masked_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    mask: Mask,
    *,
    algorithm: str = "msa",
    semiring: Semiring = PLUS_TIMES,
    phases: int = 1,
    executor=None,
    nchunks: Optional[int] = None,
    plan=None,
    plan_sink: Optional[list] = None,
    direct_write: bool = True,
    backend: str = "local",
) -> CSRMatrix:
    """Row-parallel ``C = M ⊙ (A·B)`` on the given executor.

    ``plan`` (a :class:`repro.core.plan.SymbolicPlan` with cached row sizes)
    makes the two-phase symbolic map a no-op: the sizes are already known, so
    only the numeric chunks are dispatched. Without a plan, a two-phase run
    captures its symbolic chunk results into an implied plan (appended to
    ``plan_sink`` when given) that feeds the direct-write numeric pass.
    ``direct_write=False`` forces the stitch path — the A/B knob the chunk
    benchmarks use.

    ``backend`` selects the execution substrate: ``"local"`` (this runner's
    chunked executor path), ``"shard"``, which routes the product through
    :func:`repro.shard.shard_masked_spgemm` — a transient shard-worker pool
    whose workers scatter into a shared-memory output CSR (``executor``'s
    ``nworkers`` sizes the pool; the executor itself is not used) — or
    ``"thread"``: the compiled-tier successor to process shards. The thread
    backend runs on a :class:`~repro.parallel.executor.ThreadExecutor`
    (``executor`` when it is one, else a transient pool sized to the
    machine) and scatters chunks straight into the preallocated CSR slices
    — ``msa``/``hash`` run the compiled loops whenever a
    :mod:`repro.native` backend serves the call, and those release the GIL
    for the whole chunk call, so this gets real parallelism with no
    processes and no shared-memory segments. Ineligible requests degrade
    back to the local path inside the shard layer, and the thread backend
    without a native backend is simply the local thread-pool path, so
    results are identical for every backend.
    """
    if backend not in ("local", "shard", "thread"):
        raise AlgorithmError(
            f"unknown backend {backend!r}; use 'local', 'thread' or 'shard'")
    if backend == "thread":
        import os

        own = None
        if not isinstance(executor, ThreadExecutor):
            nworkers = (executor.nworkers if executor is not None
                        else min(8, os.cpu_count() or 2))
            own = executor = ThreadExecutor(max(int(nworkers), 1))
        try:
            return parallel_masked_spgemm(
                A, B, mask, algorithm=algorithm,
                semiring=semiring, phases=phases, executor=executor,
                nchunks=nchunks, plan=plan, plan_sink=plan_sink,
                direct_write=direct_write, backend="local")
        finally:
            if own is not None:
                own.close()
    if backend == "shard":
        from ..shard import shard_masked_spgemm

        nshards = executor.nworkers if executor is not None else 2
        return shard_masked_spgemm(
            A, B, mask, algorithm=algorithm, semiring=semiring,
            phases=phases, nshards=max(int(nshards), 1), plan=plan,
            plan_sink=plan_sink, executor=executor,
            direct_write=direct_write)
    out_shape = check_multiplicable(A.shape, B.shape)
    mask.check_output_shape(out_shape)
    spec = registry.get_spec(algorithm)
    if executor is None:
        from .executor import SerialExecutor

        executor = SerialExecutor()

    weights = estimate_row_weights(A, B, mask, algorithm)
    if nchunks is None:
        # the compiled loops stream ~1/3 the bytes per partial product of
        # the fused pipeline, so native chunks carry 3x the flops for the
        # same cache share (fewer dispatches, same residency)
        budget = (chunk_budget(bytes_per_flop=NATIVE_BYTES_PER_FLOP)
                  if spec.key in native_kernels.COMPILED_KEYS
                  and native_kernels.delegation_reason(
                      A, B, mask, semiring, spec.key) is None
                  else None)
        nchunks = budget_chunk_count(weights, executor.nworkers, budget)
    chunks = balanced_partition(weights, nchunks)
    if not chunks:
        return CSRMatrix.empty(out_shape)

    row_sizes = (plan.row_sizes
                 if plan is not None and phases == 2 else None)
    is_process = isinstance(executor, ProcessExecutor)
    token = None
    if is_process:
        if semiring.name not in _SEMIRING_REGISTRY:
            raise AlgorithmError(
                f"process executor requires a registered semiring (got "
                f"{semiring.name!r}); use a thread or serial executor for "
                f"custom semirings"
            )
        token = next(_TOKENS)
        _CONTEXTS[token] = (A, B, mask, algorithm, semiring.name)
    # captured on the submitting thread (pool threads don't inherit the
    # trace/sink contextvars); process pools stay uninstrumented — children
    # cannot write the parent's record or registry
    rec = None if is_process else current_record()
    sink = None if is_process else current_chunk_observer()
    trace_id = rec.trace_id if rec is not None else None

    def timed(fn, phase):
        if rec is None and sink is None:
            return fn

        def wrapped(chunk):
            t0 = time.perf_counter()
            out = fn(chunk)
            t1 = time.perf_counter()
            if rec is not None:
                rec.add_span("chunk", t0, t1, kernel=spec.key,
                             phase=phase, rows=len(chunk))
            if sink is not None:
                sink(t1 - t0, spec.key, phase, trace_id)
            return out
        return wrapped

    try:
        if phases == 2 and row_sizes is None:
            # capture the symbolic chunk results (previously discarded) into
            # the row sizes that drive the direct-write numeric pass
            if is_process:
                sym = executor.map(_chunk_task,
                                   [(token, c, "symbolic") for c in chunks])
            else:
                sym = executor.map(
                    timed(lambda c: spec.symbolic(A, B, mask, c),
                          "symbolic"), chunks)
            row_sizes = (sym[0] if len(sym) == 1
                         else np.concatenate(sym)).astype(INDEX_DTYPE,
                                                          copy=False)
            if plan_sink is not None:
                plan_sink.append(SymbolicPlan(
                    algorithm=algorithm, phases=2, shape=out_shape,
                    row_sizes=row_sizes))

        if (direct_write and row_sizes is not None and not is_process
                and spec.numeric_into is not None):
            return direct_write_numeric(spec, A, B, mask, semiring, chunks,
                                        row_sizes, out_shape, executor)

        if is_process:
            blocks = executor.map(_chunk_task,
                                  [(token, c, "numeric") for c in chunks])
        else:
            blocks = executor.map(
                timed(lambda c: spec.numeric(A, B, mask, semiring, c),
                      "numeric"), chunks)
    finally:
        if token is not None:
            del _CONTEXTS[token]

    return stitch_blocks(blocks, out_shape[0], out_shape[1])
