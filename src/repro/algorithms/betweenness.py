"""Batch betweenness centrality via Masked SpGEMM (paper §8.4).

Multi-source two-stage Brandes [8] in the linear-algebra formulation
(GraphBLAS C API's canonical example, which the paper cites as the
motivating use of *complemented* masks):

**Forward (BFS) stage** — batch of s sources, matrices are s×n:

    NumSP[j, src_j] = 1
    Frontier = ¬NumSP ⊙ (NumSP · A)        (PLUS_FIRST semiring)
    while Frontier ≠ ∅:
        record S_d = pattern(Frontier)
        NumSP += Frontier
        Frontier = ¬NumSP ⊙ (Frontier · A)  (complemented Masked SpGEMM!)

The complemented mask expresses "extend paths only to vertices not yet
discovered" — the graph-traversal use the paper highlights in §1.

**Backward (dependency) stage**:

    BCU = 1 (dense s×n)
    for d = depth-1 .. 1:
        W  = S_d ⊙ (BCU / NumSP)
        W  = S_{d-1} ⊙ (W · Aᵀ)            (non-complemented Masked SpGEMM)
        BCU += W .* NumSP
    centrality(v) = Σ_j BCU[j, v] - s

Both stages together exercise the complemented and plain mask paths, which
is why the paper's BC results (Fig. 15/16) include only complement-capable
kernels (MCA is excluded; Inner/Heap/SS:DOT were "prohibitively slow").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import masked_spgemm
from ..mask import Mask
from ..semiring import PLUS_FIRST
from ..sparse import ops
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE


@dataclass
class BCResult:
    """Centrality scores plus traversal telemetry (for the TEPS metric)."""

    centrality: np.ndarray
    depth: int
    batch_size: int
    frontier_nnz: list[int] = field(default_factory=list)


def _sources_matrix(sources: np.ndarray, n: int) -> CSRMatrix:
    """s×n matrix with a single 1 per row at (j, sources[j])."""
    s = sources.size
    indptr = np.arange(s + 1, dtype=INDEX_DTYPE)
    return CSRMatrix(indptr, sources.astype(INDEX_DTYPE), np.ones(s), (s, n),
                     check=False)


def _values_at(pattern: CSRMatrix, source: CSRMatrix) -> np.ndarray:
    """Values of ``source`` at the coordinates of ``pattern`` (which must be
    a subset of source's pattern)."""
    taken = ops.ewise_mult(pattern.pattern(), source, op=lambda x, y: y)
    if taken.nnz != pattern.nnz:  # pragma: no cover - invariant guard
        raise RuntimeError("pattern is not a subset of source pattern")
    return taken.data


def betweenness_centrality(
    g: CSRMatrix,
    sources: Sequence[int] | None = None,
    *,
    algorithm: str = "msa",
    phases: int = 1,
    executor=None,
    undirected: bool | None = None,
) -> BCResult:
    """Betweenness centrality from a batch of source vertices.

    Parameters
    ----------
    g : adjacency pattern (directed as stored; pass a symmetric pattern for
        undirected graphs).
    sources : batch of source vertex ids; ``None`` = all vertices (exact BC).
    algorithm : masked kernel for both stages; must support complemented
        masks (msa/hash/heap/heapdot — MCA raises, matching the paper).
        The default ``msa`` runs the compiled row loop when a native
        backend is available (:mod:`repro.native`), the fused kernel
        otherwise.
    undirected : divide scores by 2 (each shortest path counted from both
        endpoints). Default: auto-detect pattern symmetry.

    Returns unnormalized scores comparable to
    ``networkx.betweenness_centrality(normalized=False)``.
    """
    n = g.nrows
    A = g.pattern()
    if undirected is None:
        undirected = A.same_pattern(ops.transpose_csr(A))
    src = (np.arange(n, dtype=INDEX_DTYPE) if sources is None
           else np.asarray(list(sources), dtype=INDEX_DTYPE))
    s = src.size
    if s == 0 or n == 0:
        return BCResult(np.zeros(n), 0, 0)

    AT = ops.transpose_csr(A)

    # ---------------- forward: BFS with path counting ------------------- #
    NumSP = _sources_matrix(src, n)
    frontier = masked_spgemm(NumSP, A, Mask.from_matrix(NumSP, complemented=True),
                             algorithm=algorithm, semiring=PLUS_FIRST,
                             phases=phases, executor=executor)
    sigmas: list[CSRMatrix] = []
    frontier_nnz: list[int] = []
    while frontier.nnz:
        sigmas.append(frontier)
        frontier_nnz.append(frontier.nnz)
        NumSP = ops.ewise_add(NumSP, frontier)
        frontier = masked_spgemm(
            frontier, A, Mask.from_matrix(NumSP, complemented=True),
            algorithm=algorithm, semiring=PLUS_FIRST, phases=phases,
            executor=executor)
    depth = len(sigmas)

    # ---------------- backward: dependency accumulation ----------------- #
    bcu = np.ones((s, n), dtype=np.float64)
    src_rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), 1)
    for d in range(depth - 1, 0, -1):
        Sd = sigmas[d]
        # W = S_d ⊙ ((BCU) / NumSP) — gather dense BCU at S_d coords
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), Sd.row_nnz())
        numsp_at = _values_at(Sd, NumSP)
        w_vals = bcu[rows, Sd.indices] / numsp_at
        W = CSRMatrix(Sd.indptr.copy(), Sd.indices.copy(), w_vals, (s, n),
                      check=False)
        # W = S_{d-1} ⊙ (W · Aᵀ)
        W = masked_spgemm(W, AT, Mask.from_matrix(sigmas[d - 1]),
                          algorithm=algorithm, semiring=PLUS_FIRST,
                          phases=phases, executor=executor)
        # BCU += W .* NumSP
        rows_w = np.repeat(np.arange(s, dtype=INDEX_DTYPE), W.row_nnz())
        numsp_at_w = _values_at(W, NumSP)
        bcu[rows_w, W.indices] += W.data * numsp_at_w

    centrality = bcu.sum(axis=0) - s
    if undirected:
        centrality = centrality / 2.0
    return BCResult(centrality, depth, int(s), frontier_nnz)
