"""Reference results computed with ``scipy.sparse`` and dense numpy.

Nothing here calls a repro kernel: every expected output is derived from
the operands alone, so a kernel bug cannot hide by agreeing with itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .measure import fingerprint


def to_scipy(m, *, ones: bool = False) -> sp.csr_matrix:
    """A scipy copy of a repro ``CSRMatrix`` (or of a scipy matrix), with
    every stored value set to 1 when ``ones``."""
    if sp.issparse(m):
        m = sp.csr_matrix(m)
    data = np.ones(m.nnz) if ones else np.asarray(m.data, dtype=np.float64)
    return sp.csr_matrix((data, np.asarray(m.indices), np.asarray(m.indptr)),
                         shape=m.shape)


def canonical(s) -> sp.csr_matrix:
    s = sp.csr_matrix(s)
    s.sum_duplicates()
    s.eliminate_zeros()
    s.sort_indices()
    return s


def csr_arrays(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = canonical(s)
    return (s.indptr.astype(np.int64), s.indices.astype(np.int64),
            s.data.astype(np.float64))


def masked_product(A, B, M, *, complemented: bool = False,
                   pair: bool = False) -> sp.csr_matrix:
    """``M ⊙ (A·B)`` (``¬M ⊙ (A·B)`` when complemented) over plus_times, or
    plus_pair when ``pair``. Operands carry positive values, so no product
    sums to zero and the structural and numeric patterns agree."""
    a, b = to_scipy(A, ones=pair), to_scipy(B, ones=pair)
    mp = to_scipy(M, ones=True)
    prod = a @ b
    if complemented:
        return canonical(prod - prod.multiply(mp))
    return canonical(prod.multiply(mp))


def product_fingerprint(s) -> str:
    indptr, indices, data = csr_arrays(s)
    return fingerprint(indptr, indices, data, s.shape)


def triangles(g) -> int:
    """Triangles of a simple undirected graph: trace(A³) / 6."""
    a = to_scipy(g, ones=True)
    return int(round(canonical(a @ a).multiply(a).sum() / 6.0))


def ktruss_pattern(g, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge pattern of the k-truss: prune edges on fewer than k-2
    triangles until nothing changes."""
    c = to_scipy(g, ones=True)
    while True:
        support = canonical(c @ c).multiply(c).tocsr()
        support.data[support.data < k - 2] = 0
        kept = canonical(support)
        kept.data[:] = 1.0
        if kept.nnz == c.nnz:
            return kept.indptr.astype(np.int64), kept.indices.astype(np.int64)
        c = kept


def betweenness(g, sources) -> np.ndarray:
    """Brandes betweenness from a batch of sources, level-synchronous with
    dense path-count arrays (unnormalised; halved for undirected graphs)."""
    a = to_scipy(g, ones=True)
    at = a.T.tocsr()
    n = g.shape[0]
    src = np.asarray(sources)
    s = src.size
    sigma = np.zeros((s, n))
    sigma[np.arange(s), src] = 1.0
    visited = sigma > 0
    frontier = sigma.copy()
    levels = []
    while True:
        nxt = np.asarray(at @ frontier.T).T
        nxt[visited] = 0.0
        if not nxt.any():
            break
        levels.append(nxt > 0)
        sigma += nxt
        visited |= nxt > 0
        frontier = nxt
    bcu = np.ones((s, n))
    for d in range(len(levels) - 1, 0, -1):
        w = np.where(levels[d], bcu / np.where(sigma > 0, sigma, 1.0), 0.0)
        back = np.asarray(a @ w.T).T
        back[~levels[d - 1]] = 0.0
        bcu += back * sigma
    centrality = bcu.sum(axis=0) - s
    if (a != at).nnz == 0:
        centrality = centrality / 2.0
    return centrality


class EdgeState:
    """Sorted coordinate keys and values of one matrix, mutated by the
    benchmark's delta batches with the documented batch semantics (deletes,
    then inserts, then updates)."""

    def __init__(self, m):
        self.shape = m.shape
        n = m.shape[1]
        rows = np.repeat(np.arange(m.shape[0], dtype=np.int64),
                         np.diff(m.indptr))
        self.keys = rows * n + np.asarray(m.indices, dtype=np.int64)
        self.vals = np.asarray(m.data, dtype=np.float64).copy()

    def key(self, r, c) -> np.ndarray:
        return np.asarray(r, dtype=np.int64) * self.shape[1] + np.asarray(
            c, dtype=np.int64)

    def apply(self, delta) -> None:
        if delta["del_r"].size:
            keep = ~np.isin(self.keys, self.key(delta["del_r"],
                                                delta["del_c"]))
            self.keys, self.vals = self.keys[keep], self.vals[keep]
        if delta["ins_r"].size:
            ins = self.key(delta["ins_r"], delta["ins_c"])
            union = np.union1d(self.keys, ins)
            vals = np.empty(union.size)
            vals[np.searchsorted(union, self.keys)] = self.vals
            vals[np.searchsorted(union, ins)] = delta["ins_v"]
            self.keys, self.vals = union, vals
        if delta["upd_r"].size:
            pos = np.searchsorted(self.keys, self.key(delta["upd_r"],
                                                      delta["upd_c"]))
            self.vals[pos] = delta["upd_v"]

    def scipy(self) -> sp.csr_matrix:
        n = self.shape[1]
        rows, cols = self.keys // n, self.keys % n
        return sp.csr_matrix((self.vals.copy(), (rows, cols)),
                             shape=self.shape)
