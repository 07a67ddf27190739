"""Triangle counting via Masked SpGEMM (paper §8.2).

The paper's formulation: relabel vertices in non-increasing degree order
(known to be among the fastest orderings [29]), take the strictly-lower
triangle L, and compute ``sum(L .* (L·L))`` — which in masked form is one
``C = L ⊙ (L·L)`` with the PLUS_PAIR semiring followed by a
reduce-to-scalar. Each triangle {i, j, k} with relabeled i > j > k is
counted exactly once, at C[i, j].
"""

from __future__ import annotations

from ..core import masked_spgemm
from ..mask import Mask
from ..semiring import PLUS_PAIR
from ..sparse.csr import CSRMatrix
from ..graphs.prep import triangle_prep


def triangle_count_matrix(L: CSRMatrix, *, algorithm: str = "msa",
                          phases: int = 1, executor=None) -> CSRMatrix:
    """The masked product at TC's core: ``C = L ⊙ (L·L)`` (plus_pair).

    ``C[i, j]`` counts the common neighbours of i and j that close a
    triangle over edge (i, j). This is the operation the paper times in
    isolation ("we only report the Masked SpGEMM execution time").
    """
    return masked_spgemm(L, L, Mask.from_matrix(L), algorithm=algorithm,
                         semiring=PLUS_PAIR, phases=phases, executor=executor)


def triangle_count(g: CSRMatrix, *, algorithm: str = "msa", phases: int = 1,
                   executor=None, prepared: bool = False) -> int:
    """Total number of triangles in the (undirected) graph ``g``.

    Parameters
    ----------
    g : adjacency pattern; symmetrized/cleaned automatically unless
        ``prepared=True``, in which case ``g`` must already be the
        degree-sorted strictly-lower-triangular ``L``.
    algorithm, phases, executor : forwarded to :func:`masked_spgemm`;
        the default ``msa`` runs the compiled row loop when a native
        backend is available (:mod:`repro.native`), the fused kernel
        otherwise.
    """
    L = g if prepared else triangle_prep(g)
    C = triangle_count_matrix(L, algorithm=algorithm, phases=phases,
                              executor=executor)
    return int(round(C.sum()))
