"""Protocol faces of the compiled kernel tier.

These wrap whichever backend the probe ladder resolved (numba JIT or
cffi/C — see the package docstring) behind the repo-wide kernel protocol.
They *are* the registry's ``msa`` / ``hash`` numeric entry points:

``msa_numeric_rows`` / ``hash_numeric_rows``
    stitch face — compute requested rows compactly and return a RowBlock;
``msa_numeric_rows_into`` / ``hash_numeric_rows_into``
    direct-write face — scatter into preallocated CSR arrays at planned
    offsets, validating computed sizes first (same contract and same error
    as :func:`repro.core.types.write_block_into`).

Every face **delegates to the fused numpy kernel** when the compiled tier
cannot serve the call; :func:`delegation_reason` is the one guard that
decides, and names why (backend unavailable, a semiring outside the
compiled op table, non-float64/int64 operands, or an MSA output too wide
for the dense accumulator scratch). The fused kernels are bit-identical to
the compiled loops by construction (gated in ``tests/test_native.py`` and
``benchmarks/bench_native.py``), so delegation is invisible to callers:
``msa`` and ``hash`` always compute the same product, merely slower.

The symbolic pass is pattern-only and kernel-independent; the registry
points the specs at the fused symbolic functions directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError, FormatError
from ..validation import INDEX_DTYPE

#: widest MSA output the dense accumulator scratch is worth allocating for;
#: beyond this the hash table (or the fused kernel's composite keys) wins
MSA_NCOLS_CAP = 1 << 22

_ADD_CODES = None   # np.ufunc -> code (0 plus, 1 min, 2 max)
_MUL_CODES = None   # mul callable -> code (0 times, 1 pair, 2 first,
                    #                       3 second, 4 plus, 5 and)


def _op_tables():
    """Codes keyed by the *objects* of the standard semirings, so custom
    :class:`~repro.semiring.Semiring` instances built from the same monoid
    ufuncs and multiply functions compile too; anything else delegates."""
    global _ADD_CODES, _MUL_CODES
    if _ADD_CODES is None:
        from ..semiring.standard import (
            MAX_TIMES,
            MIN_PLUS,
            OR_AND,
            PLUS_FIRST,
            PLUS_PAIR,
            PLUS_SECOND,
            PLUS_TIMES,
        )

        _ADD_CODES = {PLUS_TIMES.add.ufunc: 0, MIN_PLUS.add.ufunc: 1,
                      MAX_TIMES.add.ufunc: 2, OR_AND.add.ufunc: 2}
        _MUL_CODES = {PLUS_TIMES.mul: 0, PLUS_PAIR.mul: 1, PLUS_FIRST.mul: 2,
                      PLUS_SECOND.mul: 3, MIN_PLUS.mul: 4, OR_AND.mul: 5}
    return _ADD_CODES, _MUL_CODES


def op_codes(semiring) -> tuple[int, int, float] | None:
    """(add_op, mul_op, identity) for the compiled switch, or None when the
    semiring is outside the compiled table (→ delegate to fused)."""
    adds, muls = _op_tables()
    add = adds.get(semiring.add.ufunc)
    mul = muls.get(semiring.mul)
    if add is None or mul is None:
        return None
    return add, mul, float(semiring.add.identity)


def _backend():
    from . import native_backend

    b = native_backend()
    return None if b is None else b[1]


#: registry keys whose numeric faces live in this module
COMPILED_KEYS = ("msa", "hash")


def _route(A, B, mask, semiring, algorithm):
    """``(reason, backend, op codes)``: reason None means the compiled loop
    serves the call with that backend and those codes."""
    be = _backend()
    if be is None:
        return "unavailable", None, None
    codes = op_codes(semiring)
    if codes is None:
        return "semiring", None, None
    if not _compilable(A, B, mask):
        return "dtype", None, None
    if algorithm == "msa" and B.ncols > MSA_NCOLS_CAP:
        return "ncols", None, None
    return None, be, codes


def delegation_reason(A, B, mask, semiring, algorithm: str):
    """Why the compiled ``algorithm`` (``"msa"`` or ``"hash"``) loop cannot
    serve this call — ``"unavailable"`` (no backend), ``"semiring"``,
    ``"dtype"`` or ``"ncols"`` (msa only) — or None when it can. The faces
    below delegate to the fused kernel exactly when this is not None, so
    callers (the engine's tier stamp, the runner's chunk sizing) can tell
    which tier will run before it runs."""
    return _route(A, B, mask, semiring, algorithm)[0]


def _check_operands(A, B, mask, rows) -> None:
    """Bounds the compiled loops index by raw pointer, for operands built
    with ``check=False`` (the fused kernels fail on such input with a numpy
    IndexError; a C loop would read out of bounds instead). B is checked
    whole, since any of its rows may be reached; A and the mask only over
    the span of ``rows`` — O(nnz(B) + this call's rows)."""
    lo, hi = int(rows.min()), int(rows.max())
    if lo < 0 or hi >= A.nrows or hi >= mask.nrows:
        raise FormatError(f"rows [{lo}, {hi}] out of range for the operands")
    for name, m, first, last, ncols in (
            ("A", A, lo, hi + 1, B.nrows), ("mask", mask, lo, hi + 1, B.ncols),
            ("B", B, 0, B.nrows, B.ncols)):
        p = m.indptr[first:last + 1]
        if (m.indptr.size <= last or p[0] < 0
                or p[-1] > m.indices.size or (p[1:] < p[:-1]).any()):
            raise FormatError(f"{name}: row pointers out of bounds")
        ids = m.indices[p[0]:p[-1]]
        # one reduction: negative ids wrap to huge unsigned values
        if ids.size and ids.view(np.uint64).max() >= ncols:
            raise FormatError(f"{name}: column ids out of range")
        if name != "mask" and m.data.size < p[-1]:
            raise FormatError(f"{name}: fewer values than column ids")


def _compilable(A, B, mask) -> bool:
    return all(a.dtype == INDEX_DTYPE for a in
               (A.indptr, A.indices, B.indptr, B.indices,
                mask.indptr, mask.indices)) and \
        A.data.dtype == np.float64 and B.data.dtype == np.float64


def _c(arr):
    return np.ascontiguousarray(arr)


def _pow2cap(nkeys: int) -> int:
    cap = 4
    need = int(nkeys) * 4
    while cap < need:
        cap <<= 1
    return cap


def _compl_bounds(A, B, mask, rows):
    """Per-row output upper bound + hash-table key budget for complemented
    masks: distinct surviving columns ≤ min(flops_i, ncols − banned_i)."""
    from ..core.expand import per_row_flops

    mlens = mask.indptr[rows + 1] - mask.indptr[rows]
    flops = per_row_flops(A, B)[rows] if A.nnz else np.zeros_like(mlens)
    bound = np.minimum(flops, B.ncols - mlens)
    return mlens, bound, mlens + bound


# --------------------------------------------------------------------- #
# MSA (dense three-state accumulator)
# --------------------------------------------------------------------- #
def _msa_call(be, A, B, mask, rows, codes, offsets, validate,
              out_cols, out_vals):
    add_op, mul_op, identity = codes
    ncols = B.ncols
    states = np.zeros(ncols, dtype=np.int8)
    values = np.empty(ncols, dtype=np.float64)
    args = (_c(A.indptr), _c(A.indices), _c(A.data),
            _c(B.indptr), _c(B.indices), _c(B.data),
            _c(mask.indptr), _c(mask.indices), rows,
            add_op, mul_op, identity, offsets, validate,
            out_cols, out_vals, states, values)
    if mask.complemented:
        touched = np.empty(ncols, dtype=INDEX_DTYPE)
        return be.msa_compl(*args, touched)
    return be.msa_plain(*args)


def msa_numeric_rows(A, B, mask, semiring, rows):
    from ..core import msa_kernel

    return _stitch("msa", msa_kernel, _msa_call, A, B, mask, semiring, rows)


def msa_numeric_rows_into(A, B, mask, semiring, rows, out_cols, out_vals,
                          offsets):
    from ..core import msa_kernel

    _into("msa", msa_kernel, _msa_call, A, B, mask, semiring, rows,
          out_cols, out_vals, offsets)


# --------------------------------------------------------------------- #
# Hash (per-row open-addressing table, LF 0.25, Fibonacci slots)
# --------------------------------------------------------------------- #
def _hash_call(be, A, B, mask, rows, codes, offsets, validate,
               out_cols, out_vals):
    add_op, mul_op, identity = codes
    if mask.complemented:
        _, _, nkeys = _compl_bounds(A, B, mask, rows)
        nkeys = np.ascontiguousarray(nkeys, dtype=INDEX_DTYPE)
        cap = _pow2cap(int(nkeys.max()) if nkeys.size else 0)
    else:
        mlens = mask.indptr[rows + 1] - mask.indptr[rows]
        nkeys = None
        cap = _pow2cap(int(mlens.max()) if mlens.size else 0)
    t_keys = np.empty(cap, dtype=INDEX_DTYPE)
    t_state = np.empty(cap, dtype=np.int8)
    t_vals = np.empty(cap, dtype=np.float64)
    args = (_c(A.indptr), _c(A.indices), _c(A.data),
            _c(B.indptr), _c(B.indices), _c(B.data),
            _c(mask.indptr), _c(mask.indices), rows)
    tail = (codes[0], codes[1], identity, offsets, validate,
            out_cols, out_vals, t_keys, t_state, t_vals)
    if mask.complemented:
        touched = np.empty(cap, dtype=INDEX_DTYPE)
        return be.hash_compl(*args, nkeys, *tail, touched)
    return be.hash_plain(*args, *tail)


def hash_numeric_rows(A, B, mask, semiring, rows):
    from ..core import hash_kernel

    return _stitch("hash", hash_kernel, _hash_call, A, B, mask, semiring,
                   rows)


def hash_numeric_rows_into(A, B, mask, semiring, rows, out_cols, out_vals,
                           offsets):
    from ..core import hash_kernel

    _into("hash", hash_kernel, _hash_call, A, B, mask, semiring, rows,
          out_cols, out_vals, offsets)


# --------------------------------------------------------------------- #
# the two protocol faces, shared by both accumulators
# --------------------------------------------------------------------- #
def _stitch(algorithm, fused, call, A, B, mask, semiring, rows):
    """Stitch face: compute ``rows`` compactly into a RowBlock with the
    compiled ``call``, or hand them to the ``fused`` kernel module."""
    from ..core.types import RowBlock, empty_block

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    reason, be, codes = _route(A, B, mask, semiring, algorithm)
    if reason is not None:
        return fused.numeric_rows(A, B, mask, semiring, rows)
    if rows.size == 0:
        return empty_block(0)
    _check_operands(A, B, mask, rows)
    if mask.complemented:
        bound = int(_compl_bounds(A, B, mask, rows)[1].sum())
    else:
        bound = int((mask.indptr[rows + 1] - mask.indptr[rows]).sum())
    offsets = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    call(be, A, B, mask, rows, codes, offsets, 0, out_cols, out_vals)
    total = int(offsets[-1])
    return RowBlock(np.diff(offsets), out_cols[:total], out_vals[:total])


def _into(algorithm, fused, call, A, B, mask, semiring, rows, out_cols,
          out_vals, offsets):
    """Direct-write face: scatter ``rows`` at the planned ``offsets``,
    validating computed sizes first, or hand them to the ``fused`` kernel
    module."""
    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    reason, be, codes = _route(A, B, mask, semiring, algorithm)
    if reason is not None:
        return fused.numeric_rows_into(A, B, mask, semiring, rows,
                                       out_cols, out_vals, offsets)
    if rows.size == 0:
        return
    _check_operands(A, B, mask, rows)
    offsets = np.ascontiguousarray(offsets, dtype=INDEX_DTYPE)
    if call(be, A, B, mask, rows, codes, offsets, 1, out_cols,
            out_vals) >= 0:
        raise AlgorithmError(
            f"{algorithm} (native): computed row sizes differ from the "
            f"planned offsets — stale plan (operand patterns changed since "
            f"the symbolic pass) or kernel divergence")


# --------------------------------------------------------------------- #
# probe self-test
# --------------------------------------------------------------------- #
def self_test(backend_mod) -> None:
    """Validate one backend end to end on tiny fixtures, bit-exactly against
    the fused numpy kernels (the probe's correctness gate, à la
    ``shared_memory_available``'s write/read probe). Also forces JIT /
    ``dlopen`` so the compile cost lands here, off the request path."""
    from ..core import hash_kernel, msa_kernel
    from ..mask import Mask
    from ..semiring import MIN_PLUS, PLUS_TIMES
    from ..sparse.csr import CSRMatrix

    rng = np.random.default_rng(1234)
    n = 16
    dense = (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    cols, vals = [], []
    for i in range(n):
        nz = np.flatnonzero(dense[i])
        indptr[i + 1] = indptr[i] + nz.size
        cols.append(nz.astype(INDEX_DTYPE))
        vals.append(dense[i, nz])
    A = CSRMatrix(indptr, np.concatenate(cols), np.concatenate(vals), (n, n))
    m_dense = rng.random((n, n)) < 0.4
    m_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    m_cols = []
    for i in range(n):
        nz = np.flatnonzero(m_dense[i]).astype(INDEX_DTYPE)
        m_indptr[i + 1] = m_indptr[i] + nz.size
        m_cols.append(nz)
    rows = np.arange(n, dtype=INDEX_DTYPE)

    import unittest.mock as mock

    for complemented in (False, True):
        mask = Mask(m_indptr.copy(), np.concatenate(m_cols), (n, n),
                    complemented=complemented)
        for semiring in (PLUS_TIMES, MIN_PLUS):
            want_msa = msa_kernel.numeric_rows(A, A, mask, semiring, rows)
            want_hash = hash_kernel.numeric_rows(A, A, mask, semiring, rows)
            with mock.patch(f"{__name__}._backend",
                            lambda m=backend_mod: m):
                got_msa = msa_numeric_rows(A, A, mask, semiring, rows)
                got_hash = hash_numeric_rows(A, A, mask, semiring, rows)
                # direct-write face against the stitch face's sizes
                offs = np.zeros(n + 1, dtype=INDEX_DTYPE)
                np.cumsum(got_msa.sizes, out=offs[1:])
                into_cols = np.empty(int(offs[-1]), dtype=INDEX_DTYPE)
                into_vals = np.empty(int(offs[-1]), dtype=np.float64)
                msa_numeric_rows_into(A, A, mask, semiring, rows,
                                      into_cols, into_vals, offs)
                hash_into_cols = np.empty(int(offs[-1]), dtype=INDEX_DTYPE)
                hash_into_vals = np.empty(int(offs[-1]), dtype=np.float64)
                hash_numeric_rows_into(A, A, mask, semiring, rows,
                                       hash_into_cols, hash_into_vals, offs)
            for want, got in ((want_msa, got_msa), (want_hash, got_hash)):
                if not (np.array_equal(want.sizes, got.sizes)
                        and np.array_equal(want.cols, got.cols)
                        and np.array_equal(want.vals, got.vals)):
                    raise RuntimeError(
                        f"native self-test mismatch (complemented="
                        f"{complemented}, semiring={semiring.name})")
            if not (np.array_equal(into_cols, want_msa.cols)
                    and np.array_equal(into_vals, want_msa.vals)
                    and np.array_equal(hash_into_cols, want_hash.cols)
                    and np.array_equal(hash_into_vals, want_hash.vals)):
                raise RuntimeError(
                    f"native self-test direct-write mismatch (complemented="
                    f"{complemented}, semiring={semiring.name})")
