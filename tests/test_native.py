"""Compiled (native) kernel tier tests.

The registry's ``msa`` / ``hash`` numeric faces are the compiled loops of
:mod:`repro.native.kernels`, delegating to the fused numpy kernels when the
compiled tier cannot serve a call.

* **bit-identity**: both faces (stitch + direct-write) of
  ``get_spec("msa"|"hash")`` produce byte-for-byte the output of
  ``msa_kernel`` / ``hash_kernel`` and the pure-Python reference, across
  every registered semiring, both mask polarities, empty rows, and the
  int32/int64 column-id boundary (hypothesis sweeps the shape/density
  space) — with the compiled loop asserted to have served each call;
* **graceful absence**: with ``REPRO_NATIVE=off`` (or no backend at all)
  the probe reports unavailable, ``msa``/``hash`` still answer — by
  delegating — and the engine reports the fused tier it ran, counted under
  ``repro_native_delegations_total{reason}``. These tests never skip;
* **defaults**: triangle counting, k-truss and BC with library defaults
  run the compiled loop and match the fused result bit-for-bit;
* **degrade ladder**: a chaos fault on ``engine.kernel`` drops a
  native-served request to the ``msa-loop`` rung with bit-identical output,
  counted in ``repro_degraded_total`` and visible as
  ``RequestStats.kernel_tier``;
* **thread backend**: ``backend="thread"`` is bit-identical to the local
  path with owned, borrowed, and absent executors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bit_identical, make_triple
import repro.algorithms as algorithms
from repro import native
from repro.core import hash_kernel, masked_spgemm, msa_kernel
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import (auto_select, available_algorithms,
                                 get_spec)
from repro.errors import AlgorithmError, FormatError
from repro.mask import Mask
from repro.native import kernels as native_kernels
from repro.native import native_available, native_backend_name
from repro.native.kernels import delegation_reason
from repro.parallel.executor import ThreadExecutor
from repro.parallel.runner import parallel_masked_spgemm
from repro.resilience import FaultPlan
from repro.semiring import PLUS_PAIR, PLUS_TIMES, Monoid, Semiring
from repro.semiring.standard import _REGISTRY as SEMIRINGS
from repro.service import Engine, Request
from repro.sparse import CSRMatrix, csr_random
from repro.validation import INDEX_DTYPE

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="no compiled backend (numba, or cffi + a C compiler) on this "
           "machine — the fallback contract has its own always-on tests")

#: the keys whose numeric faces are the compiled loops; the test ids name
#: the tier under test (each key's native face), not a registry key
NATIVE_KEYS = pytest.mark.parametrize(
    "alg", ["msa", "hash"], ids=["msa-native", "hash-native"])

FUSED = {"msa": msa_kernel, "hash": hash_kernel}


def _face_outputs(numeric, numeric_into, A, B, mask, sr):
    """Every output row through the stitch face and through the
    direct-write face (offsets from the symbolic pass), as CSRs."""
    rows = np.arange(A.nrows, dtype=INDEX_DTYPE)
    shape = (A.nrows, B.ncols)
    indptr = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(msa_kernel.symbolic_rows(A, B, mask, rows), out=indptr[1:])
    block = numeric(A, B, mask, sr, rows)
    stitched = CSRMatrix(np.concatenate(([0], np.cumsum(block.sizes))),
                         block.cols, block.vals, shape, check=False)
    cols = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    vals = np.empty(int(indptr[-1]), dtype=np.float64)
    numeric_into(A, B, mask, sr, rows, cols, vals, indptr)
    return stitched, CSRMatrix(indptr, cols, vals, shape, check=False)


def assert_matches_fused(alg, A, B, mask, sr=PLUS_TIMES, context="",
                         reason=None):
    """``get_spec(alg)``'s faces against the fused kernel's, after checking
    which tier serves the call (``reason`` None: the compiled loop)."""
    assert delegation_reason(A, B, mask, sr, alg) == reason, context
    spec, fused = get_spec(alg), FUSED[alg]
    got = _face_outputs(spec.numeric, spec.numeric_into, A, B, mask, sr)
    want = _face_outputs(fused.numeric_rows, fused.numeric_rows_into,
                         A, B, mask, sr)
    for face, g, w in zip(("stitch", "direct"), got, want):
        assert_bit_identical(g, w, f"{context}/{face}")


def _families(engine):
    from repro.obs import parse_exposition

    return parse_exposition(engine.metrics.render())


@pytest.fixture
def native_mode(monkeypatch):
    """Flip ``REPRO_NATIVE`` and re-probe; restores the real probe after."""
    def set_mode(mode):
        monkeypatch.setenv("REPRO_NATIVE", mode)
        native._reset_probe()

    yield set_mode
    monkeypatch.undo()
    native._reset_probe()


# --------------------------------------------------------------------- #
# bit-identity against fused and reference
# --------------------------------------------------------------------- #
@needs_native
class TestBitIdentity:
    @NATIVE_KEYS
    @pytest.mark.parametrize("semiring", list(SEMIRINGS))
    @pytest.mark.parametrize("complemented", [False, True])
    def test_matches_fused_all_semirings(self, rng, alg, semiring,
                                         complemented):
        A, B, M = make_triple(rng, m=60, k=50, n=55)
        mask = Mask.from_matrix(M, complemented=complemented)
        assert_matches_fused(alg, A, B, mask, SEMIRINGS[semiring],
                             f"{alg}/{semiring}/compl={complemented}")

    @NATIVE_KEYS
    def test_matches_reference(self, rng, alg):
        A, B, M = make_triple(rng, m=40, k=30, n=45)
        mask = Mask.from_matrix(M)
        got = masked_spgemm(A, B, mask, algorithm=alg, semiring=PLUS_TIMES,
                            phases=2)
        want = reference_masked_spgemm(A, B, mask, algorithm="msa",
                                       semiring=PLUS_TIMES)
        assert_bit_identical(got, want, f"{alg} vs reference")

    @NATIVE_KEYS
    def test_empty_rows_and_empty_mask_rows(self, rng, alg):
        # rows of A with no entries, rows of the mask with no entries, and
        # a fully-empty B stripe must all round-trip identically
        A = csr_random(24, 20, density=0.15, rng=rng)
        A = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data.copy(),
                      A.shape)
        B = csr_random(20, 26, density=0.15, rng=rng)
        M = csr_random(24, 26, density=0.12, rng=rng)
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            assert_matches_fused(alg, A, B, mask,
                                 context=f"{alg}/compl={complemented}")

    @given(m=st.integers(2, 40), k=st.integers(2, 40), n=st.integers(2, 40),
           da=st.floats(0.0, 0.4), dm=st.floats(0.0, 0.5),
           semiring=st.sampled_from(["plus_times", "plus_pair", "min_plus",
                                     "max_times", "or_and"]),
           complemented=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @NATIVE_KEYS
    def test_hypothesis_sweep(self, alg, m, k, n, da, dm, semiring,
                              complemented, seed):
        r = np.random.default_rng(seed)
        A = csr_random(m, k, density=da, rng=r, values="randint")
        B = csr_random(k, n, density=da, rng=r, values="randint")
        mask = Mask.from_matrix(csr_random(m, n, density=dm, rng=r),
                                complemented=complemented)
        assert_matches_fused(alg, A, B, mask, SEMIRINGS[semiring],
                             f"{alg}/{semiring}/compl={complemented}")

    def test_hash_native_wide_column_ids(self, rng):
        """Column ids past 2**31 must hash and compare as int64 — an int32
        truncation anywhere in the table would collide or mis-sort them."""
        wide = 2**31 + 64
        k = 6
        indptr = np.arange(k + 1, dtype=np.int64) * 3
        cols = np.array([7, 2**31 - 1, 2**31 + 5] * k, dtype=np.int64)
        vals = rng.random(cols.size)
        B = CSRMatrix(indptr, cols, vals, (k, wide))
        A = csr_random(8, k, density=0.6, rng=rng, values="randint")
        m_indptr = np.arange(9, dtype=np.int64) * 2
        m_cols = np.array([2**31 - 1, 2**31 + 5] * 8, dtype=np.int64)
        M = CSRMatrix(m_indptr, m_cols, np.ones(m_cols.size), (8, wide))
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            assert_matches_fused("hash", A, B, mask,
                                 context=f"wide/compl={complemented}")

    def test_msa_native_delegates_past_ncols_cap(self, rng):
        """msa's dense scratch cannot scale to huge column counts; past
        MSA_NCOLS_CAP the native face must hand the rows to fused msa
        (which chunks its scratch) and stay bit-identical."""
        from repro.native.kernels import MSA_NCOLS_CAP

        wide = MSA_NCOLS_CAP + 3
        k = 4
        indptr = np.arange(k + 1, dtype=np.int64) * 2
        cols = np.array([3, wide - 2] * k, dtype=np.int64)
        B = CSRMatrix(indptr, cols, rng.random(cols.size), (k, wide))
        A = csr_random(6, k, density=0.7, rng=rng, values="randint")
        m_indptr = np.arange(7, dtype=np.int64) * 2
        m_cols = np.array([3, wide - 2] * 6, dtype=np.int64)
        M = CSRMatrix(m_indptr, m_cols, np.ones(m_cols.size), (6, wide))
        mask = Mask.from_matrix(M)
        assert_matches_fused("msa", A, B, mask, context="msa ncols cap",
                             reason="ncols")
        # the hash table has no width cap: it keeps the compiled loop
        assert delegation_reason(A, B, mask, PLUS_TIMES, "hash") is None


@needs_native
def test_corrupt_operands_raise_before_the_compiled_loop(rng):
    """Operands built with check=False reach raw-pointer loops only after
    a bounds check: out-of-range ids or row pointers raise FormatError
    instead of reading out of bounds."""
    B = csr_random(3, 3, density=0.5, rng=rng)
    mask = Mask.from_matrix(csr_random(2, 3, density=0.9, rng=rng))
    bad = [
        CSRMatrix(np.array([0, 1, 1]), np.array([99]), np.array([1.0]),
                  (2, 3), check=False),                    # column id
        CSRMatrix(np.array([0, 1, 1]), np.array([-1]), np.array([1.0]),
                  (2, 3), check=False),                    # negative id
        CSRMatrix(np.array([0, 9, 9]), np.array([0]), np.array([1.0]),
                  (2, 3), check=False),                    # row pointer
    ]
    for alg in ("msa", "hash"):
        for A in bad:
            with pytest.raises(FormatError):
                masked_spgemm(A, B, mask, algorithm=alg)
        bad_b = CSRMatrix(np.array([0, 2, 1, 2]), B.indices[:2],
                          B.data[:2], (3, 3), check=False)
        good_a = csr_random(2, 3, density=0.9, rng=rng)
        with pytest.raises(FormatError):
            masked_spgemm(good_a, bad_b, mask, algorithm=alg)


# --------------------------------------------------------------------- #
# routing + registry surface
# --------------------------------------------------------------------- #
@needs_native
def test_auto_select_routes_to_native(rng):
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    mask = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    assert auto_select(A, A, mask) == "msa"
    assert delegation_reason(A, A, mask, PLUS_TIMES, "msa") is None
    # the long-row mask-reuse regime needs no loop tier: compiled msa is it
    E = csr_random(512, 512, density=32 / 512, rng=rng)
    assert auto_select(E, E, Mask.from_matrix(E)) == "msa"


def test_native_tiers_not_publicly_listed():
    """The compiled tier is an implementation of msa/hash, not a key:
    the listed keys carry it and the old routing keys are gone."""
    assert {"msa", "hash"} <= set(available_algorithms())
    assert get_spec("msa").numeric is native_kernels.msa_numeric_rows
    assert get_spec("hash").numeric_into is \
        native_kernels.hash_numeric_rows_into
    for key in ("msa-native", "hash-native"):
        with pytest.raises(AlgorithmError):
            get_spec(key)


@needs_native
def test_drivers_default_to_compiled_loop():
    """TC, k-truss and BC with library defaults run the compiled msa loop,
    and match the fused kernels (backend withheld) bit-for-bit."""
    from unittest import mock

    from repro.graphs import rmat

    g = rmat(8, 8, rng=np.random.default_rng(3))
    drivers = {
        "tc": lambda: algorithms.triangle_count(g),
        "ktruss": lambda: algorithms.ktruss(g, 4).subgraph,
        "bc": lambda: algorithms.betweenness_centrality(
            g, range(0, 256, 16)).centrality,
    }
    for name, run in drivers.items():
        with mock.patch.object(native_kernels, "_msa_call",
                               wraps=native_kernels._msa_call) as spy:
            compiled = run()
        assert spy.call_count > 0, f"{name} never reached the compiled loop"
        with mock.patch.object(native_kernels, "_backend",
                               return_value=None):
            fused = run()
        if isinstance(compiled, CSRMatrix):
            assert_bit_identical(compiled, fused, name)
        else:
            assert np.array_equal(np.asarray(compiled), np.asarray(fused)), \
                name


@needs_native
def test_unregistered_semiring_delegates(rng):
    """op-code mapping only covers the standard semirings; a custom one
    must silently take the fused path with identical output."""
    add = Monoid(np.add, 0.0, "custom_add")
    custom = Semiring(add, lambda a, b: a * b, "custom_times",
                      mul_scalar=lambda a, b: a * b)
    A, B, M = make_triple(rng, m=25, k=20, n=25)
    mask = Mask.from_matrix(M)
    for alg in ("msa", "hash"):
        assert_matches_fused(alg, A, B, mask, custom,
                             f"{alg} custom semiring", reason="semiring")


# --------------------------------------------------------------------- #
# graceful absence — always-on, no backend required
# --------------------------------------------------------------------- #
def test_repro_native_off_disables_the_tier(rng, native_mode):
    native_mode("off")
    assert not native_available()
    assert native_backend_name() is None
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    mask = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    assert auto_select(A, A, mask) == "msa"
    assert delegation_reason(A, A, mask, PLUS_TIMES, "msa") == "unavailable"
    # without the compiled loop, the long-row regime keeps the loop tier
    E = csr_random(512, 512, density=32 / 512, rng=rng)
    assert auto_select(E, E, Mask.from_matrix(E)) == "msa-loop"


def test_native_keys_still_answer_without_backend(rng, native_mode):
    """msa/hash delegate to the fused kernels instead of erroring when the
    tier is off — callers never need a guard."""
    native_mode("off")
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    for complemented in (False, True):
        mask = Mask.from_matrix(M, complemented=complemented)
        for alg in ("msa", "hash"):
            assert_matches_fused(alg, A, B, mask,
                                 context=f"{alg} off-delegation",
                                 reason="unavailable")


def test_repro_native_off_msa_request_reports_fused(rng, native_mode):
    """The tier label says what ran: with the tier off, an msa request is
    served by the fused kernel and reports it, counted as a delegation."""
    native_mode("off")
    eng = Engine()
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    for key, val in (("A", A), ("B", B), ("M", M)):
        eng.register(key, val)
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M", algorithm="msa",
                                  phases=2))
        assert resp.stats.kernel_tier == "fused"
        assert eng.stats.kernel_tiers == {"fused": 1}
        fam = _families(eng)["repro_native_delegations_total"]
        assert fam == {(("reason", "unavailable"),): 1}
    finally:
        eng.close()


@needs_native
def test_custom_semiring_counts_delegation(rng):
    add = Monoid(np.add, 0.0, "custom_add")
    custom = Semiring(add, lambda a, b: a * b, "custom_times",
                      mul_scalar=lambda a, b: a * b)
    eng = Engine()
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    try:
        resp = eng.multiply(A, B, M, algorithm="hash", semiring=custom)
        assert resp.stats.kernel_tier == "fused"
        resp = eng.multiply(A, B, M, algorithm="hash")
        assert resp.stats.kernel_tier == "native"
        fam = _families(eng)["repro_native_delegations_total"]
        assert fam == {(("reason", "semiring"),): 1}
    finally:
        eng.close()


def test_unknown_mode_means_unavailable(native_mode):
    native_mode("not-a-backend")
    assert not native_available()


def test_warmup_memoized_and_gauged():
    native._reset_probe()
    try:
        eng = Engine()
        try:
            seconds = native.warmup()
            assert seconds == native.warmup()  # memoized
            gauge = _families(eng)["repro_native_compile_seconds"]
            (value,) = gauge.values()
            assert value == pytest.approx(seconds)
            if not native_available():
                assert value == 0.0
        finally:
            eng.close()
    finally:
        native._reset_probe()


# --------------------------------------------------------------------- #
# degrade ladder (chaos leg)
# --------------------------------------------------------------------- #
@needs_native
def test_chaos_native_degrades_to_loop_bit_identically(rng):
    eng = Engine(faults=FaultPlan(["engine.kernel:error:1"]))
    A, B, M = make_triple(rng, m=40, k=30, n=40)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        req = Request(a="A", b="B", mask="M", algorithm="msa", phases=2)
        resp = eng.submit(req)
        want = reference_masked_spgemm(A, B, Mask.from_matrix(M),
                                       algorithm="msa", semiring=PLUS_TIMES)
        assert_bit_identical(resp.result, want, "degraded output")
        assert resp.stats.kernel_tier == "loop"
        assert resp.stats.algorithm == "msa"  # plan unchanged
        fam = _families(eng)["repro_degraded_total"]
        assert fam == {(("from", "inprocess"), ("to", "loop")): 1}
        # the fault is spent: the next request serves native again
        resp2 = eng.submit(req)
        assert resp2.stats.kernel_tier == "native"
        assert_bit_identical(resp2.result, want, "recovered output")
    finally:
        eng.close()


@needs_native
def test_engine_stamps_native_tier_and_counter(rng):
    eng = Engine()
    A, B, M = make_triple(rng, m=40, k=30, n=40)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        for _ in range(3):
            resp = eng.submit(Request(a="A", b="B", mask="M",
                                      algorithm="hash", phases=2))
            assert resp.stats.kernel_tier == "native"
        assert eng.stats.kernel_tiers == {"native": 3}
        fam = _families(eng)["repro_kernel_requests_total"]
        assert fam[(("tier", "native"),)] == 3
    finally:
        eng.close()


# --------------------------------------------------------------------- #
# thread backend
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_thread_backend_bit_identical(rng, nworkers):
    A, B, M = make_triple(rng, m=80, k=60, n=80, da=0.08, db=0.08)
    mask = Mask.from_matrix(M)
    want = masked_spgemm(A, B, mask, algorithm="msa", phases=2)
    ex = ThreadExecutor(nworkers)
    try:
        got = parallel_masked_spgemm(A, B, mask, algorithm="msa",
                                     semiring=PLUS_TIMES, phases=2,
                                     executor=ex, backend="thread")
    finally:
        ex.close()
    assert_bit_identical(got, want, f"thread x{nworkers}")


def test_thread_backend_transient_pool(rng):
    A, B, M = make_triple(rng, m=50, k=40, n=50)
    mask = Mask.from_matrix(M)
    got = parallel_masked_spgemm(A, B, mask, algorithm="hash",
                                 semiring=PLUS_PAIR, phases=2,
                                 backend="thread")
    want = masked_spgemm(A, B, mask, algorithm="hash", semiring=PLUS_PAIR,
                         phases=2)
    assert_bit_identical(got, want, "transient thread pool")


def test_thread_backend_plan_reuse(rng):
    A, B, M = make_triple(rng, m=60, k=50, n=60)
    mask = Mask.from_matrix(M)
    sink = []
    first = parallel_masked_spgemm(A, B, mask, algorithm="msa", phases=2,
                                   plan_sink=sink, backend="thread")
    assert len(sink) == 1
    warm = parallel_masked_spgemm(A, B, mask,
                                  algorithm=sink[0].algorithm, phases=2,
                                  plan=sink[0], backend="thread")
    assert_bit_identical(warm, first, "warm thread replay")
