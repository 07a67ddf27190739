"""Dispatcher tests: masked_spgemm options, registry, auto-selection,
baselines, plain spgemm."""

import numpy as np
import pytest

from conftest import make_triple
from repro.core import (
    algorithm_info,
    available_algorithms,
    display_name,
    masked_spgemm,
    spgemm,
)
from repro.core.registry import BASELINE_KEYS, auto_select, get_spec, parse_name
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.sparse import csr_random


def test_mask_argument_flexibility(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa")
    # raw CSRMatrix accepted as a plain mask
    got = masked_spgemm(A, B, M, algorithm="msa")
    assert got.equals(want)
    # None = unmasked
    unmasked = masked_spgemm(A, B, None, algorithm="msa")
    assert unmasked.allclose_values(spgemm(A, B))


def test_invalid_phase_count(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="msa", phases=3)


def test_invalid_tier(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="msa", tier="turbo")


def test_unknown_algorithm(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="does-not-exist")


def test_reference_tier_dispatch(rng):
    A, B, M = make_triple(rng)
    v = masked_spgemm(A, B, M, algorithm="hash")
    r = masked_spgemm(A, B, M, algorithm="hash", tier="reference")
    assert v.equals(r)


def test_baselines_match_kernels(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, M, algorithm="msa")
    for base in BASELINE_KEYS:
        got = masked_spgemm(A, B, M, algorithm=base)
        # saxpy baselines keep explicit zeros differently; compare dense
        assert got.allclose_values(want), base


def test_baseline_plus_pair(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, M, algorithm="msa", semiring=PLUS_PAIR)
    got = masked_spgemm(A, B, M, algorithm="saxpy-scipy", semiring=PLUS_PAIR)
    assert got.allclose_values(want)


def test_registry_contents():
    algs = available_algorithms()
    assert set(algs) == {"msa", "esc", "hash", "mca", "heap", "heapdot",
                         "inner", "hybrid"}
    compl = available_algorithms(complemented=True)
    assert "mca" not in compl and "inner" not in compl
    assert "hybrid" in compl and "esc" in compl
    assert "saxpy" in available_algorithms(include_baselines=True)


def test_display_and_parse_names():
    assert display_name("msa", 1) == "MSA-1P"
    assert display_name("heapdot", 2) == "HeapDot-2P"
    assert display_name("saxpy") == "SS:SAXPY*"
    assert parse_name("MSA-2P") == ("msa", 2)
    assert parse_name("hash") == ("hash", 1)
    with pytest.raises(AlgorithmError):
        parse_name("BOGUS-1P")


def test_algorithm_info():
    spec = algorithm_info("mca")
    assert spec.family == "push"
    assert not spec.supports_complement
    assert "mask rank" in spec.description.lower() or "Mask" in spec.description


def test_auto_select_follows_density_heuristic(rng):
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    B = csr_random(n, n, density=16 / n, rng=rng)
    sparse_mask = Mask.from_matrix(csr_random(n, n, density=1 / n, rng=rng))
    dense_mask = Mask.from_matrix(csr_random(n, n, density=100 / n, rng=rng))
    comparable = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    # msa/hash carry the compiled tier themselves, so the picks are the
    # same keys with or without a native backend
    assert auto_select(A, B, sparse_mask) == "inner"
    assert auto_select(A, B, dense_mask) == "heap"
    assert auto_select(A, B, comparable) == "msa"  # small n
    compl = Mask.from_matrix(csr_random(n, n, density=0.1, rng=rng),
                             complemented=True)
    assert auto_select(A, B, compl) in ("msa", "hash")


def test_auto_runs_end_to_end(rng):
    A, B, M = make_triple(rng)
    C = masked_spgemm(A, B, M, algorithm="auto")
    want = masked_spgemm(A, B, M, algorithm="msa")
    assert C.equals(want)


def test_spgemm_matches_scipy(rng):
    from repro.sparse.convert import to_scipy

    A, B, _ = make_triple(rng)
    got = spgemm(A, B)
    want = (to_scipy(A) @ to_scipy(B)).toarray()
    assert np.allclose(got.to_dense(), want)


def test_get_spec_unknown():
    with pytest.raises(AlgorithmError):
        get_spec("nope")
