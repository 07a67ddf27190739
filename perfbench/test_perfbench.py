"""Tests of the benchmark's own helpers.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import inputs, layers, measure, spans
from perfbench.workloads import candidate_versions


# -- tail percentiles ---------------------------------------------------- #
def test_tail_needs_ten_samples_beyond():
    assert measure.min_samples(99) == 1000
    assert measure.min_samples(90) == 100
    assert measure.min_samples(50) == 20
    with pytest.raises(measure.InsufficientSamples):
        measure.tail(list(range(999)), 99)
    samples = list(range(1, 1001))
    p99 = measure.tail(samples, 99)
    assert p99 == 990
    assert sum(s > p99 for s in samples) == 10
    assert measure.tail(list(range(1, 101)), 90) == 90


def test_percentile_is_nearest_rank():
    assert measure.percentile([5, 1, 3], 50) == 3
    assert measure.percentile([5, 1, 3], 100) == 5
    assert measure.percentile([5, 1, 3], 1) == 1


# -- self time ----------------------------------------------------------- #
def _span(sid, t0, t1, parent=None, layer="runner", name="x", op=1):
    sp = spans.Span(sid, name, layer, t0, parent, op, "measure")
    sp.t1 = t1
    return sp


def test_self_time_counts_overlapping_children_once():
    # two thread-pool chunks overlap in [2, 4]; a third outlives the parent
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 4.0, parent, "kernel"),
            _span(3, 2.0, 6.0, parent, "kernel"),
            _span(4, 8.0, 12.0, parent, "kernel")]
    st = spans.self_times([parent, *kids])
    assert st[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st[2] == pytest.approx(3.0)


def test_covered_handles_nesting_and_gaps():
    assert spans.covered([(1, 3), (1.5, 2), (5, 6)], 0, 10) == pytest.approx(3)
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(-5, -1)], 0, 10) == 0


def test_layer_shares_add_up_to_wall_time():
    server = _span(1, 0.0, 10.0, layer="server", name="server.submit")
    engine = _span(2, 2.0, 9.0, server, "engine", "engine.submit")
    runner = _span(3, 3.0, 8.0, engine, "runner", "runner.masked_spgemm")
    chunk_a = _span(4, 4.0, 5.5, runner, "kernel", "kernel.numeric")
    chunk_b = _span(5, 5.5, 7.0, runner, "kernel", "kernel.numeric")
    for sp in (chunk_a, chunk_b):
        sp.attrs.update(key="esc", flops=1_000_000)
    out = layers.layer_metrics([server, engine, runner, chunk_a, chunk_b],
                               [(1, "read", -1.0, 10.0)])
    assert out["server.self_share"] == pytest.approx(3 / 11)
    assert out["engine.self_share"] == pytest.approx(2 / 11)
    assert out["runner.self_share"] == pytest.approx(2 / 11)
    assert out["kernel.share"] == pytest.approx(3 / 11)
    assert out["trace.unattributed_share"] == pytest.approx(1 / 11)
    assert out["runner.chunks_per_call.p50"] == 2
    assert out["dispatch.native_share"] == 0.0
    assert set(out) == set(layers.UNITS)


def test_recorder_traces_a_thread_backend_product_and_uninstalls():
    from repro.core import api, registry
    from repro.graphs import rmat
    from repro.mask import Mask
    from repro.parallel import ThreadExecutor
    from repro.parallel import runner as runner_mod
    from repro.semiring import PLUS_PAIR

    originals = (api.masked_spgemm, runner_mod.parallel_masked_spgemm,
                 registry.get_spec, registry.auto_select)
    g = rmat(7, 8, rng=3)
    rec = spans.Recorder()
    rec.phase = "measure"
    rec.install()
    try:
        with ThreadExecutor(2) as pool, spans.operation(7):
            C = api.masked_spgemm(g, g, Mask.from_matrix(g), phases=2,
                                  semiring=PLUS_PAIR, executor=pool)
    finally:
        rec.uninstall()
    assert (api.masked_spgemm, runner_mod.parallel_masked_spgemm,
            registry.get_spec, registry.auto_select) == originals
    names = {sp.name for sp in rec.spans}
    assert {"runner.masked_spgemm", "runner.parallel", "dispatch.auto_select",
            "kernel.numeric"} <= names
    assert all(sp.op == 7 for sp in rec.spans)
    numeric = [sp for sp in rec.spans if sp.name == "kernel.numeric"]
    assert sum(sp.attrs["flops"] for sp in numeric) > 0
    st = spans.self_times(rec.spans)
    assert all(v >= -1e-9 for v in st.values())
    assert C.nnz > 0


# -- seeded inputs --------------------------------------------------------- #
def _serve_view(seed):
    got = inputs.serve_inputs(seed, scale_shift=-3)
    return ([s.tolist() for s in got.streams], inputs.serve_expected(got))


def test_serve_inputs_follow_the_seed():
    assert _serve_view(5) == _serve_view(5)
    assert _serve_view(5)[0] != _serve_view(6)[0]


def _stream_view(seed):
    got = inputs.stream_inputs(seed, scale_shift=-4, delta_cap=20)
    deltas = [[d[k].tolist() for k in sorted(d)] for key in sorted(got.deltas)
              for d in got.deltas[key]]
    fps = {}
    for key in got.operands:
        fps.update(inputs.stream_expected(got, key, range(0, 21, 5)))
    return (got.stream_a.tolist(), got.stream_b.tolist(),
            got.delta_keys.tolist(), deltas, fps)


def test_stream_inputs_follow_the_seed():
    a, b = _stream_view(3), _stream_view(3)
    assert a == b
    c = _stream_view(4)
    assert a[0] != c[0] and a[3] != c[3]


def test_stream_deltas_keep_their_shape_contracts():
    got = inputs.stream_inputs(2, scale_shift=-4, delta_cap=30)
    from perfbench import oracle

    state = oracle.EdgeState(got.operands["G"])
    for d in got.deltas["G"]:
        state.apply(d)
    g = state.scipy()
    assert (g != g.T).nnz == 0
    state = oracle.EdgeState(got.operands["L"])
    for d in got.deltas["L"]:
        state.apply(d)
    lo = state.scipy().tocoo()
    assert np.all(lo.row > lo.col)


def _analytics_view(seed):
    got = inputs.analytics_inputs(seed, scale_shift=-4)
    return ({k: v.tolist() for k, v in got.sources.items()},
            {k: measure.fingerprint(g.indptr, g.indices, g.data, g.shape)
             for k, g in got.graphs.items()},
            inputs.analytics_expected(got)[("ktruss", "rmat")])


def test_analytics_inputs_follow_the_seed():
    assert _analytics_view(1) == _analytics_view(1)
    assert _analytics_view(1)[1] != _analytics_view(2)[1]


# -- stream-delta version windows -------------------------------------- #
def test_candidate_versions():
    batches = [(1.0, 2.0), (5.0, 6.0)]
    assert list(candidate_versions(batches, 0.0, 0.5)) == [0]
    assert list(candidate_versions(batches, 0.0, 1.5)) == [0, 1]
    assert list(candidate_versions(batches, 2.5, 4.0)) == [1]
    assert list(candidate_versions(batches, 3.0, 5.5)) == [1, 2]
    assert list(candidate_versions(batches, 7.0, 8.0)) == [2]
    assert list(candidate_versions([], 0.0, 1.0)) == [0]


def test_chunked_tail_takes_the_median_of_chunk_tails():
    burst = [100.0] * 1000 + list(range(1, 1001)) + list(range(1, 1001))
    value, chunks = measure.chunked_tail(burst, 99)
    assert chunks == 3 and value == 990
    # a short remainder joins the last chunk instead of standing alone
    assert measure.chunked_tail(list(range(1, 1500)), 99)[1] == 1
    with pytest.raises(measure.InsufficientSamples):
        measure.chunked_tail(list(range(999)), 99)


def test_windowed_rate_is_robust_to_one_stalled_window():
    # ten completions a second, except a stalled third second
    stamps = [t + i / 10 for t in (0, 1, 3, 4) for i in range(10)]
    assert measure.windowed_rate(stamps, 0.0, 5.0, 5) == pytest.approx(10.0)
