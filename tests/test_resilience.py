"""Chaos suite for :mod:`repro.resilience` (PR 7).

The standing contract: every resilience mechanism keeps results
**bit-identical** — a retried, degraded, healed, or breaker-routed request
returns exactly the bytes the plain in-process engine would have. The
fault-injection seam (:class:`~repro.resilience.FaultPlan`) is what lets
this suite *actually* kill shard workers, inject worker errors, slow
kernels, and expire deadlines, deterministically:

* worker kill mid-scatter → pool break, heal, same-tier retry, identical
  result; a second kill exhausts the retry budget and degrades in-process,
  still identical;
* injected worker errors feed the circuit breaker: trip after N
  consecutive failures, route around the pool while open, half-open probe
  after the cooldown, close on probe success;
* deadlines shed queued work (typed ``DeadlineExceeded`` naming the
  enforcement stage) and attribute a coalesced follower's expiry to the
  follower, not the primary;
* ``AsyncServer.close()`` during injected failures leaves no stranded
  futures and no leaked ``/dev/shm`` segments;
* orphaned-segment sweeps (``repro gc-shm``) unlink only dead-owner
  segments, and the PlanStore warm start survives corrupt entries.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import make_triple
from repro.mask import Mask
from repro.obs import MetricsRegistry, ObsHTTPServer, parse_exposition
from repro.resilience import (
    BREAKER_STATE_VALUES,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    apply_fault,
    list_repro_segments,
    resolve_deadline,
    sweep_orphans,
    wire_format,
)
from repro.service import AsyncServer, Engine, PlanStore, Request, serve_all
from repro.service.plan import plan_key
from repro.core.plan import build_plan
from repro.shard import shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="no usable shared memory on this machine")

#: fast schedule for tests — single quick retry, microscopic backoff
FAST_RETRY = dict(max_attempts=2, base_delay=0.001, max_delay=0.002)


def _assert_identical(got, want):
    assert got.same_pattern(want)
    assert np.array_equal(got.data, want.data)


def _shard_engine(rng, *, faults=None, breaker=None, retry=None, nshards=2):
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    eng = Engine(shards=nshards, faults=faults, breaker=breaker,
                 retry=retry or RetryPolicy(**FAST_RETRY))
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def _reference_result(A, B, M, **req_kw):
    """The plain, fault-free, in-process answer — the bit-identity oracle."""
    ref = Engine(faults=FaultPlan(()))
    ref.register("A", A)
    ref.register("B", B)
    ref.register("M", M)
    try:
        return ref.submit(Request(a="A", b="B", mask="M", phases=2,
                                  **req_kw)).result
    finally:
        ref.close()


def _families(engine):
    return parse_exposition(engine.metrics.render())


def _family_sum(engine, name):
    return sum(_families(engine).get(name, {}).values())


# ---------------------------------------------------------------------- #
# fault plan parsing and bookkeeping
# ---------------------------------------------------------------------- #
def test_fault_spec_parse_forms():
    s = FaultSpec.parse("shard.numeric:kill")
    assert (s.site, s.action, s.count) == ("shard.numeric", "kill", 1)
    s = FaultSpec.parse("engine.kernel:error:3")
    assert (s.action, s.count) == ("error", 3)
    s = FaultSpec.parse("shard.numeric:slow:2:0.05")
    assert (s.count, s.param) == (2, 0.05)
    with pytest.raises(ValueError):
        FaultSpec.parse("just-a-site")
    with pytest.raises(ValueError):
        FaultSpec.parse("shard.numeric:explode")
    with pytest.raises(ValueError):
        FaultSpec(site="x", action="kill", count=0)


def test_fault_plan_check_decrements_and_records():
    plan = FaultPlan.parse("shard.numeric:error:2,engine.kernel:slow:1")
    assert bool(plan)
    assert plan.check("nowhere") is None
    assert plan.check("shard.numeric").action == "error"
    assert plan.check("shard.numeric").action == "error"
    assert plan.check("shard.numeric") is None  # budget spent
    assert plan.check("engine.kernel").action == "slow"
    assert not plan  # everything spent
    assert plan.fired == {("shard.numeric", "error"): 2,
                          ("engine.kernel", "slow"): 1}
    assert plan.fired_total() == 3


def test_fault_plan_skip_passes_through_first():
    plan = FaultPlan([FaultSpec(site="s", action="error", count=1, skip=2)])
    assert plan.check("s") is None
    assert plan.check("s") is None
    assert plan.check("s") is not None
    assert plan.check("s") is None


def test_fault_plan_from_env():
    assert FaultPlan.from_env({}) is None
    assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
    plan = FaultPlan.from_env({"REPRO_FAULTS": "shard.attach:error:2"})
    assert plan.check("shard.attach") is not None


def test_apply_fault_actions_and_wire_format():
    apply_fault(None)  # no-op
    with pytest.raises(InjectedFault):
        apply_fault(FaultSpec(site="s", action="error"))
    with pytest.raises(InjectedFault):
        apply_fault(("s", "error", 0.0))  # wire form, as workers receive it
    t0 = time.perf_counter()
    apply_fault(FaultSpec(site="s", action="slow", param=0.02))
    assert time.perf_counter() - t0 >= 0.02
    assert wire_format(None) is None
    assert wire_format(FaultSpec(site="s", action="kill", param=0.1)) == \
        ("s", "kill", 0.1)


def test_apply_fault_kill_exits_hard():
    # kill must be a crash (os._exit), not an exception — verify in a
    # throwaway child so the test process survives
    code = ("from repro.resilience import apply_fault, FaultSpec\n"
            "apply_fault(FaultSpec(site='s', action='kill'))\n"
            "print('survived')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(__file__).parent.parent
                                                 / "src")})
    assert proc.returncode == 1
    assert "survived" not in proc.stdout


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #
def test_retry_backoff_grows_and_caps():
    pol = RetryPolicy(max_attempts=5, base_delay=0.01, multiplier=2.0,
                      max_delay=0.05, jitter=0.0)
    assert pol.backoff(0) == pytest.approx(0.01)
    assert pol.backoff(1) == pytest.approx(0.02)
    assert pol.backoff(2) == pytest.approx(0.04)
    assert pol.backoff(3) == pytest.approx(0.05)  # capped
    assert pol.backoff(10) == pytest.approx(0.05)


def test_retry_jitter_is_seeded_and_bounded():
    a = [RetryPolicy(jitter=0.5, seed=7).backoff(1) for _ in range(3)]
    b = [RetryPolicy(jitter=0.5, seed=7).backoff(1) for _ in range(3)]
    assert a == b  # same seed, same schedule
    base = RetryPolicy(jitter=0.0).backoff(1)
    for d in a:
        assert base <= d <= base * 1.5
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
def test_breaker_trips_half_opens_and_recovers():
    reg = MetricsRegistry()
    br = CircuitBreaker(failure_threshold=2, reset_seconds=0.03)
    br.bind_metrics(reg)
    assert br.state == "closed" and br.allow()
    br.record_failure()
    assert br.state == "closed"  # one failure below threshold
    br.record_failure()
    assert br.state == "open"
    assert not br.allow()  # cooling down: route around the pool
    time.sleep(0.04)
    assert br.allow()  # this call claims the half-open probe slot
    assert br.state == "half_open"
    assert not br.allow()  # concurrent callers refused while probing
    br.record_failure()  # probe failed → reopen
    assert br.state == "open"
    time.sleep(0.04)
    assert br.allow()
    br.record_success()  # probe succeeded → closed, counter reset
    assert br.state == "closed"
    br.record_failure()
    assert br.state == "closed"  # consecutive count restarted

    fam = parse_exposition(reg.render())
    assert sum(fam["repro_breaker_state"].values()) == \
        BREAKER_STATE_VALUES["closed"]
    assert sum(fam["repro_breaker_transitions_total"].values()) >= 4


def test_breaker_success_resets_consecutive_failures():
    br = CircuitBreaker(failure_threshold=2)
    br.record_failure()
    br.record_success()
    br.record_failure()
    assert br.state == "closed"  # never two *consecutive* failures


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #
def test_deadline_basics():
    assert Deadline.after_ms(None) is None
    d = Deadline.after_ms(10_000)
    assert not d.expired() and d.remaining() > 9.0
    d.check("engine")  # plenty of budget: no raise
    spent = Deadline(time.monotonic() - 0.001)
    assert spent.expired()
    with pytest.raises(DeadlineExceeded) as ei:
        spent.check("scatter", "3 tasks in flight")
    assert ei.value.stage == "scatter"
    assert "3 tasks in flight" in str(ei.value)


def test_resolve_deadline_prefers_server_stamp():
    req = Request(a="A", b="B", deadline_ms=5_000)
    fresh = resolve_deadline(req)
    assert fresh is not None and fresh.remaining() > 4.0
    stamped = Deadline.after_ms(50)
    req._deadline = stamped
    assert resolve_deadline(req) is stamped  # queue time already counted
    assert resolve_deadline(Request(a="A", b="B")) is None


def test_request_deadline_ms_roundtrips_from_dict():
    req = Request.from_dict({"a": "A", "b": "B", "deadline_ms": 250})
    assert req.deadline_ms == 250
    # deadline is not part of batching identity: equal work, equal key
    assert req.group_key() == Request(a="A", b="B").group_key()


# ---------------------------------------------------------------------- #
# orphaned shared-memory hygiene
# ---------------------------------------------------------------------- #
def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_sweep_orphans_unlinks_only_dead_owners(tmp_path):
    dead = _dead_pid()
    (tmp_path / f"repro_{dead}_0").write_bytes(b"x" * 64)
    (tmp_path / f"repro_{os.getpid()}_0").write_bytes(b"y" * 32)
    (tmp_path / "repro_notapid").write_bytes(b"z")  # unparsable: left alone
    (tmp_path / "unrelated").write_bytes(b"w")

    segs = {s.name: s for s in list_repro_segments(str(tmp_path))}
    assert segs[f"repro_{dead}_0"].owner_alive is False
    assert segs[f"repro_{os.getpid()}_0"].owner_alive is True
    assert segs["repro_notapid"].owner_pid == 0
    assert "unrelated" not in segs

    dry = sweep_orphans(str(tmp_path), dry_run=True)
    assert [s.name for s in dry] == [f"repro_{dead}_0"]
    assert (tmp_path / f"repro_{dead}_0").exists()  # dry run touches nothing

    swept = sweep_orphans(str(tmp_path))
    assert [s.name for s in swept] == [f"repro_{dead}_0"]
    assert not (tmp_path / f"repro_{dead}_0").exists()
    assert (tmp_path / f"repro_{os.getpid()}_0").exists()
    assert (tmp_path / "repro_notapid").exists()
    assert (tmp_path / "unrelated").exists()


def test_gc_shm_cli(tmp_path, capsys):
    from repro.__main__ import main

    dead = _dead_pid()
    (tmp_path / f"repro_{dead}_1").write_bytes(b"x" * 128)
    assert main(["gc-shm", "--shm-dir", str(tmp_path), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would unlink 1" in out and "ORPHAN" in out
    assert (tmp_path / f"repro_{dead}_1").exists()

    assert main(["gc-shm", "--shm-dir", str(tmp_path)]) == 0
    assert "unlinked 1" in capsys.readouterr().out
    assert not (tmp_path / f"repro_{dead}_1").exists()

    assert main(["gc-shm", "--shm-dir", str(tmp_path)]) == 0
    assert "no repro_* segments" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# tolerant plan-store warm start
# ---------------------------------------------------------------------- #
def test_plan_store_skips_corrupt_entry(rng, tmp_path):
    A, B, M = make_triple(rng, m=25, k=20, n=25)
    mask = Mask.from_matrix(M)
    pairs = []
    for alg in ("msa", "hash"):
        plan = build_plan(A, B, mask, algorithm=alg, phases=2)
        key = plan_key("afp", "bfp", "mfp", False, alg, 2, "plus_times")
        pairs.append((key, plan))
    path = tmp_path / "plans.npz"
    store = PlanStore(path)
    assert store.save(pairs) == 2

    # mangle entry 0's key in place (wrong arity) — entry 1 must survive
    with np.load(path, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
        doc = json.loads(bytes(arrays.pop("manifest")))
    doc["plans"][0]["key"] = ["broken"]
    arrays["manifest"] = np.frombuffer(json.dumps(doc).encode(),
                                       dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)

    with pytest.warns(RuntimeWarning, match="skipping corrupt plan entry 0"):
        restored = store.load()
    assert len(restored) == 1
    key, plan = restored[0]
    assert key[4] == "hash"
    assert np.array_equal(plan.row_sizes, pairs[1][1].row_sizes)


def test_plan_store_skips_entry_naming_unknown_kernel(rng, tmp_path):
    """A record naming a kernel this build does not register (a store
    saved before a routing key was removed) is skipped at load, costing
    one cold plan — loading it would fail every matching request."""
    A, B, M = make_triple(rng, m=25, k=20, n=25)
    eng = Engine()
    for key, val in (("A", A), ("B", B), ("M", M)):
        eng.register(key, val)
    req = Request(a="A", b="B", mask="M", algorithm="auto", phases=2)
    try:
        want = eng.submit(req).result
        path = tmp_path / "plans.npz"
        assert eng.save_plans(path) == 1
    finally:
        eng.close()
    with np.load(path, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
        doc = json.loads(bytes(arrays.pop("manifest")))
    doc["plans"][0]["algorithm"] = "msa-native"
    arrays["manifest"] = np.frombuffer(json.dumps(doc).encode(),
                                       dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)

    fresh = Engine()
    for key, val in (("A", A), ("B", B), ("M", M)):
        fresh.register(key, val)
    try:
        with pytest.warns(RuntimeWarning,
                          match="skipping corrupt plan entry 0.*msa-native"):
            assert fresh.load_plans(path) == 0
        for _ in range(2):  # cold once, then warm — never poisoned
            resp = fresh.submit(req)
            _assert_identical(resp.result, want)
        assert resp.stats.plan_cache_hit
    finally:
        fresh.close()


# ---------------------------------------------------------------------- #
# worker kill mid-scatter: retry, heal, degrade — all bit-identical
# ---------------------------------------------------------------------- #
@needs_shm
def test_worker_kill_retries_bit_identically(rng):
    eng, (A, B, M) = _shard_engine(
        rng, faults=FaultPlan(["shard.numeric:kill:1"]))
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(resp.result, _reference_result(A, B, M))
        assert resp.stats.sharded  # the retry landed back on the pool
        assert eng.shards is not None and eng.shards.respawns == 1
        assert eng._retries.value(tier="shard", outcome="success") == 1
        assert eng.breaker.state == "closed"  # below the default threshold
        assert eng.faults.fired == {("shard.numeric", "kill"): 1}
    finally:
        eng.close()


@needs_shm
def test_worker_kill_exhausting_retries_degrades_bit_identically(rng):
    eng, (A, B, M) = _shard_engine(
        rng, faults=FaultPlan(["shard.numeric:kill:2"]))
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(resp.result, _reference_result(A, B, M))
        assert not resp.stats.sharded  # retry budget spent → in-process
        assert eng._retries.value(tier="shard", outcome="failure") == 1
        assert _families(eng)["repro_degraded_total"][
            (("from", "shard"), ("to", "inprocess"))] >= 1
        # the pool healed behind the failure: the next request shards again
        resp2 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        assert resp2.stats.sharded
        _assert_identical(resp2.result, resp.result)
    finally:
        eng.close()


@needs_shm
def test_injected_worker_error_trips_and_half_opens_breaker(rng):
    eng, (A, B, M) = _shard_engine(
        rng,
        faults=FaultPlan(["shard.numeric:error:3"]),
        breaker=CircuitBreaker(failure_threshold=2, reset_seconds=0.05))
    try:
        want = _reference_result(A, B, M)
        # request 1: two injected worker errors exhaust the retry budget
        # and trip the breaker (threshold 2)
        r1 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(r1.result, want)
        assert eng.breaker.state == "open"

        # request 2 (breaker open): routed straight around the pool — the
        # remaining fault budget is not consumed
        r2 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(r2.result, want)
        assert not r2.stats.sharded
        assert eng.faults.fired_total() == 2

        # request 3 after the cooldown: half-open probe hits the third
        # injected error → breaker reopens
        time.sleep(0.06)
        r3 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(r3.result, want)
        assert eng.breaker.state == "open"
        assert eng.faults.fired_total() == 3

        # request 4 after another cooldown: probe succeeds (faults spent)
        # → breaker closes and sharded serving resumes
        time.sleep(0.06)
        r4 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        _assert_identical(r4.result, want)
        assert r4.stats.sharded
        assert eng.breaker.state == "closed"
        fam = _families(eng)
        assert fam["repro_breaker_transitions_total"][
            (("to", "open"),)] == 2
        assert fam["repro_breaker_transitions_total"][
            (("to", "half_open"),)] == 2
        assert fam["repro_breaker_transitions_total"][
            (("to", "closed"),)] == 1
    finally:
        eng.close()


def test_engine_kernel_fault_degrades_to_loop_tier(rng):
    # one rung above the loop whether or not msa runs compiled: a single
    # fault bottoms the request out on the loop tier
    eng = Engine(faults=FaultPlan(["engine.kernel:error:1"]))
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M",
                                  algorithm="msa", phases=2))
        _assert_identical(resp.result, _reference_result(A, B, M))
        assert resp.stats.kernel_tier == "loop"
        fam = _families(eng)["repro_degraded_total"]
        assert fam == {(("from", "inprocess"), ("to", "loop")): 1}
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# deadlines through the engine and the shard scatter
# ---------------------------------------------------------------------- #
@needs_shm
def test_scatter_deadline_sheds_and_pool_survives(rng):
    eng, (A, B, M) = _shard_engine(
        rng, faults=FaultPlan(["shard.numeric:slow:1:0.5"]))
    try:
        with pytest.raises(DeadlineExceeded) as ei:
            eng.submit(Request(a="A", b="B", mask="M", phases=2,
                               deadline_ms=120))
        assert ei.value.stage == "scatter"
        assert eng._deadline_total.value(stage="scatter") == 1
        # the abandoned scatter must not poison the pool: the next
        # (undeadlined) request serves sharded and bit-identically
        resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        assert resp.stats.sharded
        _assert_identical(resp.result, _reference_result(A, B, M))
    finally:
        eng.close()


def test_expired_deadline_shed_before_any_work(rng):
    eng = Engine()
    A, B, M = make_triple(rng, m=20, k=15, n=20)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        req = Request(a="A", b="B", mask="M", phases=2, deadline_ms=50)
        req._deadline = Deadline(time.monotonic() - 1.0)  # already spent
        with pytest.raises(DeadlineExceeded) as ei:
            eng.submit(req)
        assert ei.value.stage == "engine"
        assert eng._deadline_total.value(stage="engine") == 1
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# async server: queue sheds and follower attribution
# ---------------------------------------------------------------------- #
def test_deadline_sheds_queued_work(rng):
    # one worker, a slow request in front (injected 0.3 s kernel stall),
    # and a 60 ms-deadline request stuck behind it in the queue
    eng = Engine(faults=FaultPlan(["engine.kernel:slow:1:0.3"]))
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    slow = Request(a="A", b="B", mask="M", phases=2, tag="slow")
    shed = Request(a="A", b="B", mask="M", phases=2, tag="shed",
                   deadline_ms=60)

    async def main():
        async with AsyncServer(eng, workers=1, dedup=False) as srv:
            results = await asyncio.gather(srv.submit(slow),
                                           srv.submit(shed),
                                           return_exceptions=True)
        return results, srv

    try:
        (slow_res, shed_res), srv = asyncio.run(main())
        assert not isinstance(slow_res, BaseException)
        _assert_identical(slow_res.result, _reference_result(A, B, M))
        assert isinstance(shed_res, DeadlineExceeded)
        assert shed_res.stage in ("queue", "submit", "admission")
        assert srv.stats.shed == 1
        assert srv.stats.completed == 1
    finally:
        eng.close()


def test_follower_gets_own_deadline_not_the_primaries(rng):
    # a coalesced follower whose own budget expires while awaiting the
    # (undeadlined, slow) primary is shed with stage="follower"; the
    # primary still completes
    eng = Engine(faults=FaultPlan(["engine.kernel:slow:1:0.4"]))
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    primary = Request(a="A", b="B", mask="M", phases=2)
    follower = Request(a="A", b="B", mask="M", phases=2, deadline_ms=100)

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            t1 = asyncio.ensure_future(srv.submit(primary))
            await asyncio.sleep(0.05)  # primary is in flight
            t2 = asyncio.ensure_future(srv.submit(follower))
            return await asyncio.gather(t1, t2,
                                        return_exceptions=True), srv

    try:
        (prim_res, foll_res), srv = asyncio.run(main())
        assert not isinstance(prim_res, BaseException)
        _assert_identical(prim_res.result, _reference_result(A, B, M))
        assert isinstance(foll_res, DeadlineExceeded)
        assert foll_res.stage == "follower"
        assert srv.stats.shed == 1
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# shutdown under injected failure: no stranded futures, no leaked shm
# ---------------------------------------------------------------------- #
@needs_shm
def test_close_during_failures_strands_nothing(rng):
    eng, (A, B, M) = _shard_engine(
        rng, faults=FaultPlan(["shard.numeric:kill:3"]))
    want = _reference_result(A, B, M)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(4)]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            tasks = [asyncio.ensure_future(srv.submit(r)) for r in reqs]
            await asyncio.sleep(0.05)  # kills land while these are live
            # __aexit__ drains the queue; every submitted future must
            # resolve — bound the wait so a strand fails instead of hanging
            return await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 60), srv

    try:
        results, srv = asyncio.run(main())
        assert len(results) == 4
        for r in results:
            assert not isinstance(r, BaseException), r
            _assert_identical(r.result, want)
        assert srv.stats.completed == 4
    finally:
        names = eng.shards.store.live_segment_names() if eng.shards else []
        eng.close()
    shm = Path("/dev/shm")
    if shm.is_dir():
        assert not [n for n in names if (shm / n.lstrip("/")).exists()]
        mine = [s for s in list_repro_segments()
                if s.owner_pid == os.getpid()]
        assert mine == []


# ---------------------------------------------------------------------- #
# liveness/readiness endpoints
# ---------------------------------------------------------------------- #
def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def test_healthz_readyz_follow_readiness():
    up = {"ready": True}
    with ObsHTTPServer(MetricsRegistry(),
                       ready=lambda: up["ready"]) as obs:
        assert _get(f"{obs.url}/healthz") == (200, "ok\n")
        assert _get(f"{obs.url}/readyz") == (200, "ready\n")
        up["ready"] = False
        assert _get(f"{obs.url}/readyz")[0] == 503
        assert _get(f"{obs.url}/healthz")[0] == 200  # alive though not ready


def test_readyz_without_probe_and_with_dying_probe():
    with ObsHTTPServer(MetricsRegistry()) as obs:  # no probe: always ready
        assert _get(f"{obs.url}/readyz")[0] == 200

    def dying():
        raise RuntimeError("probe crashed")

    with ObsHTTPServer(MetricsRegistry(), ready=dying) as obs:
        assert _get(f"{obs.url}/readyz")[0] == 503


def test_engine_ready_flips_on_close():
    eng = Engine()
    assert eng.ready()
    eng.close()
    assert not eng.ready()


# ---------------------------------------------------------------------- #
# chaos × deltas (PR 8): a worker kill on the first post-delta request
# ---------------------------------------------------------------------- #
@needs_shm
def test_worker_kill_after_delta_degrades_bit_identically(rng):
    """A pattern delta splices the cached plan and resplits the shard
    partition; killing workers on the very next request must exhaust the
    retry budget, degrade in-process, and still serve the *post-delta*
    product bit-identically — the spliced plan is kernel-portable all the
    way down the tier ladder."""
    from repro.delta import DeltaBatch

    eng, (A, B, M) = _shard_engine(
        rng, faults=FaultPlan([FaultSpec(site="shard.numeric",
                                         action="kill", count=2, skip=1)]))
    try:
        warm = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        assert warm.stats.sharded  # skip=1 let the warm-up through
        rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
        out = eng.apply_delta("A", DeltaBatch(
            delete=[(int(rows[i]), int(A.indices[i])) for i in range(4)]))
        assert out.kind == "pattern" and out.plans_spliced == 1
        post_A = eng.entry("A").value

        resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        assert resp.stats.plan_cache_hit           # served off the splice
        assert not resp.stats.sharded              # both kills landed
        _assert_identical(resp.result, _reference_result(post_A, B, M))
        assert eng.faults.fired == {("shard.numeric", "kill"): 2}
        assert _families(eng)["repro_degraded_total"][
            (("from", "shard"), ("to", "inprocess"))] >= 1
        # the pool healed behind the kills: the next request shards again,
        # on the resplit partition, same bytes
        resp2 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
        assert resp2.stats.sharded
        _assert_identical(resp2.result, resp.result)
    finally:
        eng.close()
