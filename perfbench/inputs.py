"""Seeded inputs of the three workloads.

Everything a run feeds the program — graphs, request streams, delta
batches, solve sources — comes from :func:`numpy.random.default_rng` seeded
by the ``--seed`` argument (the analytics graphs' structure excepted, see
:func:`analytics_inputs`), so one seed always yields one op stream. The
``*_expected`` functions compute the oracle results; a run calls them after
its timed regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import CSRMatrix
from repro.graphs import rmat, watts_strogatz
from repro.graphs.prep import to_undirected_simple, triangle_prep

from . import oracle
from .measure import fingerprint

#: serve-warm request kinds: (name, weight, graph scale, mask) — mostly
#: small TC, a few large, complemented and sparse-mask ones. The median
#: falls well inside the s8 requests and p99 inside the s12 ones; the
#: sparse-mask requests (the slowest) stay under 1%.
SERVE_KINDS = (
    ("tc-s8", 0.70, 8, "plain"),
    ("tc-s10", 0.215, 10, "plain"),
    ("tc-s12", 0.03, 12, "plain"),
    ("tc-compl-s10", 0.05, 10, "complement"),
    ("tc-sparse-s12", 0.005, 12, "sample"),
)
#: graphs per scale each client owns; a kind's weight is split evenly over
#: them, so one seed's odd graph moves the mix less
SERVE_GRAPHS = {8: 4, 10: 2, 12: 1}
SERVE_CLIENTS = 2
#: op-stream length per client; a run wraps around it if it gets that far
STREAM_LEN = 50_000
#: share of L's entries a sparse mask keeps
MASK_SAMPLE = 1.0 / 8.0

STREAM_READS = (("support-G", 0.5), ("tc-L", 0.5))
#: reads client B makes after each of its delta batches
STREAM_READS_PER_DELTA = 4
#: edges a pattern batch deletes and inserts; a value batch updates twice as many
DELTA_EDGES = 8
#: delta batches generated per key (more than a run applies)
DELTA_CAP = 2_500

KTRUSS_K = 5
BC_SOURCES = 16
#: structure seed of the analytics graphs (see :func:`analytics_inputs`)
GRAPH_SEED = 2022


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


def _from_scipy(s) -> CSRMatrix:
    s = oracle.canonical(s)
    return CSRMatrix(s.indptr.astype(np.int64), s.indices.astype(np.int64),
                     s.data.astype(np.float64), s.shape)


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
@dataclass
class ServeInputs:
    #: store key -> operand
    operands: dict
    #: request targets, ``<kind>.<graph>``, the same for every client
    targets: list
    #: (client, target) -> (a, b, mask, complemented)
    requests: dict
    #: client -> array of indices into ``targets``
    streams: list = field(default_factory=list)


def serve_inputs(seed: int, scale_shift: int = 0) -> ServeInputs:
    """Each client owns its graphs, so no two clients ever send the same
    product (server dedup never coalesces)."""
    rngs = _rngs(seed, SERVE_CLIENTS + 1)
    operands, requests = {}, {}
    targets, weights = [], []
    for name, weight, scale, _mask in SERVE_KINDS:
        for j in range(SERVE_GRAPHS[scale]):
            targets.append(f"{name}.{j}")
            weights.append(weight / SERVE_GRAPHS[scale])
    for c in range(SERVE_CLIENTS):
        rng = rngs[c]
        for scale, count in SERVE_GRAPHS.items():
            for j in range(count):
                operands[f"c{c}.L{scale}.{j}"] = triangle_prep(
                    rmat(scale + scale_shift, 8, rng=rng))
        for name, _w, scale, mask in SERVE_KINDS:
            for j in range(SERVE_GRAPHS[scale]):
                key = mkey = f"c{c}.L{scale}.{j}"
                if mask == "sample":
                    coo = oracle.to_scipy(operands[key]).tocoo()
                    keep = rng.random(coo.nnz) < MASK_SAMPLE
                    mkey = f"c{c}.M{scale}.{j}"
                    operands[mkey] = _from_scipy(sp.csr_matrix(
                        (coo.data[keep], (coo.row[keep], coo.col[keep])),
                        shape=coo.shape))
                requests[(c, f"{name}.{j}")] = (key, key, mkey,
                                                mask == "complement")
    p = np.array(weights) / sum(weights)
    streams = [rngs[-1].choice(len(targets), size=STREAM_LEN, p=p)
               for _ in range(SERVE_CLIENTS)]
    return ServeInputs(operands, targets, requests, streams)


def serve_expected(inp: ServeInputs) -> dict:
    """(client, target) -> oracle fingerprint of the product."""
    out = {}
    for target, (a, b, m, compl) in inp.requests.items():
        out[target] = oracle.product_fingerprint(oracle.masked_product(
            inp.operands[a], inp.operands[b], inp.operands[m],
            complemented=compl, pair=True))
    return out


# ---------------------------------------------------------------------- #
# stream-delta
# ---------------------------------------------------------------------- #
@dataclass
class StreamInputs:
    operands: dict
    #: read kind -> (a, b, mask, semiring)
    reads: dict
    #: client A's read kinds, client B's read kinds, client B's delta keys
    stream_a: np.ndarray
    stream_b: np.ndarray
    delta_keys: np.ndarray
    #: store key -> list of delta dicts, applied in order
    deltas: dict


def _weighted_symmetric(g: CSRMatrix, rng) -> CSRMatrix:
    """Integer weights 1..4, equal on (i, j) and (j, i), so plus_times sums
    are exact in float64 and value-only deltas change the product."""
    n = g.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    cols = np.asarray(g.indices, dtype=np.int64)
    ukey = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    uniq, inv = np.unique(ukey, return_inverse=True)
    w = rng.integers(1, 5, size=uniq.size).astype(np.float64)
    return CSRMatrix(np.asarray(g.indptr, dtype=np.int64), cols, w[inv],
                     g.shape)


class _KeyPool:
    """Coordinate keys with O(1) membership, insertion, removal and
    uniform sampling — the generator's view of a matrix's pattern."""

    def __init__(self, keys):
        self.keys = [int(k) for k in keys]
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def __contains__(self, key) -> bool:
        return key in self.pos

    def add(self, key: int) -> None:
        self.pos[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        i = self.pos.pop(key)
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self.pos[last] = i

    def sample(self, count: int, rng) -> list[int]:
        picked: dict[int, None] = {}
        while len(picked) < count:
            for i in rng.integers(0, len(self.keys), size=count):
                picked[self.keys[int(i)]] = None
        return list(picked)[:count]


def _split(keys, n: int) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.int64)
    return keys // n, keys % n


def _absent(pool: _KeyPool, count: int, n: int, rng, *,
            lower: bool) -> list[int]:
    """``count`` distinct off-diagonal keys not in ``pool`` (row > col
    when ``lower``, else row < col)."""
    picked: dict[int, None] = {}
    while len(picked) < count:
        r, c = (int(x) for x in rng.integers(0, n, size=2))
        if r == c:
            continue
        r, c = (max(r, c), min(r, c)) if lower else (min(r, c), max(r, c))
        if r * n + c not in pool:
            picked[r * n + c] = None
    return list(picked)


def _delta(**arrays) -> dict:
    d = {k: np.empty(0, np.int64) for k in ("del_r", "del_c", "ins_r",
                                            "ins_c", "upd_r", "upd_c")}
    d["ins_v"] = d["upd_v"] = np.empty(0)
    d.update(arrays)
    return d


def _delta_sequence(m: CSRMatrix, rng, *, symmetric: bool,
                    cap: int) -> list[dict]:
    """Seeded batches for one matrix. A symmetric matrix gets, at random,
    pattern edits (delete and insert undirected edges) or value-only
    updates; a lower-triangular one gets pattern edits that keep it lower."""
    n = m.shape[1]
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    cols = np.asarray(m.indices, dtype=np.int64)
    keep = rows < cols if symmetric else np.ones(rows.size, dtype=bool)
    pool = _KeyPool(rows[keep] * n + cols[keep])
    out = []
    for _ in range(cap):
        if symmetric and rng.random() < 0.5:
            r, c = _split(pool.sample(2 * DELTA_EDGES, rng), n)
            v = rng.integers(1, 5, size=r.size).astype(np.float64)
            out.append(_delta(upd_r=np.concatenate([r, c]),
                              upd_c=np.concatenate([c, r]),
                              upd_v=np.concatenate([v, v])))
            continue
        gone = pool.sample(DELTA_EDGES, rng)
        new = _absent(pool, DELTA_EDGES, n, rng, lower=not symmetric)
        for k in gone:
            pool.remove(k)
        for k in new:
            pool.add(k)
        r, c = _split(gone, n)
        ir, ic = _split(new, n)
        if symmetric:
            v = rng.integers(1, 5, size=ir.size).astype(np.float64)
            out.append(_delta(del_r=np.concatenate([r, c]),
                              del_c=np.concatenate([c, r]),
                              ins_r=np.concatenate([ir, ic]),
                              ins_c=np.concatenate([ic, ir]),
                              ins_v=np.concatenate([v, v])))
        else:
            out.append(_delta(del_r=r, del_c=c, ins_r=ir, ins_c=ic,
                              ins_v=np.ones(ir.size)))
    return out


def stream_inputs(seed: int, scale_shift: int = 0,
                  delta_cap: int = DELTA_CAP) -> StreamInputs:
    rng_g, rng_l, rng_ops, rng_dg, rng_dl = _rngs(seed, 5)
    G = _weighted_symmetric(
        to_undirected_simple(rmat(11 + scale_shift, 8, rng=rng_g)), rng_g)
    L = triangle_prep(rmat(12 + scale_shift, 8, rng=rng_l))
    operands = {"G": G, "L": L}
    reads = {"support-G": ("G", "G", "G", "plus_times"),
             "tc-L": ("L", "L", "L", "plus_pair")}
    p = np.array([w for _, w in STREAM_READS])
    stream_a = rng_ops.choice(len(STREAM_READS), size=STREAM_LEN, p=p)
    stream_b = rng_ops.choice(len(STREAM_READS), size=STREAM_LEN, p=p)
    delta_keys = rng_ops.choice(2, size=STREAM_LEN)
    deltas = {"G": _delta_sequence(G, rng_dg, symmetric=True, cap=delta_cap),
              "L": _delta_sequence(L, rng_dl, symmetric=False, cap=delta_cap)}
    return StreamInputs(operands, reads, stream_a, stream_b, delta_keys,
                        deltas)


def stream_expected(inputs: StreamInputs, key: str, versions) -> dict:
    """Oracle fingerprints of every read kind on ``key`` at each requested
    version (0 = as registered, v = after the first v batches)."""
    wanted = sorted(set(versions))
    state = oracle.EdgeState(inputs.operands[key])
    kinds = [(name, spec) for name, spec in inputs.reads.items()
             if spec[0] == key]
    out = {}
    applied = 0
    for v in wanted:
        while applied < v:
            state.apply(inputs.deltas[key][applied])
            applied += 1
        m = state.scipy()
        for name, spec in kinds:
            out[(name, v)] = oracle.product_fingerprint(oracle.masked_product(
                m, m, m, pair=spec[3] == "plus_pair"))
    return out


def final_state_fingerprint(inputs: StreamInputs, key: str, count: int) -> str:
    state = oracle.EdgeState(inputs.operands[key])
    for d in inputs.deltas[key][:count]:
        state.apply(d)
    return oracle.product_fingerprint(state.scipy())


# ---------------------------------------------------------------------- #
# analytics-cold
# ---------------------------------------------------------------------- #
@dataclass
class AnalyticsInputs:
    #: graph name -> simple undirected graph
    graphs: dict
    #: graph name -> BC source batch
    sources: dict


def _relabel(g: CSRMatrix, rng) -> CSRMatrix:
    """``g`` with its vertices renumbered by a random permutation."""
    perm = rng.permutation(g.shape[0])
    coo = oracle.to_scipy(g).tocoo()
    return _from_scipy(sp.csr_matrix(
        (coo.data, (perm[coo.row], perm[coo.col])), shape=g.shape))


def analytics_inputs(seed: int, scale_shift: int = 0) -> AnalyticsInputs:
    """A skewed R-MAT graph and a flat, highly clustered small-world graph
    of the same order. Their structure comes from :data:`GRAPH_SEED`; the
    run's seed draws a vertex relabelling of each and the BC sources. How
    many rounds k-truss peels jumps between 4 and 7 from one R-MAT draw to
    the next, which would swamp any change in solve time."""
    rng_r, rng_w = _rngs(GRAPH_SEED, 2)
    rng_perm, rng_s = _rngs(seed, 2)
    scale = 12 + scale_shift
    graphs = {
        "rmat": to_undirected_simple(rmat(scale, 8, rng=rng_r)),
        "ws": watts_strogatz(1 << scale, 8, 0.05, rng=rng_w),
    }
    graphs = {name: _relabel(g, rng_perm) for name, g in graphs.items()}
    sources = {name: np.sort(rng_s.choice(g.shape[0], size=BC_SOURCES,
                                          replace=False))
               for name, g in graphs.items()}
    return AnalyticsInputs(graphs, sources)


def analytics_expected(inp: AnalyticsInputs) -> dict:
    """(app, graph name) -> triangle count, k-truss pattern fingerprint or
    centrality array."""
    out = {}
    for name, g in inp.graphs.items():
        out[("tc", name)] = oracle.triangles(g)
        indptr, indices = oracle.ktruss_pattern(g, KTRUSS_K)
        out[("ktruss", name)] = pattern_fingerprint(indptr, indices, g.shape)
        out[("bc", name)] = oracle.betweenness(g, inp.sources[name])
    return out


def pattern_fingerprint(indptr, indices, shape) -> str:
    return fingerprint(indptr, indices, np.ones(len(indices)), shape)
