"""Host-level link-graph analytics over the crawl corpus.

A web-scale crawl's link structure is itself a ranking signal (Common
Crawl publishes host-level harmonic centrality / PageRank with every
snapshot); a frontier scheduler and a training-data curator both
consume it.  This module builds the distinct host→host edge set from
the extraction stage's ``out_links`` and runs the graph kernels over
it.

Determinism: all rank arithmetic is INTEGER fixed-point (ranks in
micros, ``contrib = rank // outdeg``, ``new = base + d·inbound // 100``)
— integer sums are associative, so the result is bit-identical no
matter how blocks/batches are ordered, and a DuckDB oracle can unroll
the same iterations with plain SQL integer arithmetic.  (A float
PageRank would hash-mismatch the oracle on summation order alone.)

Edges are built once — distinct inside ``blake2b(src|dst) % B``
buckets, outdeg attached while all of a src's rows are co-located in
its ``src_h % B`` bucket — and every iterative kernel then makes one
streaming pass over them per round, with NO edge shuffle.

The six u64-keyed iterative kernels — PageRank (plus personalized
PageRank and TrustRank), BFS, HITS, Katz, OPIC and HyperBall
(``harmonic_hosts`` / ``neighborhood_function``) — are vertex programs
of one engine, ``vertexprog``: each declares its ``init``, a per-edge
``message``, a ``reduceat`` combiner (sum, min or register max), an
``apply`` and an output builder, and the engine runs it on one of
three bit-identical tiers:

- driver-local numpy up to ``driver_max_edges``;
- a broadcast loop above it — the classic "ship the skinny vertex
  state, never the fat edge set" layout: keys and the state a message
  reads go out via ``ray.put``, each edge block returns its
  per-destination partial, partials reduce on the driver or through a
  task tree.  It assumes the HOST universe (not the edge set) fits
  plasma — ~16 B/host ⇒ fine to ~10⁹ hosts;
- a fully sharded tier past ``shard_min_edges`` (PageRank, BFS,
  HyperBall), where edges and vertex state shard by hash and each
  round is one routed exchange, so no vertex-sized structure lives
  anywhere.  Only a program whose ``apply`` is per-vertex can run
  sharded; HITS (max renormalisation) and OPIC (dangling-cash sum)
  reduce globally and keep the two driver-resident tiers, as does
  Katz.

Connected components and label propagation keep their own exchanges
(string labels, mode messages).

Simplification mirrored exactly by the oracle: dangling hosts (no
out-edges) leak their rank mass rather than redistributing it, and the
node universe is the hosts that appear in ≥1 edge.  Host identity
travels as a 64-bit blake2b hash through the iterations (collision
odds ~1e-7 at 10⁶ hosts, same argument as `dedup.ngram_pairs_jaccard`);
the final pass re-attaches the host string from the edge tables.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.classify import host_of
from . import exchange
from . import vertexprog as vp

__all__ = [
    "host_edges",
    "host_verts",
    "pagerank_hosts",
    "bfs_hosts",
    "connected_components",
    "host_degrees",
    "lpa_communities",
    "harmonic_hosts",
]


def _h64(s: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
    )


def host_edges(extracted_ds, num_buckets: int = 64,
               driver_max_pairs: int | None = None):
    """extracted pages (host, out_links) → distinct (src, dst, src_h,
    dst_h, outdeg) host edges, self-loops and host-less links dropped.
    Distinct + outdeg both happen inside ``src_h % num_buckets`` groups
    — a src's edges all land in one bucket, so its out-degree is exact
    and no second shuffle is needed.  Up to ``driver_max_pairs``
    pre-distinct pairs (default ``exchange.DRIVER_FINISH_MAX``) finish
    on the driver; above, the result stays a lazy bucketed Dataset."""

    def rows(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for h, lst in zip(
            batch["host"].to_pylist(), batch["out_links"].to_pylist()
        ):
            for u in lst or []:
                d = host_of(u)
                if d and d != h:
                    srcs.append(h)
                    dsts.append(d)
        sh = np.array([_h64(s) for s in srcs], dtype=np.uint64)
        dh = np.array([_h64(d) for d in dsts], dtype=np.uint64)
        t = pa.table(
            {
                "src": pa.array(srcs, pa.string()),
                "dst": pa.array(dsts, pa.string()),
                "src_h": pa.array(sh, pa.uint64()),
                "dst_h": pa.array(dh, pa.uint64()),
                "bucket": pa.array(
                    (sh % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )
        # batch-local pre-distinct: shrinks the shuffle, exactness comes
        # from the per-bucket distinct below
        return t.group_by(
            ["src", "dst", "src_h", "dst_h", "bucket"]
        ).aggregate([])

    def bucket_distinct(group: pa.Table) -> pa.Table:
        g = group.group_by(
            ["src", "dst", "src_h", "dst_h"]
        ).aggregate([])
        deg = g.group_by("src_h").aggregate([("src_h", "count")])
        k = deg["src_h"].to_numpy(zero_copy_only=False)
        v = deg["src_h_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k)
        k, v = k[order], v[order]
        sh = g["src_h"].to_numpy(zero_copy_only=False)
        out = v[np.searchsorted(k, sh)]
        return g.append_column("outdeg", pa.array(out, pa.int64()))

    # adaptive finish (same exact semantics either way): host-PAIR
    # cardinality, not page count, drives it — ~2M distinct pairs
    # ≈ 100 MB, fine on the driver; a 100 TB crawl blows past it and
    # takes the lazy bucketed path
    return exchange.bucket_finish(
        extracted_ds.map_batches(rows, batch_format="pyarrow"),
        bucket_distinct, vp.EDGE_SCHEMA, driver_max=driver_max_pairs,
        lazy=True,
    )


def host_verts(edges, num_buckets: int = 64):
    """distinct host edges → MATERIALIZED distinct (host, h, vbucket)
    vertex universe (hosts that appear in ≥1 edge), deduped inside
    ``h % num_buckets`` groups so the host string + hash pair is
    globally unique."""

    def vert_rows(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "h": pa.array([], pa.uint64()),
                    "vbucket": pa.array([], pa.int32()),
                }
            )
        hs = list(
            zip(
                batch["src"].to_pylist(),
                batch["src_h"].to_numpy(zero_copy_only=False).tolist(),
            )
        ) + list(
            zip(
                batch["dst"].to_pylist(),
                batch["dst_h"].to_numpy(zero_copy_only=False).tolist(),
            )
        )
        names, hh = (
            [x[0] for x in hs],
            np.array([x[1] for x in hs], dtype=np.uint64),
        )
        t = pa.table(
            {
                "host": pa.array(names, pa.string()),
                "h": pa.array(hh, pa.uint64()),
                "vbucket": pa.array(
                    (hh % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )
        return t.group_by(["host", "h", "vbucket"]).aggregate([])

    return (
        edges.map_batches(vert_rows, batch_format="pyarrow")
        .groupby("vbucket")
        .map_groups(
            lambda g: g.group_by(["host", "h", "vbucket"]).aggregate([]),
            batch_format="pyarrow",
        )
        .materialize()
    )


def _collect_verts(edges):
    """distinct (host, h64) pairs collected DRIVER-side: each edge
    batch emits its batch-local distinct pairs (a combiner — no
    shuffle), the driver np.unique-merges them.  Vertex-state-sized by
    the module's declared boundary; replaces a full groupby shuffle
    when the output is driver state anyway."""
    import ray

    def pairs(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "h": pa.array([], pa.uint64()),
                }
            )
        t = pa.table(
            {
                "host": pa.concat_arrays(
                    [
                        batch["src"].combine_chunks(),
                        batch["dst"].combine_chunks(),
                    ]
                ),
                "h": pa.concat_arrays(
                    [
                        batch["src_h"].combine_chunks(),
                        batch["dst_h"].combine_chunks(),
                    ]
                ),
            }
        )
        return t.group_by(["host", "h"]).aggregate([])

    parts = [
        t
        for t in ray.get(
            edges.map_batches(pairs, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return [], np.zeros(0, dtype=np.uint64)
    cat = pa.concat_tables(parts)
    hh = cat["h"].to_numpy(zero_copy_only=False)
    _, first = np.unique(hh, return_index=True)
    hosts_arr = cat["host"].take(pa.array(np.sort(first)))
    hh_u = hh[np.sort(first)]
    order = np.argsort(hh_u)
    return hosts_arr.take(pa.array(order)).to_pylist(), hh_u[order]


def _host_keys(hosts) -> np.ndarray:
    """sorted unique u64 hashes of a host-string collection (seed
    sets)."""
    return np.unique(np.array([_h64(s) for s in set(hosts)], dtype=np.uint64))


def _pagerank_program(iters: int, damping_pct: int, scale: int,
                      seed_h: np.ndarray | None) -> vp.VertexProgram:
    """Integer PageRank as a vertex program: ``rank₀ = scale``, message
    ``rank[src] // outdeg``, sum, ``rank = base + damping·inbound //
    100``.  ``base`` is the uniform ``unit`` or, with seeds, the
    personalized teleport column — ``unit·n_hosts // n_seeds`` on
    in-graph seeds, 0 elsewhere — whose global counts come from the
    census (so the sharded tier has them before its first round)."""
    unit = scale * (100 - damping_pct) // 100

    def census(v: vp.Verts) -> tuple:
        return len(v.keys), int(np.isin(v.keys, seed_h).sum())

    def init(v: vp.Verts, totals) -> dict:
        if seed_h is None:
            base = np.full(len(v.keys), unit, np.int64)
        else:
            n_hosts, n_seeds = totals
            base = np.where(
                np.isin(v.keys, seed_h), unit * n_hosts // max(n_seeds, 1), 0
            ).astype(np.int64)
        return {"rank": np.full(len(v.keys), scale, np.int64), "base": base}

    def apply(s: dict, inbound: np.ndarray, t: int) -> dict:
        return {"rank": s["base"] + damping_pct * inbound // 100,
                "base": s["base"]}

    return vp.VertexProgram(
        init=init,
        steps=(vp.Step("rank", lambda r, deg: r // deg, np.add, apply),),
        rounds=iters,
        output=lambda hosts, s: pa.table(
            {"host": hosts, "rank_micros": pa.array(s["rank"], pa.int64())}
        ),
        census=None if seed_h is None else census,
    )


def pagerank_hosts(
    edges,
    iters: int = 5,
    damping_pct: int = 85,
    scale: int = 1_000_000,
    driver_max_edges: int = 5_000_000,
    shard_min_edges: int = 500_000_000,
    seed_hosts=None,
):
    """distinct host edges (from ``host_edges``) → (host, rank_micros).

    Integer PageRank: ``rank₀ = scale`` for every host in the edge set;
    each iteration ``rank = base + damping_pct·inbound // 100`` with
    ``inbound = Σ_{src→host} rank[src] // outdeg[src]`` and
    ``base = scale·(100-damping_pct) // 100``.  Exact under any
    summation order (all ints), so the DuckDB oracle unrolls the same
    ``iters`` iterations and must match bit-for-bit.

    Three adaptive tiers of the vertex-program engine
    (``vertexprog.run``), all bit-identical (forced-path tests pin each
    pair equal): ≤ ``driver_max_edges`` runs driver-local; above it the
    broadcast loop (vertex-sized (keys, ranks) via ``ray.put`` per
    iteration — fine to ~10^8 hosts); past ``shard_min_edges`` the
    fully bucket-sharded tier, which holds NO vertex-sized state
    anywhere (10^9-host framing).

    ``seed_hosts`` switches every tier to PERSONALIZED PageRank
    (topic-sensitive teleport): the base term becomes
    ``unit·n_hosts // n_seeds`` on in-graph seeds and 0 elsewhere —
    the update line is unchanged, so the three tiers stay
    bit-identical (forced-path PPR test)."""
    seed_h = None if seed_hosts is None else _host_keys(seed_hosts)
    prog = _pagerank_program(iters, damping_pct, scale, seed_h)
    return vp.run(edges, prog, driver_max_edges, shard_min_edges)[0]


def personalized_pagerank_hosts(edges, seed_hosts, **kw):
    """Personalized / topic-sensitive PageRank (Haveliwala, WWW 2002)
    over the host graph: the teleport mass lands ONLY on the seed set
    (e.g. hosts with confirmed career pages), so rank measures
    link-proximity to the seeds — the focused-crawl frontier signal
    and the seed-expansion step of a topical corpus curator.

    Thin wrapper: `pagerank_hosts(seed_hosts=...)` — all three
    bit-identical tiers (driver-local / broadcast-loop / fully
    sharded) handle the per-vertex teleport base; the DuckDB oracle
    unrolls the same integer recurrence with a seeds⋈hosts CTE."""
    return pagerank_hosts(edges, seed_hosts=seed_hosts, **kw)


def trustrank_hosts(edges, seed_hosts, **kw) -> pa.Table:
    """TrustRank + relative spam mass over the host graph →
    (host, rank_micros, trust_micros, spam_mass_micros).

    TrustRank (Gyöngyi, Garcia-Molina & Pedersen, VLDB 2004) is
    PageRank with the teleport mass restricted to a trusted seed set —
    identical recurrence to :func:`personalized_pagerank_hosts`, so
    both rank vectors reuse the three bit-identical integer tiers.
    The NEW signal is the relative spam-mass estimate (Gyöngyi,
    Berkhin, Garcia-Molina & Pedersen, VLDB 2006 "Link Spam Detection
    Based on Mass Estimation"): the fraction of a host's global
    PageRank NOT explainable by trust flowing from the seeds,
    ``spam_mass_micros = max(rank − trust, 0)·10⁶ // rank`` — near 10⁶
    for link-farm hosts whose rank comes from untrusted regions, near
    0 for hosts reachable from the trusted core.  The seeded teleport
    base is ``unit·n_hosts // n_seeds`` (total teleport mass equal to
    the global run's), so the two vectors are directly comparable.

    All arithmetic is int64 (clamped numerator keeps numpy floor-``//``
    and DuckDB truncate-``//`` coincident; ``rank ≥ base > 0`` for
    every vertex of a non-empty graph, so the division is total).
    Scale: two fixed-point runs over the same once-materialized edge
    blocks; the final alignment is a sort of the two vertex tables —
    the same driver-side vertex-state boundary every tier above
    already accepts (fully sharded past ``shard_min_edges``)."""
    pr = pagerank_hosts(edges, **kw).sort_by([("host", "ascending")])
    tr = pagerank_hosts(edges, seed_hosts=seed_hosts, **kw).sort_by(
        [("host", "ascending")]
    )
    rank = pr["rank_micros"].to_numpy(zero_copy_only=False)
    trust = tr["rank_micros"].to_numpy(zero_copy_only=False)
    if not len(rank):
        z = pa.array([], pa.int64())
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "rank_micros": z,
                "trust_micros": z,
                "spam_mass_micros": z,
            }
        )
    spam = np.maximum(rank - trust, 0) * 1_000_000 // rank
    return pa.table(
        {
            "host": pr["host"],
            "rank_micros": pr["rank_micros"],
            "trust_micros": tr["rank_micros"],
            "spam_mass_micros": pa.array(spam, pa.int64()),
        }
    )


def _bfs_program(seed_h: np.ndarray, max_hops: int) -> vp.VertexProgram:
    """Multi-source BFS as a vertex program: ``dist₀`` is 0 on in-graph
    seeds and ``inf = max_hops+1`` (the oracle's sentinel) elsewhere;
    message ``min(dist[src]+1, inf)``, min, ``dist = min(dist,
    inbound)``.  Unreached hosts are dropped from the output."""
    inf = max_hops + 1

    def init(v: vp.Verts, totals) -> dict:
        return {"dist": np.where(np.isin(v.keys, seed_h), 0, inf).astype(np.int64)}

    def output(hosts: pa.Array, s: dict) -> pa.Table:
        keep = s["dist"] <= max_hops
        return pa.table(
            {
                "host": hosts.filter(pa.array(keep)),
                "dist": pa.array(s["dist"][keep], pa.int64()),
            }
        )

    return vp.VertexProgram(
        init=init,
        steps=(
            vp.Step(
                "dist",
                lambda d, deg: np.minimum(d + 1, inf),
                np.minimum,
                lambda s, inbound, t: {"dist": np.minimum(s["dist"], inbound)},
            ),
        ),
        rounds=max_hops,
        output=output,
    )


def bfs_hosts(
    edges,
    seed_hosts,
    max_hops: int = 8,
    driver_max_edges: int = 5_000_000,
    shard_min_edges: int = 500_000_000,
):
    """distinct host edges (from ``host_edges``) + seed host list →
    (host, dist): the minimum number of directed link hops from any
    in-graph seed, capped at ``max_hops`` (unreached hosts are
    dropped) — the frontier-depth / seed-proximity signal a focused
    crawler budgets by (crawl depth from confirmed career hosts) and
    the "hops from trusted seeds" feature of link-spam filters
    (BadRank/TrustRank-style propagation, Gyöngyi et al. VLDB 2004,
    with min-hop in place of damped mass).

    Synchronous Bellman-Ford-style min-relaxation, ``max_hops``
    rounds: ``dist₀ = 0`` on seeds present in the vertex universe
    (hosts with ≥1 edge), ``inf = max_hops+1`` elsewhere;
    ``dist = min(dist, min_{src→dst} min(dist[src]+1, inf))``.  All
    integers — exact under any message order, so the DuckDB oracle
    unrolls the identical recurrence and must match bit-for-bit.

    Three adaptive tiers of the vertex-program engine, all
    bit-identical (forced-path test): ≤ ``driver_max_edges``
    driver-local numpy; above it the broadcast loop (vertex-sized
    (keys, dist) via ``ray.put`` per round — the `pagerank_hosts`
    mid-tier with min in place of sum); past ``shard_min_edges`` the
    fully bucket-sharded tier with no vertex-sized state anywhere
    (10⁹-host framing)."""
    prog = _bfs_program(_host_keys(seed_hosts), max_hops)
    return vp.run(edges, prog, driver_max_edges, shard_min_edges)[0]


def _hits_norm_div(raw: np.ndarray, scale: int) -> int:
    """HITS renormalization divisor: ``max(raw) // scale + 1``.  A
    divide-only rescale (kills the ``raw * scale // max`` overflow at
    raw ≈ scale·indegree) that keeps the vector's magnitude ≈ scale —
    exact integers, mirrored verbatim by the oracle."""
    mx = int(raw.max()) if len(raw) else 0
    return mx // scale + 1


def hits_hosts(
    edges,
    iters: int = 3,
    scale: int = 1_000_000,
    driver_max_edges: int = 5_000_000,
):
    """distinct host edges (from ``host_edges``) → (host, auth_micros,
    hub_micros): integer HITS (Kleinberg hubs-and-authorities) —
    ``auth(v) = Σ_{u→v} hub(u)``, ``hub(u) = Σ_{u→v} auth(v)``, each
    half-step renormalized by the divide-only
    ``raw // (max(raw)//scale + 1)`` rescale (``_hits_norm_div``; no
    float L2 norm — exact under any summation order, so the DuckDB
    oracle unrolls the same iterations and must match bit-for-bit).

    A two-step vertex program: the authority half-step sums hubs over
    the edges, the hub half-step sums authorities over the reversed
    edges.  The ``max`` renormalisation is a global reduction, so HITS
    runs on the engine's two driver-resident tiers only (forced-path
    test pinned): ≤ ``driver_max_edges`` driver-local; above it the
    broadcast loop over the once-materialized edge blocks."""

    def half(out: str):
        def apply(s: dict, raw: np.ndarray, t: int) -> dict:
            return {**s, out: raw // _hits_norm_div(raw, scale)}

        return apply

    def init(v: vp.Verts, totals) -> dict:
        n = len(v.keys)
        return {"hub": np.full(n, scale, np.int64),
                "auth": np.full(n, scale, np.int64)}

    prog = vp.VertexProgram(
        init=init,
        steps=(
            vp.Step("hub", lambda h, deg: h, np.add, half("auth")),
            vp.Step("auth", lambda a, deg: a, np.add, half("hub"),
                    reverse=True),
        ),
        rounds=iters,
        output=lambda hosts, s: pa.table(
            {
                "host": hosts,
                "auth_micros": pa.array(s["auth"], pa.int64()),
                "hub_micros": pa.array(s["hub"], pa.int64()),
            }
        ),
    )
    return vp.run(edges, prog, driver_max_edges)[0]


def _forest(*tables: pa.Table) -> pa.Table:
    """Union-find sparsification: edges in → spanning-forest edges out
    (≤ |vertices|−1 rows, every input vertex still present).  The
    irreducibly pointer-chasing part of connectivity — runs only on
    already-sparsified batch/merge inputs, never the raw corpus."""
    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    ea: list = []
    eb: list = []
    for t in tables:
        if not t.num_rows:  # Ray emits schema-less empty blocks
            continue
        for a, b in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            if a not in parent:
                parent[a] = a
            if b not in parent:
                parent[b] = b
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                ea.append(a)
                eb.append(b)
    return pa.table(
        {"a": pa.array(ea, pa.string()), "b": pa.array(eb, pa.string())}
    )


def _cc_scatter(forest: pa.Table, n_buckets: int):
    """One worker task: spanning forest → per-bucket state for the
    distributed labeler.  Edges duplicate both directions and bucket
    by hash(src) (a message reads L(src) bucket-locally and routes to
    ``dst_b = hash(dst) % B``); labels init L(v) = v, bucketed by
    hash(v)."""
    a = np.asarray(forest["a"].to_pylist(), dtype=object)
    b = np.asarray(forest["b"].to_pylist(), dtype=object)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    src_b = np.array([_h64(s) % n_buckets for s in src], dtype=np.int64)
    dst_b = np.array([_h64(s) % n_buckets for s in dst], dtype=np.int64)
    hosts = np.unique(np.concatenate([a, b]))
    host_b = np.array([_h64(h) % n_buckets for h in hosts], dtype=np.int64)
    edge_bs, label_bs = [], []
    for k in range(n_buckets):
        m = src_b == k
        edge_bs.append(
            pa.table(
                {
                    "src": pa.array(src[m].astype(str), pa.string()),
                    "dst": pa.array(dst[m].astype(str), pa.string()),
                    "dst_b": pa.array(dst_b[m], pa.int64()),
                }
            )
        )
        hm = hosts[host_b == k]
        label_bs.append(
            pa.table(
                {
                    "host": pa.array(hm.tolist(), pa.string()),
                    "label": pa.array(hm.tolist(), pa.string()),
                }
            )
        )
    return edge_bs, label_bs


def _cc_lab_of(labels: pa.Table, keys: np.ndarray) -> np.ndarray:
    """Vectorized L(key) lookup against one bucket's sorted-able label
    table (keys MUST belong to this bucket)."""
    hs = np.asarray(labels["host"].to_pylist(), dtype=object)
    ls = np.asarray(labels["label"].to_pylist(), dtype=object)
    order = np.argsort(hs)
    pos = np.searchsorted(hs[order], keys)
    return ls[order][pos]


def _cc_msgs(edges_b: pa.Table, labels_b: pa.Table, n_buckets: int):
    """Neighbor step, send side: (dst, L(src)) messages partitioned by
    the destination's bucket."""
    out = [
        pa.table(
            {"host": pa.array([], pa.string()),
             "label": pa.array([], pa.string())}
        )
        for _ in range(n_buckets)
    ]
    if edges_b.num_rows == 0:
        return out
    src = np.asarray(edges_b["src"].to_pylist(), dtype=object)
    dst = np.asarray(edges_b["dst"].to_pylist(), dtype=object)
    dst_b = edges_b["dst_b"].to_numpy(zero_copy_only=False)
    lab = _cc_lab_of(labels_b, src)
    for k in np.unique(dst_b):
        m = dst_b == k
        out[int(k)] = pa.table(
            {
                "host": pa.array(dst[m], pa.string()),
                "label": pa.array(lab[m], pa.string()),
            }
        )
    return out


def _cc_min_apply(labels_b: pa.Table, *msg_tables: pa.Table):
    """Neighbor step, receive side: L(v) = min(L(v), incoming labels).
    Returns (new labels table, n_changed)."""
    live = [t for t in msg_tables if t.num_rows]
    hs = np.asarray(labels_b["host"].to_pylist(), dtype=object)
    ls = np.asarray(labels_b["label"].to_pylist(), dtype=object)
    if not live or not len(hs):
        return labels_b, 0
    msgs = pa.concat_tables(live)
    agg = msgs.group_by("host").aggregate([("label", "min")])
    mh = np.asarray(agg["host"].to_pylist(), dtype=object)
    ml = np.asarray(agg["label_min"].to_pylist(), dtype=object)
    order = np.argsort(hs)
    pos = np.searchsorted(hs[order], mh)
    tgt = order[pos]  # every msg host exists in this bucket
    new = ls.copy()
    upd = ml < new[tgt]
    new[tgt[upd]] = ml[upd]
    changed = int(np.count_nonzero(new != ls))
    return (
        pa.table(
            {"host": pa.array(hs, pa.string()),
             "label": pa.array(new, pa.string())}
        ),
        changed,
    )


def _cc_jump_reqs(labels_b: pa.Table, n_buckets: int):
    """Pointer-jump, request side: distinct label values routed to the
    bucket that owns them."""
    out = [pa.table({"label": pa.array([], pa.string())})
           for _ in range(n_buckets)]
    if labels_b.num_rows == 0:
        return out
    labs = np.unique(np.asarray(labels_b["label"].to_pylist(), dtype=object))
    lb = np.array([_h64(x) % n_buckets for x in labs], dtype=np.int64)
    for k in np.unique(lb):
        out[int(k)] = pa.table(
            {"label": pa.array(labs[lb == k], pa.string())}
        )
    return out


def _cc_jump_lookup(labels_b: pa.Table, *req_tables: pa.Table) -> pa.Table:
    """Pointer-jump, serve side: (label, L(label)) for requested labels
    owned by this bucket."""
    live = [t for t in req_tables if t.num_rows]
    if not live or labels_b.num_rows == 0:
        return pa.table(
            {"label": pa.array([], pa.string()),
             "label2": pa.array([], pa.string())}
        )
    req = np.unique(
        np.asarray(
            pa.concat_tables(live)["label"].to_pylist(), dtype=object
        )
    )
    return pa.table(
        {
            "label": pa.array(req, pa.string()),
            "label2": pa.array(_cc_lab_of(labels_b, req), pa.string()),
        }
    )


def _cc_jump_apply(labels_b: pa.Table, *lookup_tables: pa.Table):
    """Pointer-jump, apply side: L(v) = L(L(v)) (labels only shrink, so
    this equals the min).  Returns (new labels, n_changed)."""
    live = [t for t in lookup_tables if t.num_rows]
    if not live or labels_b.num_rows == 0:
        return labels_b, 0
    lk = pa.concat_tables(live)
    kh = np.asarray(lk["label"].to_pylist(), dtype=object)
    kv = np.asarray(lk["label2"].to_pylist(), dtype=object)
    order = np.argsort(kh)
    kh, kv = kh[order], kv[order]
    hs = np.asarray(labels_b["host"].to_pylist(), dtype=object)
    ls = np.asarray(labels_b["label"].to_pylist(), dtype=object)
    pos = np.searchsorted(kh, ls)
    new = kv[np.clip(pos, 0, len(kh) - 1)]
    hit = kh[np.clip(pos, 0, len(kh) - 1)] == ls
    new = np.where(hit, new, ls)
    changed = int(np.count_nonzero(new != ls))
    return (
        pa.table(
            {"host": pa.array(hs, pa.string()),
             "label": pa.array(new, pa.string())}
        ),
        changed,
    )


def _cc_distributed_labels(
    forest_ref, n_buckets: int = vp.N_SHARDS, max_rounds: int = 64
) -> pa.Table:
    """Distributed final labeling: hash-min message rounds + pointer
    jumping over bucket-sharded label state — NO vertex-sized driver
    or broadcast structure anywhere (the scale path past the
    documented O(hosts)-driver-state boundary of the default branch).
    Labels shard by hash(host); each round is two bucketed exchanges
    (neighbor-min, then L(v)=L(L(v)) pointer jump, which contracts
    label chains geometrically → O(log V) rounds on any forest shape,
    path graphs included).  Plain Ray tasks over a fixed bucket list
    per round (house rule: driver-coordinated loops don't pay Ray
    Data's per-job startup).  At test/bench scale the result concats
    driver-side; a 100 TB deployment writes each bucket straight to
    hash-partitioned parquet."""
    import ray

    def _scatter_flat(forest: pa.Table, n: int):
        e, lab = _cc_scatter(forest, n)
        return (*e, *lab)

    scatter = ray.remote(num_cpus=1)(_scatter_flat)
    msgs_t = ray.remote(num_cpus=1)(_cc_msgs)
    apply_t = ray.remote(num_cpus=1, num_returns=2)(_cc_min_apply)
    jreq_t = ray.remote(num_cpus=1)(_cc_jump_reqs)
    jlook_t = ray.remote(num_cpus=1)(_cc_jump_lookup)
    japply_t = ray.remote(num_cpus=1, num_returns=2)(_cc_jump_apply)

    # every per-bucket table is its OWN object ref (num_returns) and
    # flows task→task through plasma; the driver only ever pulls the
    # per-bucket `changed` ints
    flat = scatter.options(num_returns=2 * n_buckets).remote(
        forest_ref, n_buckets
    )
    edge_refs = list(flat[:n_buckets])
    label_refs = list(flat[n_buckets:])
    for _ in range(max_rounds):
        # neighbor-min: B sender tasks × B routed outputs each
        msg_grid = [
            msgs_t.options(num_returns=n_buckets).remote(
                edge_refs[k], label_refs[k], n_buckets
            )
            for k in range(n_buckets)
        ]
        new_labels, changes = [], []
        for k in range(n_buckets):
            lr, ch = apply_t.remote(
                label_refs[k], *[row[k] for row in msg_grid]
            )
            new_labels.append(lr)
            changes.append(ch)
        label_refs = new_labels
        n_changed = sum(ray.get(changes))
        # pointer jump (contracts label chains geometrically)
        req_grid = [
            jreq_t.options(num_returns=n_buckets).remote(
                label_refs[k], n_buckets
            )
            for k in range(n_buckets)
        ]
        lookups = [
            jlook_t.remote(
                label_refs[k], *[row[k] for row in req_grid]
            )
            for k in range(n_buckets)
        ]
        new_labels, jchanges = [], []
        for k in range(n_buckets):
            lr, ch = japply_t.remote(label_refs[k], *lookups)
            new_labels.append(lr)
            jchanges.append(ch)
        label_refs = new_labels
        n_changed += sum(ray.get(jchanges))
        if n_changed == 0:
            break
    else:
        raise RuntimeError(
            "connected-components labeler did not converge "
            f"in {max_rounds} rounds"
        )
    parts = [t for t in ray.get(label_refs) if t.num_rows]
    out = pa.concat_tables(parts).sort_by([("host", "ascending")])
    return pa.table(
        {"host": out["host"], "component": out["label"]}
    )


def connected_components(edges, driver_label_max: int = 5_000_000):
    """distinct host edges (from ``host_edges``) → (host, component),
    where ``component`` is the lexicographically smallest host in the
    undirected connected component — a canonical label both Python and
    SQL ``min`` agree on (ASCII hosts), so a DuckDB recursive-CTE
    oracle (min reachable host) must match exactly.

    Above ``driver_label_max`` forest edges the final labeling runs
    DISTRIBUTED (``_cc_distributed_labels``: bucket-sharded hash-min +
    pointer jumping) instead of driver-side union-find — closing the
    O(hosts)-driver-state boundary at 10^9-host scale.  Forced-path
    test pins both branches equal (``driver_label_max=0``).

    Scale shape — spanning-forest sparsification, the classic
    distributed-connectivity reduction: each edge batch collapses to
    its spanning forest (≤ vertices−1 edges) in one ``map_batches``
    pass, forests tree-merge ``vertexprog.FAN`` at a time with plain tasks
    (re-sparsifying at every step, so no merge input exceeds
    vertex-state size), and only the final vertex-sized forest is
    labeled driver-side.  The corpus-sized edge set is touched exactly
    once; everything after is O(|hosts|) — the same vertex-state
    boundary `pagerank_hosts` declares.  Output labels are broadcast
    back over the vertex universe, never joined through a shuffle."""
    import ray

    merge_task = ray.remote(num_cpus=1)(_forest)

    def batch_forest(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        return _forest(
            pa.table({"a": batch["src"], "b": batch["dst"]})
        )

    refs = edges.map_batches(
        batch_forest, batch_format="pyarrow"
    ).to_arrow_refs()
    while len(refs) > 1:
        refs = [
            merge_task.remote(*refs[i : i + vp.FAN])
            for i in range(0, len(refs), vp.FAN)
        ]
    if refs:
        n_forest = ray.get(
            ray.remote(num_cpus=0)(lambda t: t.num_rows).remote(refs[0])
        )
        if n_forest > driver_label_max:
            # scale path: the forest never lands on the driver — labels
            # stay bucket-sharded through hash-min + pointer jumping
            return _cc_distributed_labels(refs[0])
    final = (
        ray.get(refs[0])
        if refs
        else pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
    )
    if "a" not in final.column_names:
        # Ray collapses zero-row map outputs to SCHEMA-LESS empty
        # blocks (the repo's typed-empty rule): an edge-less graph
        # reaches here with a 0-column table
        final = pa.table(
            {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
        )

    # driver-side labeling of the vertex-sized final forest
    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(final["a"].to_pylist(), final["b"].to_pylist()):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    label: dict = {}
    for h in parent:
        r = find(h)
        if r not in label or h < label[r]:
            label[r] = h

    # the forest's vertex set IS the host universe (every vertex's
    # first edge emits a forest edge), so the vertex-sized output is
    # built right here — no verts shuffle, no attach pass
    hosts = sorted(parent)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "component": pa.array(
                [label[find(h)] for h in hosts], pa.string()
            ),
        }
    )


def host_degrees(edges, num_buckets: int = 64):
    """distinct host edges → (host, out_degree, in_degree) over the
    vertex universe — the first-look centrality/skew profile of a
    crawl's link graph (and the sanity companion to `pagerank_hosts`).

    One combiner pass + one vertex-bucketed shuffle: each edge batch
    collapses to ≤2·|batch hosts| partial rows (src→out_part,
    dst→in_part, Arrow hash-agg batch-locally), the shuffle key is
    ``h % num_buckets`` (uniform blake2b hash — no skew), and each
    bucket finishes its hosts exactly.  Output is vertex-sized."""

    def partials(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "out_part": pa.array([], pa.int64()),
                    "in_part": pa.array([], pa.int64()),
                    "vbucket": pa.array([], pa.int32()),
                }
            )
        n = batch.num_rows
        ones = np.ones(n, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        t = pa.table(
            {
                "host": pa.concat_arrays(
                    [
                        batch["src"].combine_chunks(),
                        batch["dst"].combine_chunks(),
                    ]
                ),
                "h": pa.concat_arrays(
                    [
                        batch["src_h"].combine_chunks(),
                        batch["dst_h"].combine_chunks(),
                    ]
                ),
                "out_part": pa.array(
                    np.concatenate([ones, zeros]), pa.int64()
                ),
                "in_part": pa.array(
                    np.concatenate([zeros, ones]), pa.int64()
                ),
            }
        )
        agg = t.group_by(["host", "h"]).aggregate(
            [("out_part", "sum"), ("in_part", "sum")]
        )
        hh = agg["h"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "host": agg["host"],
                "out_part": agg["out_part_sum"],
                "in_part": agg["in_part_sum"],
                "vbucket": pa.array(
                    (hh % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def finish(group: pa.Table) -> pa.Table:
        agg = group.group_by("host").aggregate(
            [("out_part", "sum"), ("in_part", "sum")]
        )
        return pa.table(
            {
                "host": agg["host"],
                "out_degree": agg["out_part_sum"],
                "in_degree": agg["in_part_sum"],
            }
        )

    return (
        edges.map_batches(partials, batch_format="pyarrow")
        .groupby("vbucket")
        .map_groups(finish, batch_format="pyarrow")
    )


def anchor_text_corpus(
    pairs_ds,
    num_buckets: int = 64,
    top_k: int = 20,
) -> pa.Table:
    """(src_host, target_host, anchor_text) rows → per-target-host
    inbound anchor profile (the Common-Crawl-style anchor-text corpus
    used as a retrieval/quality training signal):

      (target_host, n_links, n_src_hosts, top_texts)

    n_links counts every kept anchor occurrence; n_src_hosts is the
    distinct linking hosts; top_texts is the first-``top_k``
    lexicographically sorted DISTINCT anchor texts, '|'-joined (a
    deterministic, oracle-comparable digest of the text set).

    Shape: per-batch Arrow pre-agg of (target, src, text) triple counts
    collapses boilerplate nav anchors before any exchange; ONE
    ``blake2b(target) % num_buckets`` shuffle co-locates each target's
    partials (so the per-bucket finish — count sum, two hash-distincts,
    segmented sorted top-k — is globally exact and buckets concat
    disjointly).  Adaptive driver finish up to
    ``exchange.DRIVER_FINISH_MAX`` partial rows."""

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "target_host": pa.array([], pa.string()),
                    "src_host": pa.array([], pa.string()),
                    "anchor_text": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        g = batch.group_by(
            ["target_host", "src_host", "anchor_text"]
        ).aggregate([("src_host", "count")])
        g = g.rename_columns(
            ["target_host", "src_host", "anchor_text", "n"]
        )
        th = np.array(
            [_h64(s) for s in g["target_host"].to_pylist()],
            dtype=np.uint64,
        )
        return g.append_column(
            "bucket",
            pa.array((th % num_buckets).astype(np.int32), pa.int32()),
        )

    def finish(group: pa.Table) -> pa.Table:
        sums = group.group_by("target_host").aggregate([("n", "sum")])
        srcs = (
            group.group_by(["target_host", "src_host"])
            .aggregate([])
            .group_by("target_host")
            .aggregate([("src_host", "count")])
        )
        dt = group.group_by(["target_host", "anchor_text"]).aggregate([])
        dt = dt.take(
            pc.sort_indices(
                dt,
                sort_keys=[
                    ("target_host", "ascending"),
                    ("anchor_text", "ascending"),
                ],
            )
        )
        th = dt["target_host"].to_numpy(zero_copy_only=False)
        tx = dt["anchor_text"].to_pylist()
        _, starts = np.unique(th, return_index=True)
        starts = np.sort(starts)
        bounds = np.append(starts, len(th))
        hosts = [th[s] for s in starts]
        tops = [
            "|".join(tx[s : min(int(e), int(s) + top_k)])
            for s, e in zip(starts, bounds[1:])
        ]
        top_tbl = pa.table(
            {
                "target_host": pa.array(hosts, pa.string()),
                "top_texts": pa.array(tops, pa.string()),
            }
        )
        out = (
            sums.rename_columns(["target_host", "n_links"])
            .join(
                srcs.rename_columns(["target_host", "n_src_hosts"]),
                keys="target_host",
            )
            .join(top_tbl, keys="target_host")
        )
        return pa.table(
            {
                "target_host": out["target_host"],
                "n_links": pc.cast(out["n_links"], pa.int64()),
                "n_src_hosts": pc.cast(out["n_src_hosts"], pa.int64()),
                "top_texts": out["top_texts"],
            }
        )

    return exchange.bucket_finish(
        pairs_ds.map_batches(partials, batch_format="pyarrow"),
        finish,
        pa.schema(
            [
                ("target_host", pa.string()),
                ("n_links", pa.int64()),
                ("n_src_hosts", pa.int64()),
                ("top_texts", pa.string()),
            ]
        ),
    )


# --- triangle counting (degree-ordered wedge join) -------------------------

_PAIR_DT = np.dtype([("a", "<u8"), ("b", "<u8")])


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(len(a), dtype=_PAIR_DT)
    out["a"], out["b"] = a, b
    return out


def _tri_from_und(
    lo: np.ndarray,
    hi: np.ndarray,
    names: dict[int, str],
    clustering: bool = False,
) -> pa.Table:
    """Shared exact kernel: undirected distinct edges (u64 endpoint
    hashes) → per-host triangle counts.  Degree-ordered orientation —
    every edge points from the lower to the higher (degree, hash) rank,
    so each triangle forms exactly ONE wedge at its minimum-rank apex
    and Σ out-deg² stays bounded (hubs receive edges, never emit
    them — the node-iterator++ bound, cf. Suri & Vassilvitskii 2011).
    Wedge→edge membership is an exact structured-array searchsorted
    over BOTH u64 components (no folded-hash collisions)."""
    if not len(lo):
        cols = {
            "host": pa.array([], pa.string()),
            "n_triangles": pa.array([], pa.int64()),
        }
        if clustering:
            cols["degree"] = pa.array([], pa.int64())
            cols["clustering_ppm"] = pa.array([], pa.int64())
        return pa.table(cols)
    verts, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    deg = np.bincount(inv, minlength=len(verts)).astype(np.int64)
    li, hi_i = inv[: len(lo)], inv[len(lo) :]
    # rank: total order by (deg, hash); orient low rank → high rank
    rank = np.empty(len(verts), dtype=np.int64)
    rank[np.lexsort((verts, deg))] = np.arange(len(verts))
    swap = rank[li] > rank[hi_i]
    src = np.where(swap, hi_i, li)
    dst = np.where(swap, li, hi_i)
    # adjacency grouped by src; neighbors sorted by rank
    order = np.lexsort((rank[dst], src))
    s, d = src[order], dst[order]
    starts = np.flatnonzero(np.diff(s, prepend=np.int64(-1)))
    counts = np.diff(np.append(starts, len(s)))
    # wedge generation: per apex, all ordered neighbor pairs
    w_apex: list[np.ndarray] = []
    w_a: list[np.ndarray] = []
    w_b: list[np.ndarray] = []
    for st, c in zip(starts.tolist(), counts.tolist()):
        if c < 2:
            continue
        nb = d[st : st + c]  # rank-ascending
        ii, jj = np.triu_indices(c, k=1)
        w_apex.append(np.full(len(ii), s[st], dtype=np.int64))
        w_a.append(nb[ii])
        w_b.append(nb[jj])
    tri_counts = np.zeros(len(verts), dtype=np.int64)
    if w_apex:
        apex = np.concatenate(w_apex)
        wa = np.concatenate(w_a)
        wb = np.concatenate(w_b)
        ekeys = np.sort(_pairs(verts[src], verts[dst]))
        wkeys = _pairs(verts[wa], verts[wb])
        idx = np.searchsorted(ekeys, wkeys)
        ok = idx < len(ekeys)
        hit = np.zeros(len(wkeys), dtype=bool)
        hit[ok] = ekeys[np.minimum(idx[ok], len(ekeys) - 1)] == wkeys[ok]
        for arr in (apex[hit], wa[hit], wb[hit]):
            tri_counts += np.bincount(arr, minlength=len(verts))
    if clustering:
        # domain: hosts with ≥2 undirected neighbors (cc undefined
        # below); cc_ppm = 2·tri·1e6 // (deg·(deg−1)) — exact integers
        keep = deg >= 2
        dk = deg[keep]
        tk = tri_counts[keep]
        cc = (2 * tk * 1_000_000) // (dk * (dk - 1))
        return pa.table(
            {
                "host": pa.array(
                    [names[int(v)] for v in verts[keep]], pa.string()
                ),
                "n_triangles": pa.array(tk, pa.int64()),
                "degree": pa.array(dk, pa.int64()),
                "clustering_ppm": pa.array(cc, pa.int64()),
            }
        )
    keep = tri_counts > 0
    return pa.table(
        {
            "host": pa.array(
                [names[int(v)] for v in verts[keep]], pa.string()
            ),
            "n_triangles": pa.array(tri_counts[keep], pa.int64()),
        }
    )


def _und_distinct(edges, num_buckets: int):
    """directed distinct host edges → (materialized undirected-distinct
    dataset, its block REFS, distinct-edge count).  Blocks stay in the
    object store — the driver pulls them only in the below-gate tier.
    Strings canonicalize (lo, hi) by host string; dedup inside
    pair-hash buckets."""
    import ray

    def und_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "lo": pa.array([], pa.string()),
                    "hi": pa.array([], pa.string()),
                    "lo_h": pa.array([], pa.uint64()),
                    "hi_h": pa.array([], pa.uint64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        src_ = batch["src"].to_numpy(zero_copy_only=False)
        dst = batch["dst"].to_numpy(zero_copy_only=False)
        sh = batch["src_h"].to_numpy(zero_copy_only=False)
        dh = batch["dst_h"].to_numpy(zero_copy_only=False)
        swap = src_ > dst  # canonical by host string
        lo = np.where(swap, dst, src_)
        hi = np.where(swap, src_, dst)
        lo_h = np.where(swap, dh, sh)
        hi_h = np.where(swap, sh, dh)
        b = (
            (lo_h ^ (hi_h >> np.uint64(7))) % np.uint64(num_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "lo": pa.array(lo, pa.string()),
                "hi": pa.array(hi, pa.string()),
                "lo_h": pa.array(lo_h, pa.uint64()),
                "hi_h": pa.array(hi_h, pa.uint64()),
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def bucket_distinct(group: pa.Table) -> pa.Table:
        lo_h = group["lo_h"].to_numpy(zero_copy_only=False)
        hi_h = group["hi_h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((hi_h, lo_h))
        keep = np.empty(len(order), dtype=bool)
        if len(order):
            keep[0] = True
            keep[1:] = (
                (lo_h[order][1:] != lo_h[order][:-1])
                | (hi_h[order][1:] != hi_h[order][:-1])
            )
        return group.take(pa.array(order[keep]))

    und = (
        edges.map_batches(und_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_distinct, batch_format="pyarrow")
        .materialize()
    )
    return und, list(und.to_arrow_refs()), und.count()


def host_triangles(edges, num_buckets: int = 64,
                   driver_max_edges: int = 5_000_000,
                   clustering: bool = False):
    """distinct host edges (from ``host_edges``) → (host, n_triangles):
    exact per-host triangle counts on the UNDIRECTED host graph — the
    clustering/community signal that complements PageRank/HITS/CC.

    Scale shape: directed-edge rows reduce to undirected distinct
    (lo, hi) pairs inside pair-hash buckets (strings shuffle once,
    already-distinct rows); ≤ ``driver_max_edges`` distinct edges then
    run the exact degree-ordered wedge kernel driver-local (edges are
    two u64s + two strings — 5M edges ≈ a few hundred MB).  Above the
    gate, the same kernel's stages distribute: degree combiner →
    broadcast rank → wedge generation inside apex-hash buckets → the
    wedge⋈edge membership inside pair-hash buckets (documented
    extension; the adaptive gate is count-checked like PageRank's)."""
    import ray

    und, block_refs, n_edges = _und_distinct(edges, num_buckets)
    empty = pa.table(
        {
            "host": pa.array([], pa.string()),
            "n_triangles": pa.array([], pa.int64()),
        }
    )
    if not n_edges:
        return empty

    if n_edges <= driver_max_edges:
        blocks = [b for b in ray.get(block_refs) if b.num_rows]
        t = pa.concat_tables(blocks)
        names: dict[int, str] = {}
        for blk in blocks:
            for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
                names.update(
                    zip(
                        (int(x) for x in blk[col_h].to_pylist()),
                        blk[col_s].to_pylist(),
                    )
                )
        return _tri_from_und(
            t["lo_h"].to_numpy(zero_copy_only=False),
            t["hi_h"].to_numpy(zero_copy_only=False),
            names,
            clustering=clustering,
        )
    # above the gate: edge blocks STAY in the object store; degree/rank
    # and the hash→host names are vertex-sized driver state (the module
    # boundary — the vertexprog sharded tier's routing is the extension)
    names = {}
    deg0: dict[int, int] = {}

    @ray.remote(num_cpus=1)
    def vert_partial(t: pa.Table):
        out_n: dict[int, str] = {}
        out_d: dict[int, int] = {}
        for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
            hs = t[col_h].to_pylist()
            ss = t[col_s].to_pylist()
            for h, s in zip(hs, ss):
                out_n[int(h)] = s
                out_d[int(h)] = out_d.get(int(h), 0) + 1
        return out_n, out_d

    for out_n, out_d in ray.get(
        [vert_partial.remote(b) for b in block_refs]
    ):
        names.update(out_n)
        for h, c in out_d.items():
            deg0[h] = deg0.get(h, 0) + c

    # ---- distributed tier: degree combiner → broadcast rank →
    # apex-bucket wedge generation → pair-bucket exact membership ----
    deg = deg0
    verts = np.array(sorted(deg), dtype=np.uint64)
    degv = np.array([deg[int(v)] for v in verts], dtype=np.int64)
    rank = np.empty(len(verts), dtype=np.int64)
    rank[np.lexsort((verts, degv))] = np.arange(len(verts))
    rank_ref = ray.put((verts, rank))

    def oriented(batch: pa.Table) -> pa.Table:
        vs, rk = ray.get(rank_ref)
        lo_h = batch["lo_h"].to_numpy(zero_copy_only=False)
        hi_h = batch["hi_h"].to_numpy(zero_copy_only=False)
        r_lo = rk[np.searchsorted(vs, lo_h)]
        r_hi = rk[np.searchsorted(vs, hi_h)]
        swap = r_lo > r_hi
        a = np.where(swap, hi_h, lo_h)
        b = np.where(swap, lo_h, hi_h)
        return pa.table(
            {
                "a_h": pa.array(a, pa.uint64()),
                "b_h": pa.array(b, pa.uint64()),
                "abucket": pa.array(
                    (a % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    ori = und.map_batches(oriented, batch_format="pyarrow")

    def wedges(group: pa.Table) -> pa.Table:
        vs, rk = ray.get(rank_ref)
        a = group["a_h"].to_numpy(zero_copy_only=False)
        b = group["b_h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rk[np.searchsorted(vs, b)], a))
        a, b = a[order], b[order]
        starts = np.flatnonzero(
            np.concatenate([[True], a[1:] != a[:-1]])
        ) if len(a) else np.zeros(0, np.int64)
        counts = np.diff(np.append(starts, len(a)))
        w_apex, w_a, w_b = [], [], []
        for st, c in zip(starts.tolist(), counts.tolist()):
            if c < 2:
                continue
            nb = b[st : st + c]  # rank-ascending out-neighbors
            ii, jj = np.triu_indices(c, k=1)
            w_apex.append(np.full(len(ii), a[st], dtype=np.uint64))
            w_a.append(nb[ii])
            w_b.append(nb[jj])
        if not w_apex:
            return pa.table(
                {
                    "wa": pa.array([], pa.uint64()),
                    "wb": pa.array([], pa.uint64()),
                    "apex": pa.array([], pa.uint64()),
                    "kind": pa.array([], pa.int8()),
                    "pbucket": pa.array([], pa.int32()),
                }
            )
        wa = np.concatenate(w_a)
        wb = np.concatenate(w_b)
        apex = np.concatenate(w_apex)
        pb = ((wa ^ (wb >> np.uint64(7))) % np.uint64(num_buckets)).astype(
            np.int32
        )
        return pa.table(
            {
                "wa": pa.array(wa, pa.uint64()),
                "wb": pa.array(wb, pa.uint64()),
                "apex": pa.array(apex, pa.uint64()),
                "kind": pa.array(np.zeros(len(wa), np.int8), pa.int8()),
                "pbucket": pa.array(pb, pa.int32()),
            }
        )

    def edge_keys(batch: pa.Table) -> pa.Table:
        a = batch["a_h"].to_numpy(zero_copy_only=False)
        b = batch["b_h"].to_numpy(zero_copy_only=False)
        pb = ((a ^ (b >> np.uint64(7))) % np.uint64(num_buckets)).astype(
            np.int32
        )
        return pa.table(
            {
                "wa": pa.array(a, pa.uint64()),
                "wb": pa.array(b, pa.uint64()),
                "apex": pa.array(np.zeros(len(a), np.uint64), pa.uint64()),
                "kind": pa.array(np.ones(len(a), np.int8), pa.int8()),
                "pbucket": pa.array(pb, pa.int32()),
            }
        )

    wedge_ds = ori.groupby("abucket").map_groups(
        wedges, batch_format="pyarrow"
    ).select_columns(["wa", "wb", "apex", "kind", "pbucket"])
    ekey_ds = ori.map_batches(edge_keys, batch_format="pyarrow")

    def match(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        wa = group["wa"].to_numpy(zero_copy_only=False)
        wb = group["wb"].to_numpy(zero_copy_only=False)
        apex = group["apex"].to_numpy(zero_copy_only=False)
        em = kind == 1
        ek = np.sort(_pairs(wa[em], wb[em]))
        wm = ~em
        wk = _pairs(wa[wm], wb[wm])
        if not len(ek) or not len(wk):
            return pa.table(
                {
                    "host_h": pa.array([], pa.uint64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        idx = np.searchsorted(ek, wk)
        ok = idx < len(ek)
        hit = np.zeros(len(wk), dtype=bool)
        hit[ok] = ek[np.minimum(idx[ok], len(ek) - 1)] == wk[ok]
        members = np.concatenate(
            [wa[wm][hit], wb[wm][hit], apex[wm][hit]]
        )
        hh, cc = np.unique(members, return_counts=True)
        return pa.table(
            {
                "host_h": pa.array(hh, pa.uint64()),
                "n": pa.array(cc.astype(np.int64), pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            wedge_ds.union(ekey_ds)
            .groupby("pbucket")
            .map_groups(match, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    tri_by_h: dict[int, int] = {}
    if parts:
        agg = (
            pa.concat_tables(parts)
            .group_by("host_h")
            .aggregate([("n", "sum")])
        )
        tri_by_h = dict(
            zip(
                (int(x) for x in agg["host_h"].to_pylist()),
                (int(x) for x in agg["n_sum"].to_pylist()),
            )
        )
    if clustering:
        hs = sorted(h for h, dg in deg.items() if dg >= 2)
        dk = np.array([deg[h] for h in hs], dtype=np.int64)
        tk = np.array([tri_by_h.get(h, 0) for h in hs], dtype=np.int64)
        cc = (2 * tk * 1_000_000) // (dk * (dk - 1))
        return pa.table(
            {
                "host": pa.array([names[h] for h in hs], pa.string()),
                "n_triangles": pa.array(tk, pa.int64()),
                "degree": pa.array(dk, pa.int64()),
                "clustering_ppm": pa.array(cc, pa.int64()),
            }
        )
    if not tri_by_h:
        return empty
    hs = sorted(tri_by_h)
    return pa.table(
        {
            "host": pa.array([names[h] for h in hs], pa.string()),
            "n_triangles": pa.array(
                np.array([tri_by_h[h] for h in hs], dtype=np.int64),
                pa.int64(),
            ),
        }
    )


# --- link prediction (common neighbors / neighborhood Jaccard) -------------

def _linkpred_scores(
    keys: np.ndarray,
    cn: np.ndarray,
    ekeys: np.ndarray,
    verts: np.ndarray,
    deg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(candidate pair keys, common-neighbor counts, sorted edge keys)
    → (non-edge keys, cn, jaccard_ppm).  Shared by both tiers."""
    if len(ekeys) and len(keys):
        idx = np.searchsorted(ekeys, keys)
        ok = idx < len(ekeys)
        is_edge = np.zeros(len(keys), dtype=bool)
        is_edge[ok] = ekeys[np.minimum(idx[ok], len(ekeys) - 1)] == keys[ok]
        keys, cn = keys[~is_edge], cn[~is_edge]
    da = deg[np.searchsorted(verts, keys["a"])]
    db = deg[np.searchsorted(verts, keys["b"])]
    jppm = (cn * 1_000_000) // (da + db - cn)
    return keys, cn, jppm


def _linkpred_wedge_pairs(
    src: np.ndarray, dst: np.ndarray, srank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """apex-grouped directed rows (src=apex vertex idx, dst=neighbor
    idx) → string-canonical co-neighbor pairs (a_idx, b_idx)."""
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    starts = np.flatnonzero(np.diff(s, prepend=np.int64(-1)))
    counts = np.diff(np.append(starts, len(s)))
    pa_l: list[np.ndarray] = []
    pb_l: list[np.ndarray] = []
    for st, c in zip(starts.tolist(), counts.tolist()):
        if c < 2:
            continue
        nb = d[st : st + c]
        ii, jj = np.triu_indices(c, k=1)
        x, y = nb[ii], nb[jj]
        sw = srank[x] > srank[y]
        pa_l.append(np.where(sw, y, x))
        pb_l.append(np.where(sw, x, y))
    if not pa_l:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(pa_l), np.concatenate(pb_l)


_LINKPRED_EMPTY = {
    "host_a": pa.string(),
    "host_b": pa.string(),
    "common_neighbors": pa.int64(),
    "jaccard_ppm": pa.int64(),
}


def host_link_prediction(
    edges,
    max_apex_degree: int = 64,
    k: int = 100,
    num_buckets: int = 64,
    driver_max_edges: int = 5_000_000,
):
    """distinct host edges → top-k predicted (missing) host links:
    (host_a, host_b, common_neighbors, jaccard_ppm) for NON-adjacent
    host pairs, scored by neighborhood Jaccard
    ``cn·1e6 // (deg_a + deg_b − cn)`` (integer-exact), ranked
    (jaccard_ppm desc, common_neighbors desc, host_a, host_b) — the
    "which hosts should link but don't" signal used for crawl seeding
    and mirror discovery (Liben-Nowell & Kleinberg 2003 common-
    neighbors/Jaccard predictors).

    Wedge generation only fires at apexes with degree ≤
    ``max_apex_degree`` (on BOTH the engine and the SQL side): hub
    apexes contribute Σdeg² wedges of near-zero predictive value —
    the standard production cap that keeps the pair explosion bounded.

    Scale shape (mirrors ``host_triangles``): undirected distinct
    edges come from pair-hash buckets; ≤ ``driver_max_edges`` runs the
    exact kernel driver-local; above the gate, wedges generate inside
    apex-hash buckets, common-neighbor counting + the existing-edge
    anti-join run inside pair-hash buckets, each bucket emits only its
    LOCAL top-k, and the driver merges ≤ buckets·k rows with one Arrow
    sort (degree/rank vectors are the same vertex-sized broadcast
    boundary the triangle kernel declares).  Pairs are canonicalized
    by host STRING rank so DuckDB's ``least/greatest`` oracle matches
    exactly; SQL twin in ``oracle_sql()['crawl_host_linkpred']``."""
    import ray

    und, block_refs, n_edges = _und_distinct(edges, num_buckets)
    empty = pa.table(
        {c: pa.array([], t) for c, t in _LINKPRED_EMPTY.items()}
    )
    if not n_edges:
        return empty
    cap = int(max_apex_degree)

    if n_edges <= driver_max_edges:
        blocks = [b for b in ray.get(block_refs) if b.num_rows]
        t = pa.concat_tables(blocks)
        names: dict[int, str] = {}
        for blk in blocks:
            for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
                names.update(
                    zip(
                        (int(x) for x in blk[col_h].to_pylist()),
                        blk[col_s].to_pylist(),
                    )
                )
        lo = t["lo_h"].to_numpy(zero_copy_only=False)
        hi = t["hi_h"].to_numpy(zero_copy_only=False)
        verts, inv = np.unique(
            np.concatenate([lo, hi]), return_inverse=True
        )
        deg = np.bincount(inv, minlength=len(verts)).astype(np.int64)
        namearr = np.array([names[int(v)] for v in verts])
        srank = np.empty(len(verts), dtype=np.int64)
        srank[np.argsort(namearr)] = np.arange(len(verts))
        li, hi_i = inv[: len(lo)], inv[len(lo) :]
        src = np.concatenate([li, hi_i])
        dst = np.concatenate([hi_i, li])
        keep = deg[src] <= cap
        A, B = _linkpred_wedge_pairs(src[keep], dst[keep], srank)
        if not len(A):
            return empty
        keys, cn = np.unique(
            _pairs(verts[A], verts[B]), return_counts=True
        )
        # und rows are string-canonical (lo < hi) already
        ekeys = np.sort(_pairs(verts[li], verts[hi_i]))
        keys, cn, jppm = _linkpred_scores(
            keys, cn.astype(np.int64), ekeys, verts, deg
        )
        ia = np.searchsorted(verts, keys["a"])
        ib = np.searchsorted(verts, keys["b"])
        order = np.lexsort((srank[ib], srank[ia], -cn, -jppm))[:k]
        return pa.table(
            {
                "host_a": pa.array(namearr[ia[order]], pa.string()),
                "host_b": pa.array(namearr[ib[order]], pa.string()),
                "common_neighbors": pa.array(cn[order], pa.int64()),
                "jaccard_ppm": pa.array(jppm[order], pa.int64()),
            }
        )

    # ---- distributed tier: vertex-sized broadcast boundary (names /
    # degree / string-rank — the same declaration host_triangles makes;
    # the sharded-PageRank routing is the documented extension) ----
    names = {}
    deg0: dict[int, int] = {}

    @ray.remote(num_cpus=1)
    def vert_partial(tb: pa.Table):
        out_n: dict[int, str] = {}
        out_d: dict[int, int] = {}
        for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
            hs = tb[col_h].to_pylist()
            ss = tb[col_s].to_pylist()
            for h, s in zip(hs, ss):
                out_n[int(h)] = s
                out_d[int(h)] = out_d.get(int(h), 0) + 1
        return out_n, out_d

    for out_n, out_d in ray.get(
        [vert_partial.remote(b) for b in block_refs]
    ):
        names.update(out_n)
        for h, c in out_d.items():
            deg0[h] = deg0.get(h, 0) + c

    verts = np.array(sorted(deg0), dtype=np.uint64)
    deg = np.array([deg0[int(v)] for v in verts], dtype=np.int64)
    namearr = np.array([names[int(v)] for v in verts])
    srank = np.empty(len(verts), dtype=np.int64)
    srank[np.argsort(namearr)] = np.arange(len(verts))
    state_ref = ray.put((verts, deg, srank))

    def both_dirs(batch: pa.Table) -> pa.Table:
        vs, dg, _ = ray.get(state_ref)
        lo_h = batch["lo_h"].to_numpy(zero_copy_only=False)
        hi_h = batch["hi_h"].to_numpy(zero_copy_only=False)
        apex = np.concatenate([lo_h, hi_h])
        nbr = np.concatenate([hi_h, lo_h])
        keep = dg[np.searchsorted(vs, apex)] <= cap
        apex, nbr = apex[keep], nbr[keep]
        return pa.table(
            {
                "apex_h": pa.array(apex, pa.uint64()),
                "nbr_h": pa.array(nbr, pa.uint64()),
                "abucket": pa.array(
                    (apex % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def wedges(group: pa.Table) -> pa.Table:
        vs, _, sr = ray.get(state_ref)
        ah = group["apex_h"].to_numpy(zero_copy_only=False)
        nh = group["nbr_h"].to_numpy(zero_copy_only=False)
        src = np.searchsorted(vs, ah)
        dst = np.searchsorted(vs, nh)
        A, B = _linkpred_wedge_pairs(src, dst, sr)
        wa, wb = vs[A], vs[B]
        pb = (
            (wa ^ (wb >> np.uint64(7))) % np.uint64(num_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "wa": pa.array(wa, pa.uint64()),
                "wb": pa.array(wb, pa.uint64()),
                "kind": pa.array(np.zeros(len(wa), np.int8), pa.int8()),
                "pbucket": pa.array(pb, pa.int32()),
            }
        )

    def edge_keys(batch: pa.Table) -> pa.Table:
        a = batch["lo_h"].to_numpy(zero_copy_only=False)
        b = batch["hi_h"].to_numpy(zero_copy_only=False)
        pb = (
            (a ^ (b >> np.uint64(7))) % np.uint64(num_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "wa": pa.array(a, pa.uint64()),
                "wb": pa.array(b, pa.uint64()),
                "kind": pa.array(np.ones(len(a), np.int8), pa.int8()),
                "pbucket": pa.array(pb, pa.int32()),
            }
        )

    def score_bucket(group: pa.Table) -> pa.Table:
        vs, dg, sr = ray.get(state_ref)
        kind = group["kind"].to_numpy(zero_copy_only=False)
        wa = group["wa"].to_numpy(zero_copy_only=False)
        wb = group["wb"].to_numpy(zero_copy_only=False)
        em = kind == 1
        ek = np.sort(_pairs(wa[em], wb[em]))
        wm = ~em
        if not wm.any():
            return pa.table(
                {
                    "a_h": pa.array([], pa.uint64()),
                    "b_h": pa.array([], pa.uint64()),
                    "common_neighbors": pa.array([], pa.int64()),
                    "jaccard_ppm": pa.array([], pa.int64()),
                }
            )
        keys, cn = np.unique(_pairs(wa[wm], wb[wm]), return_counts=True)
        keys, cn, jppm = _linkpred_scores(
            keys, cn.astype(np.int64), ek, vs, dg
        )
        ia = np.searchsorted(vs, keys["a"])
        ib = np.searchsorted(vs, keys["b"])
        order = np.lexsort((sr[ib], sr[ia], -cn, -jppm))[:k]
        return pa.table(
            {
                "a_h": pa.array(keys["a"][order], pa.uint64()),
                "b_h": pa.array(keys["b"][order], pa.uint64()),
                "common_neighbors": pa.array(cn[order], pa.int64()),
                "jaccard_ppm": pa.array(jppm[order], pa.int64()),
            }
        )

    both = und.map_batches(both_dirs, batch_format="pyarrow")
    wedge_ds = both.groupby("abucket").map_groups(
        wedges, batch_format="pyarrow"
    ).select_columns(["wa", "wb", "kind", "pbucket"])
    ekey_ds = und.map_batches(edge_keys, batch_format="pyarrow")
    parts = [
        t
        for t in ray.get(
            wedge_ds.union(ekey_ds)
            .groupby("pbucket")
            .map_groups(score_bucket, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return empty
    # driver holds ≤ num_buckets·k rows — Arrow-side final cut, no Ray
    # sort (the tiny-candidate-set rule)
    allp = pa.concat_tables(parts)
    a_h = allp["a_h"].to_numpy(zero_copy_only=False)
    b_h = allp["b_h"].to_numpy(zero_copy_only=False)
    cn = allp["common_neighbors"].to_numpy(zero_copy_only=False)
    jppm = allp["jaccard_ppm"].to_numpy(zero_copy_only=False)
    ia = np.searchsorted(verts, a_h)
    ib = np.searchsorted(verts, b_h)
    order = np.lexsort((srank[ib], srank[ia], -cn, -jppm))[:k]
    return pa.table(
        {
            "host_a": pa.array(namearr[ia[order]], pa.string()),
            "host_b": pa.array(namearr[ib[order]], pa.string()),
            "common_neighbors": pa.array(cn[order], pa.int64()),
            "jaccard_ppm": pa.array(jppm[order], pa.int64()),
        }
    )


def host_kcore(
    edges,
    k: int = 2,
    rounds: int = 8,
    num_buckets: int = 64,
    driver_max_edges: int = 5_000_000,
):
    """distinct host edges → (host, kcore_degree): the hosts surviving
    ``rounds`` synchronous peels of the undirected k-core (drop every
    vertex with degree < k, recompute, repeat) with their degree inside
    the surviving subgraph — the link-farm/periphery filter beside the
    triangle kernel.  ``rounds`` BOUNDS the peel on BOTH sides: the
    DuckDB oracle unrolls the same ``rounds`` iterations (the HITS
    trick), and once the peel converges earlier the extra rounds are
    no-ops, so the bounded operator equals the true k-core whenever it
    converges within the budget (raise ``rounds`` with graph depth).

    Tiers: ≤ ``driver_max_edges`` distinct undirected edges peel
    driver-local (vectorized numpy rounds); above, each round is a
    plain-task fan-out over the materialized edge blocks computing
    alive-filtered degree partials under a broadcast alive set
    (vertex-sized, the module boundary), exactly the PageRank
    default-tier shape."""
    import ray

    und, block_refs, n_edges = _und_distinct(edges, num_buckets)
    empty = pa.table(
        {
            "host": pa.array([], pa.string()),
            "kcore_degree": pa.array([], pa.int64()),
        }
    )
    if not n_edges:
        return empty

    if n_edges <= driver_max_edges:
        blocks = [b for b in ray.get(block_refs) if b.num_rows]
        t = pa.concat_tables(blocks)
        names: dict[int, str] = {}
        for blk in blocks:
            for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
                names.update(
                    zip(
                        (int(x) for x in blk[col_h].to_pylist()),
                        blk[col_s].to_pylist(),
                    )
                )
        lo = t["lo_h"].to_numpy(zero_copy_only=False)
        hi = t["hi_h"].to_numpy(zero_copy_only=False)
        verts, inv = np.unique(
            np.concatenate([lo, hi]), return_inverse=True
        )
        li, hi_i = inv[: len(lo)], inv[len(lo) :]
        alive = np.ones(len(verts), dtype=bool)
        deg = np.bincount(
            np.concatenate([li, hi_i]), minlength=len(verts)
        ).astype(np.int64)
        for _ in range(rounds):
            drop = alive & (deg < k)
            if not drop.any():
                break
            alive &= ~drop
            e_alive = alive[li] & alive[hi_i]
            deg = np.bincount(
                np.concatenate([li[e_alive], hi_i[e_alive]]),
                minlength=len(verts),
            ).astype(np.int64)
        keep = alive & (deg > 0)
        return pa.table(
            {
                "host": pa.array(
                    [names[int(v)] for v in verts[keep]], pa.string()
                ),
                "kcore_degree": pa.array(deg[keep], pa.int64()),
            }
        )

    # distributed tier: per-round alive-filtered degree combiner
    @ray.remote(num_cpus=1)
    def deg_partial(t: pa.Table, alive_keys: np.ndarray) -> pa.Table:
        lo = t["lo_h"].to_numpy(zero_copy_only=False)
        hi = t["hi_h"].to_numpy(zero_copy_only=False)
        if len(alive_keys):
            def isin(x):
                i = np.searchsorted(alive_keys, x)
                return (i < len(alive_keys)) & (
                    alive_keys[np.minimum(i, len(alive_keys) - 1)] == x
                )
            m = isin(lo) & isin(hi)
            lo, hi = lo[m], hi[m]
        hh, cc = np.unique(np.concatenate([lo, hi]), return_counts=True)
        return pa.table(
            {
                "h": pa.array(hh, pa.uint64()),
                "n": pa.array(cc.astype(np.int64), pa.int64()),
            }
        )

    @ray.remote(num_cpus=1)
    def name_partial(t: pa.Table) -> dict:
        out: dict[int, str] = {}
        for col_h, col_s in (("lo_h", "lo"), ("hi_h", "hi")):
            out.update(
                zip(
                    (int(x) for x in t[col_h].to_pylist()),
                    t[col_s].to_pylist(),
                )
            )
        return out

    names = {}
    for part_names in ray.get(
        [name_partial.remote(b) for b in block_refs]
    ):
        names.update(part_names)
    alive = np.array(sorted(names), dtype=np.uint64)
    deg_map: dict[int, int] = {}
    for _ in range(rounds):
        a_ref = ray.put(alive)
        parts = [
            t
            for t in ray.get(
                [deg_partial.remote(b, a_ref) for b in block_refs]
            )
            if t.num_rows
        ]
        deg_map = {}
        for t in parts:
            for h, n in zip(t["h"].to_pylist(), t["n"].to_pylist()):
                deg_map[int(h)] = deg_map.get(int(h), 0) + int(n)
        survivors = np.array(
            sorted(h for h in alive.tolist() if deg_map.get(h, 0) >= k),
            dtype=np.uint64,
        )
        if len(survivors) == len(alive):
            break
        alive = survivors
    keep = [
        h for h in alive.tolist() if deg_map.get(h, 0) >= k
    ] if rounds else alive.tolist()
    # after the final peel, recompute degrees within the survivor set
    a_ref = ray.put(np.array(sorted(keep), dtype=np.uint64))
    parts = [
        t
        for t in ray.get([deg_partial.remote(b, a_ref) for b in block_refs])
        if t.num_rows
    ]
    final: dict[int, int] = {}
    for t in parts:
        for h, n in zip(t["h"].to_pylist(), t["n"].to_pylist()):
            final[int(h)] = final.get(int(h), 0) + int(n)
    hs = sorted(h for h in keep if final.get(h, 0) > 0)
    return pa.table(
        {
            "host": pa.array([names[h] for h in hs], pa.string()),
            "kcore_degree": pa.array(
                np.array([final[h] for h in hs], dtype=np.int64), pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# label-propagation communities (deterministic synchronous LPA)
# ---------------------------------------------------------------------------

def _collect_verts_und(und):
    """distinct (host, h64) pairs from an undirected-distinct edge
    dataset (lo/hi columns) — the ``_collect_verts`` combiner for the
    canonicalized edge shape.  Vertex-state-sized by the module's
    declared boundary."""
    import ray

    def pairs(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "h": pa.array([], pa.uint64()),
                }
            )
        t = pa.table(
            {
                "host": pa.concat_arrays(
                    [
                        batch["lo"].combine_chunks(),
                        batch["hi"].combine_chunks(),
                    ]
                ),
                "h": pa.concat_arrays(
                    [
                        batch["lo_h"].combine_chunks(),
                        batch["hi_h"].combine_chunks(),
                    ]
                ),
            }
        )
        return t.group_by(["host", "h"]).aggregate([])

    parts = [
        t
        for t in ray.get(
            und.map_batches(pairs, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return [], np.zeros(0, dtype=np.uint64)
    cat = pa.concat_tables(parts)
    hh = cat["h"].to_numpy(zero_copy_only=False)
    _, first = np.unique(hh, return_index=True)
    hosts_arr = cat["host"].take(pa.array(np.sort(first)))
    hh_u = hh[np.sort(first)]
    order = np.argsort(hh_u)
    return hosts_arr.take(pa.array(order)).to_pylist(), hh_u[order]


def _lpa_mode(
    v: np.ndarray, lbl: np.ndarray, cnt: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """One synchronous LPA step from aggregated neighbor-label counts:
    per vertex v take the label with max count, ties → SMALLEST label
    (label ints are string ranks, so the tie-break is lexicographic —
    mirrored by the oracle's ``ORDER BY c DESC, label`` QUALIFY)."""
    if not len(v):
        return labels.copy()
    order = np.lexsort((lbl, -cnt, v))
    vs = v[order]
    first = np.empty(len(vs), dtype=bool)
    first[0] = True
    first[1:] = vs[1:] != vs[:-1]
    new = labels.copy()
    new[vs[first]] = lbl[order][first]
    return new


def _lpa_pair_counts(
    v: np.ndarray, lbl: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, label) pair histogram via one packed-u64 ``np.unique`` —
    valid while vertex ids fit 32 bits (the tiers that hold an id array
    at all are bounded far below that)."""
    key = (v.astype(np.uint64) << np.uint64(32)) | lbl.astype(np.uint64)
    uk, cnt = np.unique(key, return_counts=True)
    return (
        (uk >> np.uint64(32)).astype(np.int64),
        (uk & np.uint64(0xFFFFFFFF)).astype(np.int64),
        cnt.astype(np.int64),
    )


def lpa_communities(
    edges,
    iters: int = 4,
    num_buckets: int = 64,
    driver_max_edges: int = 5_000_000,
    shard_min_edges: int = 500_000_000,
):
    """distinct host edges (from ``host_edges``) → (host, community,
    community_size): deterministic synchronous label propagation
    (Raghavan et al. 2007, arXiv:0709.2938) on the UNDIRECTED distinct
    host graph.  Labels start as each host's own name; every iteration
    each host adopts the most frequent label among its neighbors, ties
    broken by the lexicographically smallest label; ``iters`` is fixed
    so the DuckDB oracle unrolls the identical recurrence and must
    match exactly (labels are host strings on both sides — internally
    string-rank ints, externally the community's name host).

    Three adaptive tiers sharing the same mode/tie-break semantics
    (forced-path tests pin them identical): ≤ ``driver_max_edges``
    undirected edges runs driver-local; above it the broadcast loop —
    per-block ``ray.remote`` neighbor-label count partials (the
    crawl-round plain-task dispatch rule: no per-iteration Dataset
    job), tree/driver-merged, vertex-sized (keys, labels) driver state
    (the module's declared ~10⁸-host boundary); past
    ``shard_min_edges`` the fully sharded ``_lpa_distributed_sharded``
    tier, which holds NO vertex-sized state anywhere (10⁹-host
    framing)."""
    import ray

    und, und_refs, n_und = _und_distinct(edges, num_buckets)
    if n_und > shard_min_edges:
        return _lpa_distributed_sharded(und_refs, iters)
    hosts, keys = _collect_verts_und(und)
    n = len(keys)
    if n == 0:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "community": pa.array([], pa.string()),
                "community_size": pa.array([], pa.int64()),
            }
        )
    # label domain = string ranks, so "min label" == "min host string"
    srt = np.argsort(np.array(hosts))
    rank = np.empty(n, dtype=np.int64)
    rank[srt] = np.arange(n, dtype=np.int64)
    sorted_hosts = [hosts[i] for i in srt]
    labels = rank.copy()

    if n_und <= driver_max_edges:
        blocks = [t for t in ray.get(und_refs) if t.num_rows]
        if blocks:
            cat = pa.concat_tables(blocks)
            lo = np.searchsorted(
                keys, cat["lo_h"].to_numpy(zero_copy_only=False)
            )
            hi = np.searchsorted(
                keys, cat["hi_h"].to_numpy(zero_copy_only=False)
            )
            v = np.concatenate([lo, hi])
            u = np.concatenate([hi, lo])
        else:
            v = u = np.zeros(0, dtype=np.int64)
        for _ in range(iters):
            vv, ll, cc = _lpa_pair_counts(v, labels[u])
            labels = _lpa_mode(vv, ll, cc, labels)
    else:
        k_ref = ray.put(keys)

        @ray.remote(num_cpus=1)
        def nb_index(block: pa.Table) -> pa.Table:
            k = ray.get(k_ref)
            lo = np.searchsorted(
                k, block["lo_h"].to_numpy(zero_copy_only=False)
            )
            hi = np.searchsorted(
                k, block["hi_h"].to_numpy(zero_copy_only=False)
            )
            return pa.table(
                {
                    "v": pa.array(
                        np.concatenate([lo, hi]).astype(np.int64),
                        pa.int64(),
                    ),
                    "u": pa.array(
                        np.concatenate([hi, lo]).astype(np.int64),
                        pa.int64(),
                    ),
                }
            )

        @ray.remote(num_cpus=1)
        def contrib(nb: pa.Table, lab: np.ndarray) -> pa.Table:
            if not nb.num_rows:
                return pa.table(
                    {
                        "v": pa.array([], pa.int64()),
                        "lbl": pa.array([], pa.int64()),
                        "c": pa.array([], pa.int64()),
                    }
                )
            v = nb["v"].to_numpy(zero_copy_only=False)
            u = nb["u"].to_numpy(zero_copy_only=False)
            vv, ll, cc = _lpa_pair_counts(v, lab[u])
            return pa.table(
                {
                    "v": pa.array(vv, pa.int64()),
                    "lbl": pa.array(ll, pa.int64()),
                    "c": pa.array(cc, pa.int64()),
                }
            )

        @ray.remote(num_cpus=1)
        def merge(*tables: pa.Table) -> pa.Table:
            live = [t for t in tables if t.num_rows]
            if not live:
                return tables[0]
            agg = pa.concat_tables(live).group_by(["v", "lbl"]).aggregate(
                [("c", "sum")]
            )
            return pa.table(
                {"v": agg["v"], "lbl": agg["lbl"], "c": agg["c_sum"]}
            )

        nb_refs = [nb_index.remote(b) for b in und_refs]
        for _ in range(iters):
            l_ref = ray.put(labels)
            part_refs = [contrib.remote(nb, l_ref) for nb in nb_refs]
            if len(part_refs) * max(n, 1) <= vp.MERGE_ON_DRIVER_MAX:
                live = [t for t in ray.get(part_refs) if t.num_rows]
                merged = (
                    ray.get(merge.remote(*live)) if len(live) > 1
                    else (live[0] if live else None)
                )
            else:
                while len(part_refs) > 1:
                    part_refs = [
                        merge.remote(*part_refs[i : i + vp.FAN])
                        for i in range(0, len(part_refs), vp.FAN)
                    ]
                merged = ray.get(part_refs[0]) if part_refs else None
            if merged is not None and merged.num_rows:
                labels = _lpa_mode(
                    merged["v"].to_numpy(zero_copy_only=False),
                    merged["lbl"].to_numpy(zero_copy_only=False),
                    merged["c"].to_numpy(zero_copy_only=False),
                    labels,
                )

    sizes = np.bincount(labels, minlength=n).astype(np.int64)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "community": pa.array(
                [sorted_hosts[int(l)] for l in labels], pa.string()
            ),
            "community_size": pa.array(sizes[labels], pa.int64()),
        }
    )


def _lpa_scatter(block: pa.Table, n: int):
    """One und block → per-bucket state for the sharded LPA tier:
    both-direction (src, dst, dst_b) edge rows bucketed by hash(src)
    (a message reads L(src) bucket-locally and routes to the dst's
    bucket), plus the block's distinct src hosts per bucket (label
    init)."""
    lo = np.asarray(block["lo"].to_pylist(), dtype=object)
    hi = np.asarray(block["hi"].to_pylist(), dtype=object)
    lo_h = block["lo_h"].to_numpy(zero_copy_only=False)
    hi_h = block["hi_h"].to_numpy(zero_copy_only=False)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    src_b = (np.concatenate([lo_h, hi_h]) % np.uint64(n)).astype(np.int64)
    dst_b = (np.concatenate([hi_h, lo_h]) % np.uint64(n)).astype(np.int64)
    edge_bs, vert_bs = [], []
    for k in range(n):
        m = src_b == k
        edge_bs.append(
            pa.table(
                {
                    "src": pa.array(src[m].astype(str), pa.string()),
                    "dst": pa.array(dst[m].astype(str), pa.string()),
                    "dst_b": pa.array(dst_b[m], pa.int64()),
                }
            )
        )
        vert_bs.append(
            pa.table(
                {
                    "host": pa.array(
                        np.unique(src[m]).astype(str), pa.string()
                    )
                }
            )
        )
    return (*edge_bs, *vert_bs)


def _lpa_init_labels(*vert_tables: pa.Table) -> pa.Table:
    """One bucket's distinct vertices across blocks → L(v) = v."""
    live = [t for t in vert_tables if t.num_rows]
    if not live:
        return pa.table(
            {"host": pa.array([], pa.string()),
             "label": pa.array([], pa.string())}
        )
    hosts = np.unique(
        np.asarray(pa.concat_tables(live)["host"].to_pylist(), dtype=object)
    )
    return pa.table(
        {
            "host": pa.array(hosts.astype(str), pa.string()),
            "label": pa.array(hosts.astype(str), pa.string()),
        }
    )


def _lpa_mode_str(
    host: np.ndarray, label: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mode-with-min-string-tie-break over aggregated (host, label, c)
    rows → (hosts sorted asc, winning label per host).  String order is
    preserved by factorizing through ``np.unique``."""
    uh, hcode = np.unique(host, return_inverse=True)
    ul, lcode = np.unique(label, return_inverse=True)
    order = np.lexsort((lcode, -c, hcode))
    hs = hcode[order]
    first = np.empty(len(hs), dtype=bool)
    first[0] = True
    first[1:] = hs[1:] != hs[:-1]
    sel = order[first]
    return uh, ul[lcode[sel]]


def _lpa_msgs(labels_b: pa.Table, n: int, *edge_tables: pa.Table):
    """Send side of one synchronous LPA step: per edge (src → dst) emit
    L(src) toward dst, pre-counted per (dst, label) and routed to the
    dst's bucket."""
    out = [
        pa.table(
            {
                "host": pa.array([], pa.string()),
                "label": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
        for _ in range(n)
    ]
    live = [t for t in edge_tables if t.num_rows]
    if not live or labels_b.num_rows == 0:
        return out
    e = pa.concat_tables(live)
    src = np.asarray(e["src"].to_pylist(), dtype=object)
    lab = _cc_lab_of(labels_b, src)
    t = pa.table(
        {
            "host": e["dst"],
            "label": pa.array(lab.astype(str), pa.string()),
            "dst_b": e["dst_b"],
        }
    )
    agg = t.group_by(["host", "label", "dst_b"]).aggregate(
        [([], "count_all")]
    )
    db = agg["dst_b"].to_numpy(zero_copy_only=False)
    for k in np.unique(db):
        m = pa.array(db == k)
        sub = agg.filter(m)
        out[int(k)] = pa.table(
            {
                "host": sub["host"],
                "label": sub["label"],
                "c": pc.cast(sub["count_all"], pa.int64()),
            }
        )
    return out


def _lpa_apply(labels_b: pa.Table, *msg_tables: pa.Table) -> pa.Table:
    """Receive side: merge (host, label) counts, per host adopt the
    most frequent label, ties → smallest label string."""
    live = [t for t in msg_tables if t.num_rows]
    if not live or labels_b.num_rows == 0:
        return labels_b
    msgs = pa.concat_tables(live)
    agg = msgs.group_by(["host", "label"]).aggregate([("c", "sum")])
    hosts, win = _lpa_mode_str(
        np.asarray(agg["host"].to_pylist(), dtype=object),
        np.asarray(agg["label"].to_pylist(), dtype=object),
        agg["c_sum"].to_numpy(zero_copy_only=False),
    )
    # every vertex has ≥1 neighbor (it came from an edge), so the
    # incoming message set covers the whole bucket
    return pa.table(
        {
            "host": pa.array(hosts.astype(str), pa.string()),
            "label": pa.array(win.astype(str), pa.string()),
        }
    )


def _lpa_size_parts(labels_b: pa.Table, n: int):
    """Community-size reduce, send side: per-bucket (label, partial
    count) routed to the label's owner bucket."""
    out = [
        pa.table(
            {"label": pa.array([], pa.string()),
             "c": pa.array([], pa.int64())}
        )
        for _ in range(n)
    ]
    if labels_b.num_rows == 0:
        return out
    labs, cnt = np.unique(
        np.asarray(labels_b["label"].to_pylist(), dtype=object),
        return_counts=True,
    )
    lb = np.array([_h64(x) % n for x in labs], dtype=np.int64)
    for k in np.unique(lb):
        m = lb == k
        out[int(k)] = pa.table(
            {
                "label": pa.array(labs[m].astype(str), pa.string()),
                "c": pa.array(cnt[m].astype(np.int64), pa.int64()),
            }
        )
    return out


def _lpa_size_merge(*parts: pa.Table) -> pa.Table:
    """Community-size reduce, owner side: total size per label."""
    live = [t for t in parts if t.num_rows]
    if not live:
        return pa.table(
            {"label": pa.array([], pa.string()),
             "size": pa.array([], pa.int64())}
        )
    agg = pa.concat_tables(live).group_by("label").aggregate([("c", "sum")])
    return pa.table(
        {"label": agg["label"], "size": pc.cast(agg["c_sum"], pa.int64())}
    )


def _lpa_finish(labels_b: pa.Table, *size_tables: pa.Table) -> pa.Table:
    """Join community sizes onto one bucket's final labels."""
    if labels_b.num_rows == 0:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "community": pa.array([], pa.string()),
                "community_size": pa.array([], pa.int64()),
            }
        )
    live = [t for t in size_tables if t.num_rows]
    sz = pa.concat_tables(live)
    ks = np.asarray(sz["label"].to_pylist(), dtype=object)
    vs = sz["size"].to_numpy(zero_copy_only=False)
    order = np.argsort(ks)
    ks, vs = ks[order], vs[order]
    ls = np.asarray(labels_b["label"].to_pylist(), dtype=object)
    pos = np.searchsorted(ks, ls)
    return pa.table(
        {
            "host": labels_b["host"],
            "community": labels_b["label"],
            "community_size": pa.array(
                vs[pos].astype(np.int64), pa.int64()
            ),
        }
    )


def _lpa_distributed_sharded(und_refs, iters: int,
                             n_buckets: int = vp.N_SHARDS):
    """Fully sharded LPA tier: labels and edges live bucket-sharded in
    the object store — NO vertex-sized driver or broadcast structure
    anywhere (the 10⁹-host framing, mirroring
    ``_cc_distributed_labels``).  Each iteration is one bucketed
    exchange of pre-counted (dst, label) messages between plain Ray
    tasks over a fixed bucket list; community sizes reduce through
    label-hash owner buckets at the end.  At test/bench scale the
    result concats driver-side; a 100 TB deployment writes each bucket
    straight to hash-partitioned parquet."""
    import ray

    scatter = ray.remote(num_cpus=1)(_lpa_scatter)
    init_t = ray.remote(num_cpus=1)(_lpa_init_labels)
    msgs_t = ray.remote(num_cpus=1)(_lpa_msgs)
    apply_t = ray.remote(num_cpus=1)(_lpa_apply)
    sparts_t = ray.remote(num_cpus=1)(_lpa_size_parts)
    smerge_t = ray.remote(num_cpus=1)(_lpa_size_merge)
    finish_t = ray.remote(num_cpus=1)(_lpa_finish)

    grids = [
        scatter.options(num_returns=2 * n_buckets).remote(b, n_buckets)
        for b in und_refs
    ]
    edge_refs = [[g[k] for g in grids] for k in range(n_buckets)]
    label_refs = [
        init_t.remote(*[g[n_buckets + k] for g in grids])
        for k in range(n_buckets)
    ]
    for _ in range(iters):
        msg_grid = [
            msgs_t.options(num_returns=n_buckets).remote(
                label_refs[k], n_buckets, *edge_refs[k]
            )
            for k in range(n_buckets)
        ]
        label_refs = [
            apply_t.remote(label_refs[k], *[row[k] for row in msg_grid])
            for k in range(n_buckets)
        ]
    size_grid = [
        sparts_t.options(num_returns=n_buckets).remote(
            label_refs[k], n_buckets
        )
        for k in range(n_buckets)
    ]
    size_refs = [
        smerge_t.remote(*[row[k] for row in size_grid])
        for k in range(n_buckets)
    ]
    outs = [
        finish_t.remote(label_refs[k], *size_refs)
        for k in range(n_buckets)
    ]
    parts = [t for t in ray.get(outs) if t.num_rows]
    if not parts:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "community": pa.array([], pa.string()),
                "community_size": pa.array([], pa.int64()),
            }
        )
    return pa.concat_tables(parts).sort_by([("host", "ascending")])


# ---------------------------------------------------------------------------
# HyperBall harmonic centrality (Boldi & Vigna, "In-Core Computation of
# Geometric Centralities with HyperBall", 2013 — the algorithm behind the
# host-level harmonic-centrality ranking Common Crawl ships with every
# snapshot)
# ---------------------------------------------------------------------------

_HB_P = 6                 # 2^6 = 64 registers/counter; rel. err ≈ 1.04/√64
_HB_M = 1 << _HB_P
_HB_SCALE = 1_000_000     # harmonic increments in integer micros
_HB_RMAX = 64 - _HB_P + 1  # = 59: max register rank (w == 0 case)

# Linear-counting estimates as a literal SPEC TABLE: entry z-1 is
# floor(m·ln(m/z)) for z = 1..64 zero registers.  ln is the one libm
# call in the HLL estimate, and DuckDB's ln disagrees with numpy's in
# the last ulp on 17 of these 64 inputs — so the operator DEFINES the
# small-range estimate as this table and the SQL oracle embeds the
# same 64 integers (a pinned test re-derives the table from np.log).
_HB_LC = np.array(
    [266, 221, 195, 177, 163, 151, 141, 133, 125, 118, 112, 107, 102,
     97, 92, 88, 84, 81, 77, 74, 71, 68, 65, 62, 60, 57, 55, 52, 50,
     48, 46, 44, 42, 40, 38, 36, 35, 33, 31, 30, 28, 26, 25, 23, 22,
     21, 19, 18, 17, 15, 14, 13, 12, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
     0],
    dtype=np.int64,
)
# Σ 2^-reg is accumulated in UNITS OF 2^-59 so the hot tail is exact
# int64: registers 0/1/2 are counted separately (their unit weights
# 2^59/2^58/2^57 would overflow a 64-term int64 sum) and re-attached
# as exact float64 products; registers ≥ 3 sum to ≤ 64·2^56 < 2^63.
_HB_TAIL = np.zeros(_HB_RMAX + 1, np.int64)
_HB_TAIL[3:] = np.int64(1) << (59 - np.arange(3, _HB_RMAX + 1))
_HB_U59 = np.float64(576460752303423488.0)   # 2^59 (exact double)
_HB_U58 = np.float64(288230376151711744.0)   # 2^58
_HB_U57 = np.float64(144115188075855872.0)   # 2^57
_HB_ALPHA_M2 = (
    np.float64(0.7213) / (np.float64(1.0) + np.float64(1.079) / np.float64(64.0))
) * np.float64(4096.0)
_HB_EST_CAP = np.float64(4611686018427387904.0)  # 2^62: int64-safe floor


def _bitlen_u64(w: np.ndarray) -> np.ndarray:
    """Exact integer bit length of uint64 values — branchless binary
    reduction, no float round-trip (a float64 mantissa cannot represent
    all 64-bit values, so ``log2``-based widths would be wrong near
    powers of two)."""
    n = np.zeros(w.shape, np.int64)
    v = w.astype(np.uint64, copy=True)
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        n[big] += s
        v[big] >>= np.uint64(s)
    return n + (v > 0)


def _hb_md5h(hosts) -> np.ndarray:
    """host strings → u64 HLL hashes: md5 digest bytes [8:16]
    little-endian — exactly DuckDB's ``md5_number_lower(host)``, so the
    SQL oracle can rebuild every register from the host string (the
    `importance.hash_embed` hash convention; blake2b keeps the ROUTING
    role, md5 only feeds register values)."""
    import hashlib

    return np.array(
        [
            int.from_bytes(
                hashlib.md5(h.encode("utf-8")).digest()[8:], "little"
            )
            for h in hosts
        ],
        dtype=np.uint64,
    )


def _hb_singleton_regs(keys: np.ndarray) -> np.ndarray:
    """u64 md5 vertex hashes (``_hb_md5h``) → ``[V, m]`` uint8
    registers of the singleton ``{v}`` HLL counters: register index =
    low ``p`` bits, rank = leading-zero count of the remaining ``64-p``
    bits + 1 (the ``relational._hll_registers`` convention at p=6; in
    SQL: ``j = h % 64``, ``reg = 59 - length(bin(h // 64))``)."""
    regs = np.zeros((len(keys), _HB_M), np.uint8)
    if not len(keys):
        return regs
    idx = (keys & np.uint64(_HB_M - 1)).astype(np.int64)
    w = keys >> np.uint64(_HB_P)
    nbits = 64 - _HB_P
    rank = np.where(w == 0, nbits + 1, nbits - _bitlen_u64(w) + 1)
    regs[np.arange(len(keys)), idx] = rank.astype(np.uint8)
    return regs


def _hb_estimate_rows(regs: np.ndarray) -> np.ndarray:
    """Row-wise integer HLL estimate, BIT-REPRODUCIBLE IN SQL: the
    register sum Σ2^-reg is assembled from three exact int64 counts
    (reg∈{0,1,2}) plus the exact int64 tail Σ_{reg≥3}2^(59-reg), then
    combined in ONE fixed parenthesization using only IEEE-exact ops
    (int→double conversion, +, ×, ÷ — no exp2/pow), so DuckDB's double
    arithmetic reproduces every bit; the linear-counting branch reads
    the literal ``_HB_LC`` spec table instead of calling ln.  Capped at
    2^62 before the floor so the int64 cast is defined even for the
    degenerate all-rank-59 row."""
    if not len(regs):
        return np.zeros(0, np.int64)
    n0 = (regs == 0).sum(axis=1, dtype=np.int64)
    n1 = (regs == 1).sum(axis=1, dtype=np.int64)
    n2 = (regs == 2).sum(axis=1, dtype=np.int64)
    tail = _HB_TAIL[regs].sum(axis=1, dtype=np.int64)
    s = (
        (n0.astype(np.float64) * _HB_U59 + n1.astype(np.float64) * _HB_U58)
        + n2.astype(np.float64) * _HB_U57
    ) + tail.astype(np.float64)
    raw = _HB_ALPHA_M2 / (s / _HB_U59)
    raw_i = np.floor(np.minimum(raw, _HB_EST_CAP)).astype(np.int64)
    small = (raw <= np.float64(160.0)) & (n0 > 0)
    return np.where(small, _HB_LC[np.maximum(n0, 1) - 1], raw_i)


def _hb_incs(
    est: np.ndarray, est_prev: np.ndarray, t: int
) -> tuple:
    """Radius-``t`` centrality increments over the INTEGER estimates,
    from the clamped ball growth ``Δ⁺ = max(|B(v,t)|−|B(v,t−1)|, 0)``:
    harmonic ``Δ⁺·10⁶ // t`` (integer micros) and sum-of-distances
    ``t·Δ⁺`` (for closeness/Lin) — associative int64 adds, so every
    tier and the oracle agree exactly.  The clamp at 0 absorbs the
    rare estimate DIP when a row crosses the linear-counting threshold
    (balls only grow; a negative diff is sketch noise) and keeps both
    sides of the floor division non-negative, where numpy ``//``
    (floor) and DuckDB ``//`` (truncate) coincide."""
    dpos = np.maximum(est - est_prev, 0)
    return dpos * _HB_SCALE // t, t * dpos


def _hb_finish(
    host_col, est: np.ndarray, harm: np.ndarray, sd: np.ndarray
) -> pa.Table:
    """assemble the public HyperBall output: harmonic micros plus the
    closeness family off the same counters — ``closeness_micros =
    |B|·10⁶ // max(Σdist, 1)`` and Lin's index ``|B|² // max(Σdist,
    1)`` (both int64-safe: |B| ≤ hosts ≤ ~10⁹)."""
    denom = np.maximum(sd, 1)
    return pa.table(
        {
            "host": host_col,
            "ball_est": pa.array(est, pa.int64()),
            "harmonic_micros": pa.array(harm, pa.int64()),
            "sum_dist": pa.array(sd, pa.int64()),
            "closeness_micros": pa.array(
                est * _HB_SCALE // denom, pa.int64()
            ),
            "lin_index": pa.array(est * est // denom, pa.int64()),
        }
    )


def _nf_table(nf) -> pa.Table:
    """per-radius ball-size sums → the public neighbourhood-function
    table (t, nf, growth, ratio_micros, eff_diam_micros): N(t) =
    Σ_v |B(v,t)| (= estimated reachable pairs within distance t), its
    per-radius growth, the N(t)/N(max) ratio in integer micros, and
    the interpolated 90 %-effective-diameter (Palmer et al., KDD 2002
    ANF; Boldi & Vigna 2013 §6) in micros — ``tm`` is the smallest t
    with 10·N(t) ≥ 9·N(max) and the fractional part interpolates
    linearly inside round tm.  All Python-int arithmetic (N(t) can
    reach n², so ·10⁶ intermediates are computed unbounded and only
    the results are int64); positive // positive, so numpy/DuckDB
    floor-vs-truncate agree."""
    nf = [int(x) for x in nf]
    nfmax = nf[-1] if nf else 0
    target = 9 * nfmax
    tm = next(
        (t for t, v in enumerate(nf) if 10 * v >= target), 0
    )
    if tm == 0:
        eff = 0
    else:
        eff = (tm - 1) * 10**6 + (target - 10 * nf[tm - 1]) * 10**6 // (
            10 * (nf[tm] - nf[tm - 1])
        )
    denom = max(nfmax, 1)
    return pa.table(
        {
            "t": pa.array(range(len(nf)), pa.int64()),
            "nf": pa.array(nf, pa.int64()),
            "growth": pa.array(
                [0] + [nf[i] - nf[i - 1] for i in range(1, len(nf))],
                pa.int64(),
            ),
            "ratio_micros": pa.array(
                [v * 10**6 // denom for v in nf], pa.int64()
            ),
            "eff_diam_micros": pa.array([eff] * len(nf), pa.int64()),
        }
    )


def _hyperball_program(max_t: int) -> vp.VertexProgram:
    """HyperBall as a vertex program: singleton HLL registers per host,
    message = the sender's registers, register-wise max, then the
    row estimates and the radius-``t`` increments (``_hb_incs``).  The
    tally is the neighbourhood function ``N(t) = Σ_v est``."""

    def init(v: vp.Verts, totals) -> dict:
        regs = _hb_singleton_regs(_hb_md5h(v.hosts.to_pylist()))
        zero = np.zeros(len(v.keys), np.int64)
        return {"regs": regs, "est": _hb_estimate_rows(regs),
                "harm": zero, "sd": zero}

    def apply(s: dict, inbound: np.ndarray, t: int) -> dict:
        regs = np.maximum(s["regs"], inbound)
        est = _hb_estimate_rows(regs)
        hi, si = _hb_incs(est, s["est"], t)
        return {"regs": regs, "est": est,
                "harm": s["harm"] + hi, "sd": s["sd"] + si}

    return vp.VertexProgram(
        init=init,
        steps=(vp.Step("regs", lambda r, deg: r, np.maximum, apply),),
        rounds=max_t,
        output=lambda hosts, s: _hb_finish(hosts, s["est"], s["harm"], s["sd"]),
        tally=lambda s: int(s["est"].sum()),
    )


def harmonic_hosts(
    edges,
    max_t: int = 8,
    driver_max_edges: int = 5_000_000,
    shard_min_edges: int = 500_000_000,
    nf_out: list = None,
) -> pa.Table:
    """distinct host edges (from ``host_edges``) → (host, ball_est,
    harmonic_micros, sum_dist, closeness_micros, lin_index): HyperBall
    geometric centralities (Boldi & Vigna 2013) — harmonic (the
    host-level ranking Common Crawl publishes with every snapshot, and
    the spam-resistant alternative to PageRank for seed-list curation)
    plus the closeness family off the same counters (``Σdist``,
    ``|B|·10⁶ // Σdist``, Lin's ``|B|² // Σdist``).

    One 64-register HLL counter per host tracks the IN-ball
    ``B(v,t) = {u : d(u→v) ≤ t}``; each synchronous round max-merges
    every counter into its out-neighbors' and adds the harmonic
    increment ``max(|B(v,t)|−|B(v,t−1)|, 0)·10⁶ // t`` (integer
    micros).  Everything after the md5 register hash is either exact
    int64 or the fixed-parenthesization IEEE float path of
    ``_hb_estimate_rows``, so the DuckDB oracle unrolls the identical
    ``max_t`` rounds from the host strings and matches bit-for-bit.

    Three adaptive tiers of the vertex-program engine, bit-identical
    (forced-path test): ≤ ``driver_max_edges`` driver-local
    (segment-layout reduceat); above it the broadcast loop (the
    PageRank layout — (keys, regs) via ``ray.put`` per round, 64 B/host
    ⇒ fine to ~10⁷–10⁸ hosts); past ``shard_min_edges`` the fully
    sharded tier holding no vertex-sized state anywhere (the paper's
    own out-of-core framing).  ``nf_out``, when given, receives
    ``N(t) = Σ_v ball_est`` for t = 0..max_t."""
    tbl, nf = vp.run(
        edges, _hyperball_program(max_t), driver_max_edges, shard_min_edges
    )
    if nf_out is not None:
        nf_out.extend(nf)
    return tbl


def neighborhood_function(edges, max_t: int = 8, **kw) -> pa.Table:
    """distinct host edges → (t, nf, growth, ratio_micros,
    eff_diam_micros), one row per radius 0..max_t: the graph's
    NEIGHBOURHOOD FUNCTION ``N(t) = Σ_v |B(v,t)|`` off the same
    HyperBall HLL counters as :func:`harmonic_hosts` (Palmer, Gibbons
    & Faloutsos, KDD 2002 "ANF"; Boldi & Vigna 2013 §6) plus the
    interpolated 90 %-effective-diameter — the connectivity /
    small-world profile a crawl operator reads off every snapshot
    (how many hops of frontier expansion reach 90 % of all reachable
    host pairs → the crawl-depth budget).

    Same three adaptive tiers (the per-radius sums ride along:
    driver-local/broadcast add one int64 reduction per round; the
    fully sharded tier emits one scalar per bucket per round, fetched
    in one batch at the end).  All derived math is unbounded-int
    exact (see ``_nf_table``); the oracle recomputes N(t) as
    ``sum(est)`` over the identical unrolled register CTEs."""
    nf: list = []
    harmonic_hosts(edges, max_t=max_t, nf_out=nf, **kw)
    return _nf_table(nf)


# ---------------------------------------------------------------------------
# link-symmetry structure: reciprocity + degree assortativity
# ---------------------------------------------------------------------------


def _recip_kernel(
    a: np.ndarray, b: np.ndarray, dirm: np.ndarray
) -> tuple:
    """(min-hash, max-hash, direction-mask) edge rows → exact
    (edges, pairs, reciprocal_pairs).  Each DISTINCT directed edge
    contributes exactly one row globally, so per-pair dirm sums land
    in {1, 2, 3} and 3 ⇔ both directions present."""
    if not len(a):
        return 0, 0, 0
    order = np.lexsort((b, a))
    aa, bb = a[order], b[order]
    starts = np.flatnonzero(
        np.concatenate(
            [[True], (aa[1:] != aa[:-1]) | (bb[1:] != bb[:-1])]
        )
    )
    seg = np.add.reduceat(dirm[order], starts)
    return len(a), len(starts), int((seg == 3).sum())


def _recip_cols(batch: pa.Table) -> tuple:
    sh = batch["src_h"].to_numpy(zero_copy_only=False)
    dh = batch["dst_h"].to_numpy(zero_copy_only=False)
    return (
        np.minimum(sh, dh),
        np.maximum(sh, dh),
        np.where(sh < dh, 1, 2).astype(np.int64),
    )


def _recip_partial(batch: pa.Table, n_buckets: int):
    """route one edge block's pair rows by the SYMMETRIC bucket key
    ``(a ^ b) % B`` so both directions of a pair meet in one bucket."""
    empty = pa.table(
        {
            "a": pa.array([], pa.uint64()),
            "b": pa.array([], pa.uint64()),
            "dirm": pa.array([], pa.int64()),
        }
    )
    out = [empty] * n_buckets
    if not batch.num_rows:
        return out
    a, b, dirm = _recip_cols(batch)
    bk = ((a ^ b) % np.uint64(n_buckets)).astype(np.int64)
    for k in np.unique(bk):
        m = bk == k
        out[int(k)] = pa.table(
            {
                "a": pa.array(a[m], pa.uint64()),
                "b": pa.array(b[m], pa.uint64()),
                "dirm": pa.array(dirm[m], pa.int64()),
            }
        )
    return out


def _recip_reduce(*parts: pa.Table) -> pa.Table:
    """one bucket's scalar partial (edges, pairs, reciprocal_pairs)."""
    live = [t for t in parts if t.num_rows]
    if not live:
        return pa.table(
            {
                "edges": pa.array([0], pa.int64()),
                "pairs": pa.array([0], pa.int64()),
                "recip_pairs": pa.array([0], pa.int64()),
            }
        )
    cat = pa.concat_tables(live)
    m, p, r = _recip_kernel(
        cat["a"].to_numpy(zero_copy_only=False),
        cat["b"].to_numpy(zero_copy_only=False),
        cat["dirm"].to_numpy(zero_copy_only=False),
    )
    return pa.table(
        {
            "edges": pa.array([m], pa.int64()),
            "pairs": pa.array([p], pa.int64()),
            "recip_pairs": pa.array([r], pa.int64()),
        }
    )


def _recip_finish(m: int, p: int, r: int) -> pa.Table:
    return pa.table(
        {
            "edges": pa.array([m], pa.int64()),
            "pairs": pa.array([p], pa.int64()),
            "reciprocal_pairs": pa.array([r], pa.int64()),
            "reciprocal_edges": pa.array([2 * r], pa.int64()),
            "reciprocity_micros": pa.array(
                [2 * r * 10**6 // max(m, 1)], pa.int64()
            ),
        }
    )


def reciprocity_hosts(
    edges,
    driver_max_edges: int = 5_000_000,
    n_buckets: int = 64,
) -> pa.Table:
    """distinct host edges → one row (edges, pairs, reciprocal_pairs,
    reciprocal_edges, reciprocity_micros): link reciprocity r = |{(u,v)
    : (v,u) also present}| / |E| in integer micros — the
    directed-graph symmetry statistic (Newman, Forrest & Balthrop
    2002; Garlaschelli & Loffredo 2004) a web-graph profile reports
    next to degree stats: host graphs are strongly asymmetric
    (reciprocity ≪ 1), and a spike is a link-scheme signal.

    Exact and partitioning-invariant: every distinct directed edge
    contributes one (min-hash, max-hash, direction) row; rows route by
    the symmetric bucket key ``(a ^ b) % B`` so a pair's two directions
    always meet, and a per-pair direction-mask sum of 3 marks
    reciprocation.  Adaptive: ≤ ``driver_max_edges`` runs the same
    kernel driver-local; above, one routed exchange of pair partials +
    per-bucket scalar reduces (never pair-set-sized driver state)."""
    import ray

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= driver_max_edges:
        blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        if not blocks:
            return _recip_finish(0, 0, 0)
        a, b, dirm = _recip_cols(pa.concat_tables(blocks))
        return _recip_finish(*_recip_kernel(a, b, dirm))
    part = ray.remote(num_cpus=1)(_recip_partial)
    reduce_b = ray.remote(num_cpus=1)(_recip_reduce)
    grids = [
        part.options(num_returns=n_buckets).remote(b, n_buckets)
        for b in edges.to_arrow_refs()
    ]
    outs = ray.get(
        [
            reduce_b.remote(*[g[k] for g in grids])
            for k in range(n_buckets)
        ]
    )
    m = sum(int(t["edges"][0].as_py()) for t in outs)
    p = sum(int(t["pairs"][0].as_py()) for t in outs)
    r = sum(int(t["recip_pairs"][0].as_py()) for t in outs)
    return _recip_finish(m, p, r)


def _indeg_partial(batch: pa.Table) -> pa.Table:
    """one edge block's (dst_h, cnt) in-degree partial."""
    if not batch.num_rows:
        return pa.table(
            {
                "dst_h": pa.array([], pa.uint64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
    agg = batch.select(["dst_h"]).group_by("dst_h").aggregate(
        [("dst_h", "count")]
    )
    return pa.table(
        {
            "dst_h": agg["dst_h"],
            "cnt": agg["dst_h_count"].cast(pa.int64()),
        }
    )


def _assort_moments(
    batch: pa.Table, keys: np.ndarray, indeg: np.ndarray
) -> tuple:
    """one edge block's exact integer moment partials over (x, y) =
    (outdeg(src), indeg(dst)) per edge: (m, Σx, Σy, Σxy, Σx², Σy²) as
    Python ints (per-element products fit int64 for degrees < 2³¹;
    cross-block accumulation is unbounded-int)."""
    if not batch.num_rows:
        return 0, 0, 0, 0, 0, 0
    x = batch["outdeg"].to_numpy(zero_copy_only=False)
    y = indeg[
        np.searchsorted(
            keys, batch["dst_h"].to_numpy(zero_copy_only=False)
        )
    ]
    return (
        len(x),
        int(x.sum()),
        int(y.sum()),
        int((x * y).sum()),
        int((x * x).sum()),
        int((y * y).sum()),
    )


def _assort_finish(mom: tuple) -> pa.Table:
    """exact integer moments → the one-row public table; the Pearson
    value is the single fixed-parenthesization IEEE expression
    ``num / sqrt(dx·dy)`` over exact-int inputs (the bit-equal-floats
    convention of `crawl_detection_confidence`), 0.0 on degenerate
    variance."""
    import math

    m, sx, sy, sxy, sxx, syy = (int(v) for v in mom)
    num = m * sxy - sx * sy
    dx = m * sxx - sx * sx
    dy = m * syy - sy * sy
    r = (
        float(num) / math.sqrt(float(dx) * float(dy))
        if dx > 0 and dy > 0
        else 0.0
    )
    return pa.table(
        {
            "m": pa.array([m], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sy": pa.array([sy], pa.int64()),
            "sxy": pa.array([sxy], pa.int64()),
            "sxx": pa.array([sxx], pa.int64()),
            "syy": pa.array([syy], pa.int64()),
            "assortativity": pa.array([r], pa.float64()),
        }
    )


def assortativity_hosts(
    edges, driver_max_edges: int = 5_000_000
) -> pa.Table:
    """distinct host edges → one row (m, sx, sy, sxy, sxx, syy,
    assortativity): out-in DEGREE ASSORTATIVITY (Newman, PRL 2002) —
    the Pearson correlation of (outdeg(src), indeg(dst)) over the
    directed edges.  The web graph is famously DISassortative
    (hubs link to low-degree hosts, r < 0); a crawl operator tracks it
    per snapshot as a structural drift / link-farm indicator (farms
    are assortative cliques).

    Everything that can disagree across partitionings is exact int:
    the six moment sums are per-block int64 partials accumulated as
    unbounded Python ints; only the final Pearson is one
    fixed-parenthesization IEEE expression, so the oracle matches
    bit-for-bit.  Scale: in-degrees are per-block Arrow count
    partials merged to a (keys, counts) broadcast — the PageRank
    broadcast-tier boundary (~10⁸ hosts); moment tasks then stream
    the edge blocks once."""
    import ray

    edges = edges.materialize()
    n_edges = edges.count()
    blocks_refs = list(edges.to_arrow_refs())
    if n_edges <= driver_max_edges:
        blocks = [t for t in ray.get(blocks_refs) if t.num_rows]
        if not blocks:
            return _assort_finish((0, 0, 0, 0, 0, 0))
        cat = pa.concat_tables(blocks)
        part = _indeg_partial(cat)
        keys = part["dst_h"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys)
        keys = keys[order]
        indeg = part["cnt"].to_numpy(zero_copy_only=False)[order]
        return _assort_finish(_assort_moments(cat, keys, indeg))
    ind_t = ray.remote(num_cpus=1)(_indeg_partial)
    mom_t = ray.remote(num_cpus=1)(_assort_moments)
    parts = [
        t
        for t in ray.get([ind_t.remote(b) for b in blocks_refs])
        if t.num_rows
    ]
    if not parts:
        return _assort_finish((0, 0, 0, 0, 0, 0))
    cat = pa.concat_tables(parts)
    agg = cat.group_by("dst_h").aggregate([("cnt", "sum")])
    keys = agg["dst_h"].to_numpy(zero_copy_only=False)
    order = np.argsort(keys)
    keys = keys[order]
    indeg = agg["cnt_sum"].to_numpy(zero_copy_only=False)[order]
    k_ref, i_ref = ray.put(keys), ray.put(indeg)
    moms = ray.get(
        [mom_t.remote(b, k_ref, i_ref) for b in blocks_refs]
    )
    tot = tuple(sum(int(m[i]) for m in moms) for i in range(6))
    return _assort_finish(tot)


# ---------------------------------------------------------------------------
# OPIC — On-line Page Importance Computation (crawler-native ranking)
# ---------------------------------------------------------------------------


def opic_hosts(
    edges,
    iters: int = 5,
    scale: int = 1_000_000,
    driver_max_edges: int = 5_000_000,
) -> pa.Table:
    """distinct host edges → (host, hist_micros, cash_micros,
    opic_micros): OPIC, On-line Page Importance Computation
    (Abiteboul, Preda & Cobéna, WWW 2003) — THE crawler-native
    importance estimate (Apache Nutch's default scoring): every host
    starts with equal CASH; each synchronous round a host's cash is
    split over its out-links (``cash // outdeg`` per edge, the same
    integer share as the PageRank kernel), dangling hosts bank their
    cash with the paper's VIRTUAL page which redistributes it
    uniformly (``virtual // n`` each), and HISTORY accumulates the
    cash each host has held.  Importance = history + current cash —
    unlike PageRank it needs no damping and is computable on-line
    while the crawl runs, which is why frontier schedulers use it.

    Deterministic integer variant: all sums are int64 and order-free
    (integer-division dust from the per-edge and virtual splits is
    dropped, both sides identically), so the DuckDB oracle unrolls the
    identical ``iters`` rounds — cash, dangling sum, and history CTEs
    — and matches bit-for-bit.  A vertex program (message
    ``cash[src] // outdeg``, summed); the virtual-page sum is a global
    reduction, so OPIC runs on the engine's two driver-resident tiers
    (forced-path test): ≤ ``driver_max_edges`` driver-local; above it
    the broadcast loop — the (keys, cash, hist) vectors are the
    module's declared vertex-state boundary."""

    def init(v: vp.Verts, totals) -> dict:
        n = len(v.keys)
        return {"cash": np.full(n, scale, np.int64),
                "hist": np.zeros(n, np.int64),
                "dangling": v.outdeg == 0}

    def apply(s: dict, inflow: np.ndarray, t: int) -> dict:
        virtual = int(s["cash"][s["dangling"]].sum())
        return {"cash": inflow + virtual // max(len(inflow), 1),
                "hist": s["hist"] + s["cash"],
                "dangling": s["dangling"]}

    def output(hosts: pa.Array, s: dict) -> pa.Table:
        return pa.table(
            {
                "host": hosts,
                "hist_micros": pa.array(s["hist"], pa.int64()),
                "cash_micros": pa.array(s["cash"], pa.int64()),
                "opic_micros": pa.array(s["hist"] + s["cash"], pa.int64()),
            }
        )

    prog = vp.VertexProgram(
        init=init,
        steps=(vp.Step("cash", lambda c, deg: c // deg, np.add, apply),),
        rounds=iters,
        output=output,
    )
    return vp.run(edges, prog, driver_max_edges)[0]


# ---------------------------------------------------------------------------
# SALSA (closed form), modularity, bowtie
# ---------------------------------------------------------------------------

def salsa_hosts(edges, num_buckets: int = 64) -> pa.Table:
    """distinct host edges → (host, side, degree, comp_size,
    score_micros): SALSA hub/authority scores (Lempel & Moran, ACM
    TOIT 2001 — the Stochastic Approach for Link-Structure Analysis,
    the link-analysis ranker TREC/social-graph recommenders use in
    place of HITS because it resists tightly-knit-community spam).

    Uses the paper's CLOSED FORM instead of power iteration: within a
    connected component C of the bipartite support graph (hub node
    ``h:x`` per distinct out-linking host, authority node ``a:y`` per
    distinct in-linked host, one undirected edge per directed link),
    the authority chain's stationary weight of ``a`` is
    ``indeg(a) / Σ_{a'∈C} indeg(a')``, and components are weighted by
    their share of authority nodes — so

        auth_score(a)  = |C∩A| · indeg(a)  · 1e6 // (|A| · Σ_{C∩A} indeg)
        hub_score(h)   = |C∩H| · outdeg(h) · 1e6 // (|H| · Σ_{C∩H} outdeg)

    All-integer (one floor division, positive operands — Python and
    DuckDB agree), so the oracle recomputes the identical closed form
    from a recursive min-label CTE over the same bipartite edges.

    Scale shape: SALSA = connected components + degree sums — the
    bipartite CC rides ``connected_components``'s spanning-forest
    sparsification (corpus-sized edges touched once; the distributed
    labeler past ``driver_label_max``), degrees ride the
    ``host_degrees`` combiner pass; the per-component reduction and
    final assembly are vertex-sized — the module's declared boundary
    (same as `connected_components`).  The reference has no graph
    kernels; this extends the engine's centrality family beside
    HITS/PageRank (SURVEY §2 extensions)."""
    import ray

    edges = edges.materialize()  # consumed twice: bipartite CC + degrees

    def bip(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "src": pa.array([], pa.string()),
                    "dst": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "src": pc.binary_join_element_wise(
                    "h:", batch["src"].cast(pa.string()), ""
                ),
                "dst": pc.binary_join_element_wise(
                    "a:", batch["dst"].cast(pa.string()), ""
                ),
            }
        )

    comp = connected_components(edges.map_batches(bip, batch_format="pyarrow"))
    deg_blocks = [
        t
        for t in ray.get(host_degrees(edges, num_buckets).to_arrow_refs())
        if t.num_rows
    ]
    if not deg_blocks or not comp.num_rows:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "side": pa.array([], pa.string()),
                "degree": pa.array([], pa.int64()),
                "comp_size": pa.array([], pa.int64()),
                "score_micros": pa.array([], pa.int64()),
            }
        )
    deg = pa.concat_tables(deg_blocks)
    dhosts = np.asarray(deg["host"].to_pylist())
    dsort = np.argsort(dhosts)
    dhosts = dhosts[dsort]
    outdeg = deg["out_degree"].to_numpy(zero_copy_only=False)[dsort]
    indeg = deg["in_degree"].to_numpy(zero_copy_only=False)[dsort]

    nodes = np.asarray(comp["host"].to_pylist())
    labels = np.asarray(comp["component"].to_pylist())
    out_parts = []
    for prefix, side, dvec in (("h:", "hub", outdeg), ("a:", "auth", indeg)):
        mask = np.char.startswith(nodes, prefix)
        side_hosts = np.asarray([s[2:] for s in nodes[mask]])
        side_labels = labels[mask]
        d = dvec[np.searchsorted(dhosts, side_hosts)]
        # per-component size + degree sum (component-count-sized)
        uniq, inv = np.unique(side_labels, return_inverse=True)
        csize = np.bincount(inv).astype(np.int64)
        csum = np.zeros(len(uniq), np.int64)
        np.add.at(csum, inv, d)
        tot = np.int64(len(side_hosts))
        score = (csize[inv] * d * 1_000_000) // (tot * csum[inv])
        out_parts.append(
            pa.table(
                {
                    "host": pa.array(side_hosts, pa.string()),
                    "side": pa.array([side] * len(side_hosts), pa.string()),
                    "degree": pa.array(d, pa.int64()),
                    "comp_size": pa.array(csize[inv], pa.int64()),
                    "score_micros": pa.array(score, pa.int64()),
                }
            )
        )
    return pa.concat_tables(out_parts)


def community_modularity(
    edges, iters: int = 4, num_buckets: int = 64
) -> pa.Table:
    """distinct host edges → (community, n_hosts, m_in, d_sum,
    q_micros): Newman-Girvan modularity decomposition of the LPA
    partition (`lpa_communities`) over the undirected distinct host
    graph — the partition-quality score a curator reads before using
    communities for sampling quotas (Q near 0 = the partition is no
    better than random; ~0.3+ = real community structure).

        Q = Σ_c [ m_in(c)/m  −  (d_sum(c) / 2m)² ]

    per-community, all-integer with the repo convention (micros, one
    floor division per term, positive operands — Python and DuckDB
    agree):  ``q_micros = m_in·1e6 // m  −  d_sum²·1e6 // (4m²)``,
    where m = undirected distinct edge count, m_in(c) = edges with
    both endpoints labeled c, d_sum(c) = Σ degrees of c's hosts
    (endpoint incidences).  The oracle unrolls the identical LPA
    recurrence (the `crawl_host_communities` CTEs) and recomputes the
    same integer terms, so the match is bit-exact.

    Scale shape: labels come from `lpa_communities` (its three
    declared tiers); the edge tagging is ONE pass over the
    undirected-distinct blocks with the (sorted hosts, label codes)
    pair broadcast via ``ray.put`` — the PageRank broadcast-loop
    boundary — and per-block COMMUNITY-COUNT-sized partials
    tree-merged driver-side; the final per-community arithmetic runs
    on Python ints (exact at any m)."""
    import ray

    labels = lpa_communities(edges, iters=iters, num_buckets=num_buckets)
    if not labels.num_rows:
        return pa.table(
            {
                "community": pa.array([], pa.string()),
                "n_hosts": pa.array([], pa.int64()),
                "m_in": pa.array([], pa.int64()),
                "d_sum": pa.array([], pa.int64()),
                "q_micros": pa.array([], pa.int64()),
            }
        )
    und, und_refs, n_und = _und_distinct(edges, num_buckets)
    hosts = np.asarray(labels["host"].to_pylist())
    comm = np.asarray(labels["community"].to_pylist())
    order = np.argsort(hosts)
    hosts_s = hosts[order]
    uniq, codes_s = np.unique(comm[order], return_inverse=True)
    state_ref = ray.put((hosts_s, codes_s.astype(np.int64), len(uniq)))

    @ray.remote(num_cpus=1)
    def part(block: pa.Table) -> tuple:
        hs, codes, k = ray.get(state_ref)
        if not block.num_rows:
            return (np.zeros(k, np.int64), np.zeros(k, np.int64), 0)
        lo = np.asarray(block["lo"].to_pylist())
        hi = np.asarray(block["hi"].to_pylist())
        ca = codes[np.searchsorted(hs, lo)]
        cb = codes[np.searchsorted(hs, hi)]
        m_in = np.bincount(ca[ca == cb], minlength=k).astype(np.int64)
        d = (
            np.bincount(ca, minlength=k) + np.bincount(cb, minlength=k)
        ).astype(np.int64)
        return (m_in, d, block.num_rows)

    parts = ray.get([part.remote(b) for b in und_refs])
    k = len(uniq)
    m_in = np.zeros(k, np.int64)
    d_sum = np.zeros(k, np.int64)
    m = 0
    for mi, dd, nb in parts:
        m_in += mi
        d_sum += dd
        m += nb
    n_hosts = np.bincount(codes_s, minlength=k).astype(np.int64)
    if m == 0:
        q = [0] * k
    else:
        # Python ints: d_sum²·1e6 is exact at any scale
        q = [
            (int(mi) * 1_000_000) // m
            - (int(dd) * int(dd) * 1_000_000) // (4 * m * m)
            for mi, dd in zip(m_in, d_sum)
        ]
    return pa.table(
        {
            "community": pa.array(uniq, pa.string()),
            "n_hosts": pa.array(n_hosts, pa.int64()),
            "m_in": pa.array(m_in, pa.int64()),
            "d_sum": pa.array(d_sum, pa.int64()),
            "q_micros": pa.array(q, pa.int64()),
        }
    )


def host_bowtie(edges, max_hops: int = 8, num_buckets: int = 64) -> pa.Table:
    """distinct host edges → (host, fw_dist, bw_dist, region): the
    Broder et al. (WWW9 2000) BOWTIE decomposition of the directed
    host graph around a deterministic pivot — the macro-structure map
    (SCC core / IN / OUT) a crawl planner reads to know how much of
    the web its seeds can reach and from where it can be reached.

    Pivot = the host maximizing in_degree + out_degree, ties → the
    lexicographically smallest host (SQL-reproducible: ``ORDER BY
    deg DESC, host LIMIT 1``).  Two capped multi-source BFS runs
    (`bfs_hosts`, ``max_hops`` synchronous min-relaxation rounds):
    forward on the edges, backward on the swapped edges.  Regions —
    CORE = fw- AND bw-reachable within the cap (the pivot's radius-
    capped SCC), IN = bw-only (reaches the core), OUT = fw-only
    (reached from the core), OTHER = neither (tendrils + tubes +
    disconnected).  Unreached distances carry the ``max_hops+1``
    sentinel (9), never NULL — all integers, so the oracle unrolls the
    identical two BFS recurrences plus the same pivot pick and
    matches bit-for-bit.

    Scale shape: degrees ride the `host_degrees` combiner pass (the
    pivot argmax is per-block top-1 partials — O(blocks) driver rows);
    each BFS has `bfs_hosts`' three tiers; the final region CASE is a
    vertex-sized assembly, the module's declared boundary."""
    import ray

    edges = edges.materialize()
    deg_parts = []
    for t in ray.get(host_degrees(edges, num_buckets).to_arrow_refs()):
        if not t.num_rows:
            continue
        tot = pc.add(t["out_degree"], t["in_degree"])
        # per-block top-1 partial: max tot, tie → min host
        tt = tot.to_numpy(zero_copy_only=False)
        hs = np.asarray(t["host"].to_pylist())
        best = np.lexsort((hs, -tt))[0]
        deg_parts.append((int(tt[best]), str(hs[best])))
    if not deg_parts:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "fw_dist": pa.array([], pa.int64()),
                "bw_dist": pa.array([], pa.int64()),
                "region": pa.array([], pa.string()),
            }
        )
    pivot = min(deg_parts, key=lambda p: (-p[0], p[1]))[1]

    def swap(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch["dst"],
                "dst": batch["src"],
                "src_h": batch["dst_h"],
                "dst_h": batch["src_h"],
                "outdeg": batch["outdeg"],
            }
        )

    fw = bfs_hosts(edges, [pivot], max_hops=max_hops)
    bw = bfs_hosts(
        edges.map_batches(swap, batch_format="pyarrow"),
        [pivot],
        max_hops=max_hops,
    )
    inf = max_hops + 1
    verts, _ = _collect_verts(edges)
    verts_np = np.asarray(sorted(verts))
    fw_d = np.full(len(verts_np), inf, np.int64)
    bw_d = np.full(len(verts_np), inf, np.int64)
    for tbl, vec in ((fw, fw_d), (bw, bw_d)):
        if tbl.num_rows:
            idx = np.searchsorted(
                verts_np, np.asarray(tbl["host"].to_pylist())
            )
            vec[idx] = tbl["dist"].to_numpy(zero_copy_only=False)
    fr = fw_d <= max_hops
    br = bw_d <= max_hops
    region = np.where(
        fr & br, "CORE", np.where(br, "IN", np.where(fr, "OUT", "OTHER"))
    )
    return pa.table(
        {
            "host": pa.array(verts_np, pa.string()),
            "fw_dist": pa.array(fw_d, pa.int64()),
            "bw_dist": pa.array(bw_d, pa.int64()),
            "region": pa.array(region, pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# Sampled betweenness centrality (Brandes)
# ---------------------------------------------------------------------------

def _betweenness_local(
    et: pa.Table, src_list: list, max_hops: int
) -> dict:
    """One Brandes accumulation per source over an Arrow edge table —
    the integer-quantized recurrence (see `betweenness_hosts`), numpy
    per level.  Returns {host: bc_micros}."""
    hh = np.concatenate(
        [
            et["src_h"].to_numpy(zero_copy_only=False),
            et["dst_h"].to_numpy(zero_copy_only=False),
        ]
    ).astype(np.uint64, copy=False)
    names = et["src"].to_pylist() + et["dst"].to_pylist()
    keys, first = np.unique(hh, return_index=True)
    hosts = [names[i] for i in first]
    idx_of = {h: i for i, h in enumerate(hosts)}
    n = len(keys)
    bc = np.zeros(n, dtype=object)  # Python ints — no overflow
    if not et.num_rows:
        return {}
    src_idx = np.searchsorted(keys, et["src_h"].to_numpy(zero_copy_only=False))
    dst_idx = np.searchsorted(keys, et["dst_h"].to_numpy(zero_copy_only=False))
    inf = max_hops + 1
    for s in src_list:
        if s not in idx_of:
            continue
        si = idx_of[s]
        dist = np.full(n, inf, np.int64)
        dist[si] = 0
        for _ in range(max_hops):
            c = np.minimum(dist[src_idx] + 1, inf)
            nxt = dist.copy()
            np.minimum.at(nxt, dst_idx, c)
            if np.array_equal(nxt, dist):
                break
            dist = nxt
        sigma = np.zeros(n, np.int64)
        sigma[si] = 1
        for t in range(1, max_hops + 1):
            on = (dist[src_idx] == t - 1) & (dist[dst_idx] == t)
            if not on.any():
                continue
            add = np.zeros(n, np.int64)
            np.add.at(add, dst_idx[on], sigma[src_idx[on]])
            sigma = sigma + add
        delta = np.zeros(n, dtype=object)
        for t in range(max_hops - 1, -1, -1):
            on = (dist[src_idx] == t) & (dist[dst_idx] == t + 1)
            if not on.any():
                continue
            sv = sigma[src_idx[on]].astype(object)
            sw = sigma[dst_idx[on]].astype(object)
            dw = delta[dst_idx[on]]
            terms = (sv * (1_000_000 + dw)) // sw
            upd = np.zeros(n, dtype=object)
            np.add.at(upd, src_idx[on], terms)
            delta = delta + upd
        delta[si] = 0  # the source takes no credit for its own paths
        bc = bc + delta
    return {
        h: int(bc[i]) for i, h in enumerate(hosts) if int(bc[i]) != 0
    }


def betweenness_hosts(
    edges,
    n_sources: int = 4,
    max_hops: int = 8,
    num_buckets: int = 64,
    driver_max_edges: int = 5_000_000,
) -> pa.Table:
    """distinct host edges → (host, bc_micros): SAMPLED BETWEENNESS
    centrality (Brandes 2001 via the pivot sampling of Bader et al. /
    Brandes-Pich 2007) — the bridge/chokepoint signal a crawl planner
    reads to find hosts whose removal disconnects discovery paths
    (link hubs that are NOT high-degree).

    Sources = the ``n_sources`` highest in+out-degree hosts (ties →
    smallest host; SQL-reproducible pick).  Per source: capped-BFS
    levels (``max_hops`` rounds, the `bfs_hosts` recurrence), forward
    path counts σ by level (integer sums), then the backward
    dependency accumulation INTEGER-QUANTIZED per edge —

        δ(v) += (σ(v) · (10⁶ + δ(w))) // σ(w)   for v→w one level down

    — each edge term one floor division of nonneg ints (Python and
    DuckDB agree), summed order-free, so the oracle unrolls the
    identical per-level recurrences (dist, σ, δ per source) and
    matches bit-for-bit; bc_micros = Σ_sources δ (exact Python-int
    accumulation; source excluded from its own credit).  Hosts with
    zero betweenness are dropped (leaf-heavy output stays small).

    Scale shape: degrees ride the `host_degrees` combiner (per-block
    top-k partials pick the sources driver-side); the per-source
    passes run driver-local under ``driver_max_edges``, and above it
    each σ/δ round is the `bfs_hosts` broadcast-contrib shape (per-
    block segment sums by dst/src with the level vectors ``ray.put``
    — the module's declared vertex-state mid-tier; the fully sharded
    extension follows the vertexprog sharded tier's layout)."""
    import ray

    edges = edges.materialize()
    deg_parts = []
    for t in ray.get(host_degrees(edges, num_buckets).to_arrow_refs()):
        if not t.num_rows:
            continue
        tot = pc.add(t["out_degree"], t["in_degree"]).to_numpy(
            zero_copy_only=False
        )
        hs = np.asarray(t["host"].to_pylist())
        take = np.lexsort((hs, -tot))[:n_sources]
        deg_parts.extend(
            (int(tot[i]), str(hs[i])) for i in take
        )
    if not deg_parts:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "bc_micros": pa.array([], pa.int64()),
            }
        )
    deg_parts.sort(key=lambda p: (-p[0], p[1]))
    sources = [h for _, h in deg_parts[:n_sources]]

    n_edges = edges.count()
    if n_edges > driver_max_edges:
        # broadcast mid-tier: same recurrences, per-block remote
        # segment-sum contribs per level (the bfs_hosts loop shape)
        return _betweenness_broadcast(edges, sources, max_hops)
    blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
    if not blocks:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "bc_micros": pa.array([], pa.int64()),
            }
        )
    bc = _betweenness_local(pa.concat_tables(blocks), sources, max_hops)
    hs = sorted(bc)
    return pa.table(
        {
            "host": pa.array(hs, pa.string()),
            "bc_micros": pa.array([bc[h] for h in hs], pa.int64()),
        }
    )


def _betweenness_broadcast(edges, sources, max_hops: int) -> pa.Table:
    """Mid-tier: vertex-sized (dist, σ, δ) vectors broadcast per
    level, per-block contrib tasks — bit-identical recurrences to
    `_betweenness_local` (integer ops, order-free sums)."""
    import ray

    hosts, keys = _collect_verts(edges)
    idx_of = {h: i for i, h in enumerate(hosts)}
    n = len(keys)
    edge_block_refs = list(edges.to_arrow_refs())
    inf = max_hops + 1
    bc = np.zeros(n, dtype=object)

    @ray.remote(num_cpus=1)
    def dist_contrib(block, k, d):
        if not block.num_rows:
            return None
        sh = block["src_h"].to_numpy(zero_copy_only=False)
        dh = block["dst_h"].to_numpy(zero_copy_only=False)
        c = np.minimum(d[np.searchsorted(k, sh)] + 1, inf)
        di = np.searchsorted(k, dh)
        out = np.full(len(k), inf, np.int64)
        np.minimum.at(out, di, c)
        return out

    @ray.remote(num_cpus=1)
    def sigma_contrib(block, k, d, sg, t):
        if not block.num_rows:
            return None
        si = np.searchsorted(k, block["src_h"].to_numpy(zero_copy_only=False))
        di = np.searchsorted(k, block["dst_h"].to_numpy(zero_copy_only=False))
        on = (d[si] == t - 1) & (d[di] == t)
        if not on.any():
            return None
        add = np.zeros(len(k), np.int64)
        np.add.at(add, di[on], sg[si[on]])
        return add

    @ray.remote(num_cpus=1)
    def delta_contrib(block, k, d, sg, dl, t):
        if not block.num_rows:
            return None
        si = np.searchsorted(k, block["src_h"].to_numpy(zero_copy_only=False))
        di = np.searchsorted(k, block["dst_h"].to_numpy(zero_copy_only=False))
        on = (d[si] == t) & (d[di] == t + 1)
        if not on.any():
            return None
        sv = sg[si[on]].astype(object)
        sw = sg[di[on]].astype(object)
        dw = dl[di[on]]
        terms = (sv * (1_000_000 + dw)) // sw
        upd = np.zeros(len(k), dtype=object)
        np.add.at(upd, si[on], terms)
        return upd

    k_ref = ray.put(keys)
    for s in sources:
        if s not in idx_of:
            continue
        si = idx_of[s]
        dist = np.full(n, inf, np.int64)
        dist[si] = 0
        for _ in range(max_hops):
            d_ref = ray.put(dist)
            parts = [
                p
                for p in ray.get(
                    [dist_contrib.remote(b, k_ref, d_ref) for b in edge_block_refs]
                )
                if p is not None
            ]
            nxt = dist.copy()
            for p in parts:
                np.minimum(nxt, p, out=nxt)
            if np.array_equal(nxt, dist):
                break
            dist = nxt
        sigma = np.zeros(n, np.int64)
        sigma[si] = 1
        d_ref = ray.put(dist)
        for t in range(1, max_hops + 1):
            s_ref = ray.put(sigma)
            parts = [
                p
                for p in ray.get(
                    [
                        sigma_contrib.remote(b, k_ref, d_ref, s_ref, t)
                        for b in edge_block_refs
                    ]
                )
                if p is not None
            ]
            for p in parts:
                sigma = sigma + p
        delta = np.zeros(n, dtype=object)
        s_ref = ray.put(sigma)
        for t in range(max_hops - 1, -1, -1):
            dl_ref = ray.put(delta)
            parts = [
                p
                for p in ray.get(
                    [
                        delta_contrib.remote(
                            b, k_ref, d_ref, s_ref, dl_ref, t
                        )
                        for b in edge_block_refs
                    ]
                )
                if p is not None
            ]
            for p in parts:
                delta = delta + p
        delta[si] = 0
        bc = bc + delta
    keep = [i for i in range(n) if int(bc[i]) != 0]
    return pa.table(
        {
            "host": pa.array([hosts[i] for i in keep], pa.string()),
            "bc_micros": pa.array([int(bc[i]) for i in keep], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Katz centrality (truncated, integer fixed-point)
# ---------------------------------------------------------------------------

def katz_hosts(
    edges,
    iters: int = 4,
    alpha_ppm: int = 200_000,
    scale: int = 1_000_000,
    driver_max_edges: int = 5_000_000,
):
    """distinct host edges → (host, katz_micros): TRUNCATED Katz
    centrality (Katz 1953; the α-attenuated path count
    Σ_{k≤iters} α^k·|paths of length k into v|) as integer fixed-point:
    ``katz₀ = 0``, ``katz_t(v) = α_ppm · Σ_{u→v}(scale + katz_{t-1}(u))
    // 1e6`` — all-int, exact under any summation order, so the DuckDB
    oracle unrolls the same iterations bit-for-bit.  α = 0.2 is far
    under 1/λ_max for host graphs at these densities, and truncation
    makes the value well-defined regardless.  The recurrence is kept in
    int64: an in-sum above ``(2**63-1) // alpha_ppm`` (where the DuckDB
    oracle would promote to HUGEINT) raises ``OverflowError`` instead
    of wrapping.

    A vertex program on the engine's two driver-resident tiers
    (forced-path pinned): ≤ ``driver_max_edges`` driver-local; above
    it the broadcast loop — per-block partial sums over the
    once-materialized edge blocks, the vertex-sized katz vector
    broadcast per step (the module's declared vertex-state
    boundary)."""
    bound = (2**63 - 1) // max(alpha_ppm, 1)

    def apply(s: dict, raw: np.ndarray, t: int) -> dict:
        # all messages are ≥ 0, so a negative sum is a wrapped one
        if len(raw) and (raw.min() < 0 or raw.max() > bound):
            raise OverflowError(
                f"truncated Katz iteration {t}: an in-sum exceeds "
                f"(2**63-1) // alpha_ppm = {bound}, so alpha_ppm * sum "
                "would overflow int64"
            )
        return {"katz": alpha_ppm * raw // 1_000_000}

    prog = vp.VertexProgram(
        init=lambda v, totals: {"katz": np.zeros(len(v.keys), np.int64)},
        steps=(vp.Step("katz", lambda k, deg: k + scale, np.add, apply),),
        rounds=iters,
        output=lambda hosts, s: pa.table(
            {"host": hosts, "katz_micros": pa.array(s["katz"], pa.int64())}
        ),
    )
    return vp.run(edges, prog, driver_max_edges)[0]
