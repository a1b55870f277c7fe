"""Differential fuzz for the distributed graph + segment-dedup
operators: random small inputs, brute-force single-process references
(BFS components, dense-numpy PageRank, dict-based segment dedup) —
the distributed orchestration (bucketing, spanning-forest merges,
broadcast vertex state, drop-key anti-filter) must match them exactly
(all-integer semantics ⇒ zero tolerance)."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

_HOSTS = [f"h{i}.com" for i in range(12)]

# graph-kernel tiers: keyword arguments that force each one.  Every
# graph has far fewer hosts than the sharded tier's 32 shards, so most
# shards are empty there.
_TIERS = {
    "local": {},
    "broadcast": {"driver_max_edges": 0},
    "sharded": {"driver_max_edges": 0, "shard_min_edges": 0},
}


@st.composite
def _graph_pages(draw):
    # a small host pool makes one-edge and two-host graphs common
    pool = _HOSTS[: draw(st.integers(2, len(_HOSTS)))]
    n = draw(st.integers(1, 10))
    rows = []
    for _ in range(n):
        src = draw(st.sampled_from(pool))
        links = [
            f"https://{draw(st.sampled_from(pool))}/p{draw(st.integers(0, 3))}"
            for _ in range(draw(st.integers(0, 5)))
        ]
        rows.append((src, links))
    return rows


def _edges_ref(rows):
    """brute-force distinct directed host edges, self-loops dropped."""
    es = set()
    for src, links in rows:
        for u in links:
            dst = u.split("://")[1].split("/")[0].lower()
            if dst and dst != src:
                es.add((src, dst))
    return es


@settings(max_examples=15, deadline=None)
@given(_graph_pages())
def test_components_match_bfs(ray_session, rows):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        connected_components,
        host_edges,
    )

    es = _edges_ref(rows)
    if not es:
        return
    # brute-force undirected BFS labeling, min-host label
    adj: dict = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for start in adj:
        if start in want:
            continue
        comp, queue = {start}, [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        lab = min(comp)
        for h in comp:
            want[h] = lab

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = connected_components(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4)
    ).to_pydict()
    assert dict(zip(got["host"], got["component"])) == want


@settings(max_examples=10, deadline=None)
@given(_graph_pages(), st.integers(1, 3), st.sampled_from(sorted(_TIERS)))
def test_pagerank_matches_dense_reference(ray_session, rows, iters, tier):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, pagerank_hosts

    es = sorted(_edges_ref(rows))
    if not es:
        return
    hosts = sorted({a for a, _ in es} | {b for _, b in es})
    outdeg = {h: 0 for h in hosts}
    for a, _ in es:
        outdeg[a] += 1
    rank = {h: 1_000_000 for h in hosts}
    for _ in range(iters):
        inbound = {h: 0 for h in hosts}
        for a, b in es:
            inbound[b] += rank[a] // outdeg[a]
        rank = {h: 150_000 + (85 * inbound[h]) // 100 for h in hosts}

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = pagerank_hosts(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        iters=iters,
        **_TIERS[tier],
    ).to_pydict()
    assert dict(zip(got["host"], got["rank_micros"])) == rank


_WORDS = ["aa", "bb", "cc", "dd", "ee"]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=0, max_size=12),
        min_size=1,
        max_size=8,
    ),
    st.integers(2, 4),
)
def test_segment_dedup_matches_reference(ray_session, docs, seg_words):
    import ray.data

    from crawler_ai_ray.stages.dedup import segment_dedup

    texts = [" ".join(ws) for ws in docs]
    # brute-force reference: first (doc_id, seg_idx) occurrence wins
    first: dict = {}
    segs_by_doc = []
    for i, t in enumerate(texts):
        words = t.split(" ")
        segs = [
            " ".join(words[s : s + seg_words])
            for s in range(0, len(words), seg_words)
        ]
        segs_by_doc.append(segs)
        for j, seg in enumerate(segs):
            first.setdefault(seg, (i, j))
    want = {}
    for i, segs in enumerate(segs_by_doc):
        kept = [s for j, s in enumerate(segs) if first[s] == (i, j)]
        want[i] = (
            " ".join(kept),
            len(segs),
            len(segs) - len(kept),
        )

    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = segment_dedup(
        ray.data.from_arrow(tbl), seg_words=seg_words, num_buckets=4
    ).to_pandas()
    assert len(got) == len(texts)
    for _, row in got.iterrows():
        assert (
            row["clean_text"],
            row["n_segments"],
            row["n_dropped"],
        ) == want[row["doc_id"]]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 6),
)
def test_pair_labels_match_naive_union_find(ray_session, raw_pairs, nblocks):
    """Forest-sparsified pair_labels ≡ brute-force union-find over the
    full pair list, for any pair set and any block split."""
    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.dedup import pair_labels

    pairs = [(a, b) for a, b in raw_pairs if a != b]
    if not pairs:
        return
    # brute force: min id per connected component
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {x: find(x) for x in parent}

    tbls = []
    for i in range(nblocks):
        chunk = pairs[i::nblocks]
        tbls.append(
            pa.table(
                {
                    "doc_a": pa.array([a for a, _ in chunk], pa.int64()),
                    "doc_b": pa.array([b for _, b in chunk], pa.int64()),
                    "est_jaccard": pa.array(
                        [1.0] * len(chunk), pa.float64()
                    ),
                }
            )
        )
    ds = ray.data.from_arrow(tbls)
    lk, lv = pair_labels(ds)
    got = dict(zip(lk.tolist(), lv.tolist()))
    assert got == want


# ---------------------------------------------------------------------------
# dup-span removal vs brute-force string reference
# ---------------------------------------------------------------------------

_WORDS = ["alpha", "Beta", "GAMMA", "delta", "ep", "zeta", "eta"]


@st.composite
def _span_docs(draw):
    n = draw(st.integers(1, 6))
    return [
        " ".join(
            draw(st.sampled_from(_WORDS))
            for _ in range(draw(st.integers(0, 14)))
        )
        for _ in range(n)
    ]


def _removal_ref(texts, n=3, min_df=2):
    """brute-force: string n-gram DF, interval union, rebuild."""
    grams = {}
    toks = [t.split() for t in texts]
    for d, tk in enumerate(toks):
        for p in range(len(tk) - n + 1):
            grams.setdefault(
                " ".join(tk[p : p + n]).lower(), set()
            ).add(d)
    dup = {g for g, ds in grams.items() if len(ds) >= min_df}
    out = []
    for d, tk in enumerate(toks):
        cov = [False] * len(tk)
        for p in range(len(tk) - n + 1):
            if " ".join(tk[p : p + n]).lower() in dup:
                for j in range(p, p + n):
                    cov[j] = True
        out.append(
            (
                " ".join(w for w, c in zip(tk, cov) if not c),
                len(tk),
                sum(cov),
            )
        )
    return out


@settings(max_examples=15, deadline=None)
@given(_span_docs())
def test_dup_span_removal_matches_reference(ray_session, texts):
    import ray.data

    from crawler_ai_ray.stages.dedup import dup_span_removal

    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    got = (
        dup_span_removal(
            ray.data.from_arrow(docs).repartition(2), n=3, num_buckets=5
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    want = _removal_ref(texts, n=3)
    assert got.clean_text.tolist() == [w[0] for w in want]
    assert got.n_tokens.tolist() == [w[1] for w in want]
    assert got.n_removed.tolist() == [w[2] for w in want]


@st.composite
def _vec_table(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(2, 5))
    # tiny value grid → duplicate vectors and EXACT cosine ties, the
    # hard case for (-sim_micros, vec_id) tie-breaking
    vals = [
        [draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0])) for _ in range(d)]
        for _ in range(n)
    ]
    return vals


@settings(max_examples=15, deadline=None)
@given(_vec_table(), st.integers(1, 5))
def test_knn_graph_matches_naive_with_ties(ray_session, vals, k):
    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.simsearch import knn_graph

    mat = np.array(vals, dtype=np.float32)
    n = len(mat)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel()), mat.shape[1]
            ),
        }
    )
    got = (
        knn_graph(ray.data.from_arrow(tbl).repartition(3), k=k)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    m = mat.astype(np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    m = m / norms
    sims = np.rint((m @ m.T) * 1e6).astype(np.int64)
    kk = min(k, n - 1)
    for q in range(n):
        s = sims[q].copy()
        s[q] = -(2**62)
        want = np.lexsort((np.arange(n), -s))[:kk]
        sub = got[got.query_id == q]
        assert (sub.vec_id.to_numpy() == want).all()
        assert (sub.sim_micros.to_numpy() == s[want]).all()


@settings(max_examples=10, deadline=None)
@given(_graph_pages(), st.integers(1, 3), st.sampled_from(["local", "broadcast"]))
def test_hits_matches_dense_reference(ray_session, rows, iters, tier):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import hits_hosts, host_edges

    es = sorted(_edges_ref(rows))
    if not es:
        return
    hosts = sorted({a for a, _ in es} | {b for _, b in es})
    hub = {h: 1_000_000 for h in hosts}
    auth = {h: 1_000_000 for h in hosts}

    def half(vec, edges_by_out):
        raw = {h: 0 for h in hosts}
        for a, b in edges_by_out:
            raw[b] += vec[a]
        div = max(raw.values()) // 1_000_000 + 1
        return {h: raw[h] // div for h in hosts}

    rev = [(b, a) for a, b in es]
    for _ in range(iters):
        auth = half(hub, es)
        hub = half(auth, rev)

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = hits_hosts(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        iters=iters,
        **_TIERS[tier],
    ).to_pydict()
    assert dict(zip(got["host"], got["auth_micros"])) == auth
    assert dict(zip(got["host"], got["hub_micros"])) == hub


@st.composite
def _labeled_docs_tbl(draw):
    n = draw(st.integers(1, 12))
    texts = [
        " ".join(
            draw(st.sampled_from(_WORDS))
            for _ in range(draw(st.integers(0, 10)))
        )
        for _ in range(n)
    ]
    labels = [draw(st.booleans()) for _ in range(n)]
    return texts, labels


@settings(max_examples=10, deadline=None)
@given(_labeled_docs_tbl(), st.integers(1, 6))
def test_logreg_distributed_matches_sequential(ray_session, td, epochs):
    """Integer-exact GD: forced epoch fan-out ≡ sequential same-math
    run on arbitrary tiny corpora (incl. empty-text and single-class
    degenerate cases)."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import (
        logreg_train,
        logreg_train_tables,
    )

    texts, labels = td
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "y": pa.array(labels, pa.bool_()),
        }
    )
    seq = logreg_train_tables(
        [docs], epochs=epochs, target=True, label_col="y", num_feats=64
    ).to_pandas()
    dist = (
        logreg_train(
            ray.data.from_arrow(docs).repartition(3),
            epochs=epochs,
            target=True,
            label_col="y",
            num_feats=64,
            driver_max_docs=0,
        )
        .to_pandas()
        .sort_values("feat", ignore_index=True)
    )
    assert dist.equals(seq)


def _winnow_ref(texts, k=2, w=3):
    """brute-force winnowing: md5 k-gram hashes, window min with the
    rightmost-tie rule, dedup selected positions."""
    import hashlib

    out = []
    for d, t in enumerate(texts):
        toks = [m for m in __import__("re").findall(r"[a-z]+", t.lower())]
        p = len(toks) - k + 1
        if p < 1:
            continue
        digs = [
            hashlib.md5(" ".join(toks[i : i + k]).encode()).digest()
            for i in range(p)
        ]
        hs = [int.from_bytes(dg[8:], "little") for dg in digs]
        sel = set()
        nw = max(p - w + 1, 1)
        for j in range(nw):
            win = hs[j : j + w]
            best = min(range(len(win)), key=lambda x: (win[x], -x))
            sel.add(j + best)
        for i in sorted(sel):
            out.append((d, i + 1, digs[i].hex()))
    return out


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=0, max_size=12).map(
            " ".join
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 3),
    st.integers(1, 4),
)
def test_winnow_matches_reference(ray_session, texts, k, w):
    import ray.data

    from crawler_ai_ray.stages.textstats import winnow_fingerprints

    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    got = winnow_fingerprints(
        ray.data.from_arrow(docs).repartition(2), k=k, w=w
    ).to_pandas()
    want = _winnow_ref(texts, k=k, w=w)
    if len(got) == 0:  # empty Dataset → schemaless frame, nothing to sort
        assert want == []
        return
    got = got.sort_values(["doc_id", "pos"], ignore_index=True)
    assert list(zip(got.doc_id, got.pos, got.fp_md5)) == want


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=0, max_size=10).map(
            " ".join
        ),
        min_size=1,
        max_size=6,
    )
)
def test_hash_embed_matches_duckdb_fuzz(ray_session, texts):
    """Signed hashed projection: exact DuckDB parity on arbitrary tiny
    corpora (md5 bit signs, [a-z]+ tokenization, empty-doc domain)."""
    import duckdb
    import ray.data

    from crawler_ai_ray.stages.importance import hash_embed

    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    got = hash_embed(
        ray.data.from_arrow(docs).repartition(2), dim=6
    ).to_pandas()
    con = duckdb.connect()
    con.register("fuzz_docs", docs)
    want = con.sql(
        """
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '[a-z]+')) tok
          FROM fuzz_docs),
        comp AS (
          SELECT doc_id, j,
                 sum(CASE WHEN (md5_number_lower(tok) >> j) & 1 = 1
                          THEN 1 ELSE -1 END)::BIGINT AS v
          FROM toks CROSS JOIN
               (SELECT unnest(generate_series(0, 5)) AS j)
          GROUP BY 1, 2)
        SELECT doc_id, list(v ORDER BY j) AS embedding
        FROM comp GROUP BY 1 ORDER BY doc_id
        """
    ).df()
    if len(got) == 0:
        assert len(want) == 0
        return
    got = got.sort_values("doc_id", ignore_index=True)
    assert got.doc_id.tolist() == want.doc_id.tolist()
    assert [list(e) for e in got.embedding] == [
        list(e) for e in want.embedding
    ]


@settings(max_examples=12, deadline=None)
@given(_graph_pages(), st.booleans())
def test_triangles_match_bruteforce(ray_session, rows, force_dist):
    """Per-host triangle counts vs itertools brute force over the
    undirected edge set, both tiers."""
    import itertools

    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, host_triangles

    und = {tuple(sorted(e)) for e in _edges_ref(rows)}
    hosts = sorted({v for e in und for v in e})
    want = {}
    for a, b, c in itertools.combinations(hosts, 3):
        if (
            (a, b) in und
            and tuple(sorted((b, c))) in und
            and tuple(sorted((a, c))) in und
        ):
            for v in (a, b, c):
                want[v] = want.get(v, 0) + 1

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = host_triangles(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        num_buckets=4,
        driver_max_edges=0 if force_dist else 5_000_000,
    ).to_pandas()
    assert dict(zip(got.host, got.n_triangles)) == want


@settings(max_examples=12, deadline=None)
@given(_graph_pages(), st.integers(2, 3), st.booleans())
def test_kcore_matches_bruteforce_peel(ray_session, rows, k, force_dist):
    """Bounded k-core peel vs a dict-based sequential peel (8 rounds,
    fixpoint-stable on these sizes), both tiers."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, host_kcore

    und = {tuple(sorted(e)) for e in _edges_ref(rows)}
    alive = {v for e in und for v in e}
    for _ in range(8):
        deg = {}
        for a, b in und:
            if a in alive and b in alive:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
        nxt = {v for v in alive if deg.get(v, 0) >= k}
        if nxt == alive:
            break
        alive = nxt
    deg = {}
    for a, b in und:
        if a in alive and b in alive:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
    want = {v: d for v, d in deg.items() if d > 0}

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = host_kcore(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        k=k,
        num_buckets=4,
        driver_max_edges=0 if force_dist else 5_000_000,
    ).to_pandas()
    assert dict(zip(got.host, got.kcore_degree)) == want


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=60),
    st.integers(2, 5),
)
def test_cms_matches_sequential_sketch(ray_session, uids, probe_mod):
    """Count-Min partials summed over arbitrary partitionings equal the
    one-pass sequential sketch, and every estimate ≥ its true count."""
    import numpy as np
    import ray.data

    from crawler_ai_ray.pipelines.relational import _cms_slot_matrix

    # sequential sketch
    distinct, counts = np.unique(
        np.array(uids, dtype=np.int64), return_counts=True
    )
    cms = np.zeros((4, 1024), dtype=np.int64)
    slots = _cms_slot_matrix(distinct)
    for j in range(4):
        np.add.at(cms[j], slots[:, j], counts)

    # distributed-shaped: per-chunk partials summed
    cms2 = np.zeros((4, 1024), dtype=np.int64)
    for lo in range(0, len(uids), 7):
        chunk = np.array(uids[lo : lo + 7], dtype=np.int64)
        d2, c2 = np.unique(chunk, return_counts=True)
        s2 = _cms_slot_matrix(d2)
        for j in range(4):
            np.add.at(cms2[j], s2[:, j], c2)
    assert (cms == cms2).all()

    probes = np.array(
        sorted({u for u in uids if u % probe_mod == 0}), dtype=np.int64
    )
    if len(probes):
        ps = _cms_slot_matrix(probes)
        est = np.min(cms[np.arange(4)[None, :], ps], axis=1)
        true = {u: uids.count(u) for u in probes.tolist()}
        assert all(
            e >= true[u] for u, e in zip(probes.tolist(), est.tolist())
        )


@settings(max_examples=10, deadline=None)
@given(_graph_pages(), st.integers(1, 3), st.sampled_from(["local", "broadcast"]))
def test_opic_matches_dict_reference(ray_session, rows, iters, tier):
    """OPIC (cash exchange + virtual-page recycle + history) vs a
    sequential dict reference, on both of its tiers."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, opic_hosts

    es = sorted(_edges_ref(rows))
    if not es:
        return
    hosts = sorted({a for a, _ in es} | {b for _, b in es})
    outdeg = {}
    for a, _ in es:
        outdeg[a] = outdeg.get(a, 0) + 1
    n = len(hosts)
    cash = {h: 1_000_000 for h in hosts}
    hist = {h: 0 for h in hosts}
    for _ in range(iters):
        inflow = {h: 0 for h in hosts}
        for a, b in es:
            inflow[b] += cash[a] // outdeg[a]
        virtual = sum(cash[h] for h in hosts if h not in outdeg)
        for h in hosts:
            hist[h] += cash[h]
            cash[h] = inflow[h] + virtual // n

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = opic_hosts(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        iters=iters,
        **_TIERS[tier],
    ).to_pydict()
    assert dict(zip(got["host"], got["hist_micros"])) == hist
    assert dict(zip(got["host"], got["cash_micros"])) == cash


@settings(max_examples=10, deadline=None)
@given(_graph_pages(), st.integers(0, 11), st.sampled_from(sorted(_TIERS)))
def test_trustrank_matches_dict_reference(ray_session, rows, seed_i, tier):
    """TrustRank/spam-mass: trust equals the PPR dict recurrence,
    spam mass is the clamped division, out-of-graph seeds ignored."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, trustrank_hosts

    es = sorted(_edges_ref(rows))
    if not es:
        return
    hosts = sorted({a for a, _ in es} | {b for _, b in es})
    outdeg = {}
    for a, _ in es:
        outdeg[a] = outdeg.get(a, 0) + 1
    seeds = [_HOSTS[seed_i], "zz-out-of-graph.net"]
    sg = [h for h in hosts if h in seeds]
    n = len(hosts)

    def run(base):
        rank = {h: 1_000_000 for h in hosts}
        for _ in range(5):
            inbound = {h: 0 for h in hosts}
            for a, b in es:
                inbound[b] += rank[a] // outdeg[a]
            rank = {
                h: base[h] + (85 * inbound[h]) // 100 for h in hosts
            }
        return rank

    g = run({h: 150_000 for h in hosts})
    tb = {
        h: (150_000 * n) // max(len(sg), 1) if h in sg else 0
        for h in hosts
    }
    t = run(tb)
    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = trustrank_hosts(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        seeds,
        **_TIERS[tier],
    ).to_pydict()
    for i, h in enumerate(got["host"]):
        assert got["rank_micros"][i] == g[h]
        assert got["trust_micros"][i] == t[h]
        assert (
            got["spam_mass_micros"][i]
            == max(g[h] - t[h], 0) * 10**6 // g[h]
        )


@settings(max_examples=10, deadline=None)
@given(
    _graph_pages(),
    st.integers(0, 11),
    st.integers(1, 4),
    st.sampled_from(sorted(_TIERS)),
)
def test_bfs_matches_dict_reference(ray_session, rows, seed_i, max_hops, tier):
    """Multi-source BFS vs a breadth-first dict reference on every
    tier: unreached hosts (a non-seed host with no in-edges among
    them) and hosts past the hop cap are dropped, out-of-graph seeds
    ignored."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import bfs_hosts, host_edges

    es = sorted(_edges_ref(rows))
    if not es:
        return
    hosts = {a for a, _ in es} | {b for _, b in es}
    seeds = [_HOSTS[seed_i], "zz-out-of-graph.net"]
    want = {h: 0 for h in seeds if h in hosts}
    frontier = set(want)
    for d in range(1, max_hops + 1):
        frontier = {b for a, b in es if a in frontier and b not in want}
        want.update(dict.fromkeys(frontier, d))

    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    got = bfs_hosts(
        host_edges(ray.data.from_arrow(tbl), num_buckets=4),
        seeds,
        max_hops=max_hops,
        **_TIERS[tier],
    ).to_pydict()
    assert dict(zip(got["host"], got["dist"])) == want


@settings(max_examples=12, deadline=None)
@given(_graph_pages(), st.booleans())
def test_reciprocity_assortativity_match_reference(
    ray_session, rows, force
):
    import math

    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        assortativity_hosts,
        host_edges,
        reciprocity_hosts,
    )

    es = sorted(_edges_ref(rows))
    if not es:
        return
    tbl = pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "out_links": pa.array(
                [r[1] for r in rows], pa.list_(pa.string())
            ),
        }
    )
    edges = host_edges(ray.data.from_arrow(tbl), num_buckets=4)
    kw = {"driver_max_edges": 0} if force else {}
    r = reciprocity_hosts(edges, **kw).to_pydict()
    recip = sum((b, a) in set(es) for a, b in es)
    pairs = len({(min(a, b), max(a, b)) for a, b in es})
    assert r["edges"][0] == len(es)
    assert r["pairs"][0] == pairs
    assert r["reciprocal_edges"][0] == recip
    assert r["reciprocity_micros"][0] == recip * 10**6 // len(es)

    a_ = assortativity_hosts(edges, **kw).to_pydict()
    odeg, ideg = {}, {}
    for s, d in es:
        odeg[s] = odeg.get(s, 0) + 1
        ideg[d] = ideg.get(d, 0) + 1
    x = [odeg[s] for s, _ in es]
    y = [ideg[d] for _, d in es]
    m = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(p * q for p, q in zip(x, y))
    sxx, syy = sum(p * p for p in x), sum(q * q for q in y)
    assert [a_[c][0] for c in ["m", "sx", "sy", "sxy", "sxx", "syy"]] == [
        m, sx, sy, sxy, sxx, syy,
    ]
    dx, dy = m * sxx - sx * sx, m * syy - sy * sy
    want = (
        float(m * sxy - sx * sy) / math.sqrt(float(dx) * float(dy))
        if dx > 0 and dy > 0
        else 0.0
    )
    assert a_["assortativity"][0] == want
