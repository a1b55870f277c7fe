"""Host-graph PageRank: integer fixed-point semantics pinned by a
hand-computed tiny graph, and partitioning/bucketing invariance (exact
— all arithmetic is integer, so nothing may drift)."""

from __future__ import annotations

import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _tiny_extracted():
    # a→b, a→c, b→c, c→a (plus a self-loop and a host-less link that
    # must be dropped)
    return pa.table(
        {
            "host": pa.array(["a.com", "b.com", "c.com"], pa.string()),
            "out_links": pa.array(
                [
                    [
                        "https://b.com/x",
                        "https://c.com/y",
                        "https://a.com/self",
                        "mailto:nobody",
                    ],
                    ["https://c.com/z", "https://c.com/z2"],  # dup edge
                    ["https://a.com/home"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )


def test_pagerank_hand_computed(ray_session):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, pagerank_hosts

    edges = host_edges(ray.data.from_arrow(_tiny_extracted()))
    e = edges.to_pandas().sort_values(["src", "dst"], ignore_index=True)
    assert list(zip(e.src, e.dst)) == [
        ("a.com", "b.com"),
        ("a.com", "c.com"),
        ("b.com", "c.com"),
        ("c.com", "a.com"),
    ]
    assert dict(zip(e.src, e.outdeg))["a.com"] == 2

    got = (
        pagerank_hosts(edges, iters=2)
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    # r1: a=1_000_000, b=575_000, c=1_425_000
    # r2: a=150000+85*1425000//100, b=575000, c=150000+85*(500000+575000)//100
    assert got["a.com"] == 1_361_250
    assert got["b.com"] == 575_000
    assert got["c.com"] == 1_063_750


def test_components_hand_computed(ray_session):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        connected_components,
        host_edges,
    )

    # graph: {a,b,c} strongly linked; add an isolated pair d→e
    tbl = pa.table(
        {
            "host": pa.array(
                ["a.com", "b.com", "c.com", "d.com"], pa.string()
            ),
            "out_links": pa.array(
                [
                    ["https://b.com/x", "https://c.com/y"],
                    ["https://c.com/z"],
                    ["https://a.com/home"],
                    ["https://e.com/only"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    got = (
        connected_components(host_edges(ray.data.from_arrow(tbl)))
        .to_pandas()
        .set_index("host")["component"]
    )
    assert got["a.com"] == got["b.com"] == got["c.com"] == "a.com"
    assert got["d.com"] == got["e.com"] == "d.com"
    assert len(got) == 5


def test_components_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import (
        connected_components,
        host_edges,
    )
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])
    a = (
        connected_components(host_edges(ex, num_buckets=64))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    b = (
        connected_components(host_edges(ex.repartition(7), num_buckets=16))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) > 0
    # every component label is itself a member host with that label
    lab = dict(zip(a.host, a.component))
    assert all(lab[c] == c for c in set(a.component))


def test_pagerank_partition_and_bucket_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import host_edges, pagerank_hosts
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])

    a = (
        pagerank_hosts(host_edges(ex, num_buckets=64), iters=3)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    b = (
        pagerank_hosts(
            host_edges(ex.repartition(5), num_buckets=16),
            iters=3,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    # integer arithmetic ⇒ EXACT equality, not approx
    assert a.equals(b)
    assert len(a) > 0

    # cross-path agreement: driver_max_edges=0 forces the distributed
    # iteration loop; the default takes the driver-local numpy path
    c = (
        pagerank_hosts(
            host_edges(ex, num_buckets=64), iters=3, driver_max_edges=0
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(c)

    # shard_min_edges=0 forces the fully bucket-sharded tier (no
    # vertex-sized driver/broadcast state anywhere) — still bit-equal
    d = (
        pagerank_hosts(
            host_edges(ex.repartition(5), num_buckets=16),
            iters=3,
            driver_max_edges=0,
            shard_min_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(d)


def test_pagerank_sharded_hand_computed(ray_session):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, pagerank_hosts

    got = (
        pagerank_hosts(
            host_edges(ray.data.from_arrow(_tiny_extracted())),
            iters=2,
            driver_max_edges=0,
            shard_min_edges=0,
        )
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    assert got["a.com"] == 1_361_250
    assert got["b.com"] == 575_000
    assert got["c.com"] == 1_063_750


def test_host_degrees_hand_computed(ray_session):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_degrees, host_edges

    got = (
        host_degrees(host_edges(ray.data.from_arrow(_tiny_extracted())))
        .to_pandas()
        .set_index("host")
    )
    # edges: a→b, a→c, b→c, c→a
    assert got.loc["a.com", "out_degree"] == 2
    assert got.loc["a.com", "in_degree"] == 1
    assert got.loc["c.com", "in_degree"] == 2
    assert got.loc["c.com", "out_degree"] == 1


def test_extract_links_matches_full_extraction(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_links, extract_pages
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    full = (
        extract_pages(pages)
        .select_columns(["url", "host", "out_links"])
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    lite = (
        extract_links(pages.select_columns(["url", "html"]))
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    assert full.equals(lite)


def test_anchor_text_corpus_hand_computed_and_paths(
    ray_session, force_shuffle
):
    import ray.data

    from crawler_ai_ray.stages.linkgraph import anchor_text_corpus

    pairs = pa.table(
        {
            "src_host": pa.array(
                ["a.com", "a.com", "a.com", "b.com", "b.com"], pa.string()
            ),
            "target_host": pa.array(
                ["t.com", "t.com", "u.com", "t.com", "t.com"], pa.string()
            ),
            "anchor_text": pa.array(
                ["Jobs", "Jobs", "About", "Careers", "Jobs"], pa.string()
            ),
        }
    )
    ds = ray.data.from_arrow(pairs)
    out = anchor_text_corpus(ds).to_pandas().set_index("target_host")
    assert out.loc["t.com", "n_links"] == 4
    assert out.loc["t.com", "n_src_hosts"] == 2
    assert out.loc["t.com", "top_texts"] == "Careers|Jobs"
    assert out.loc["u.com", "n_links"] == 1
    assert out.loc["u.com", "n_src_hosts"] == 1
    assert out.loc["u.com", "top_texts"] == "About"

    # forced-bucketed path agrees with the adaptive driver finish
    with force_shuffle():
        bucketed = (
            anchor_text_corpus(ray.data.from_arrow(pairs))
            .to_pandas()
            .sort_values("target_host", ignore_index=True)
        )
    driver = out.reset_index().sort_values("target_host", ignore_index=True)
    assert driver[bucketed.columns.tolist()].equals(bucketed)

    # top_k cap: 25 distinct texts → first 20 sorted kept
    many = pa.table(
        {
            "src_host": pa.array(["s.com"] * 25, pa.string()),
            "target_host": pa.array(["t.com"] * 25, pa.string()),
            "anchor_text": pa.array(
                [f"text{i:02d}" for i in range(25)], pa.string()
            ),
        }
    )
    top = anchor_text_corpus(ray.data.from_arrow(many)).to_pandas()
    assert top.loc[0, "top_texts"] == "|".join(
        f"text{i:02d}" for i in range(20)
    )


def test_host_url_profile_hand_computed(ray_session, force_shuffle):
    import ray.data

    from crawler_ai_ray.stages.urlprofile import host_url_profile

    pages = pa.table(
        {
            "url": pa.array(
                [
                    "https://a.com/",
                    "https://a.com/jobs",
                    "https://a.com/jobs?page=2",
                    "https://a.com/jobs?page=3",
                    "https://b.com/x/y/z/deep/path",
                ],
                pa.string(),
            )
        }
    )
    out = (
        host_url_profile(ray.data.from_arrow(pages))
        .to_pandas()
        .set_index("host")
    )
    # a.com: 4 urls, base paths {/, /jobs, /jobs} -> 2 distinct, 2 query
    # urls, max depth 1, score = 2000//4 + 10 = 510
    assert out.loc["a.com", "n_urls"] == 4
    assert out.loc["a.com", "n_paths"] == 2
    assert out.loc["a.com", "n_query_urls"] == 2
    assert out.loc["a.com", "max_depth"] == 1
    assert out.loc["a.com", "trap_score"] == 510
    # b.com: 1 deep url, depth 5, score = 0 + 50
    assert out.loc["b.com", "n_urls"] == 1
    assert out.loc["b.com", "max_depth"] == 5
    assert out.loc["b.com", "trap_score"] == 50

    # forced-bucketed path agrees with the driver finish
    with force_shuffle():
        bucketed = (
            host_url_profile(ray.data.from_arrow(pages))
            .to_pandas()
            .sort_values("host", ignore_index=True)
        )
    assert out.reset_index().sort_values("host", ignore_index=True)[
        bucketed.columns.tolist()
    ].equals(bucketed)


def test_components_distributed_labeler_agrees(ray_session):
    """``driver_label_max=0`` forces the bucket-sharded hash-min +
    pointer-jump labeler (the 10^9-host scale path); it must agree
    EXACTLY with the driver-side union-find on (1) the hand graph,
    (2) a 300-host path graph — the pathological diameter case that
    needs pointer jumping to converge in O(log V) rounds — and
    (3) the sf0.001 corpus link graph."""
    import ray.data

    from crawler_ai_ray.stages.extract import extract_links
    from crawler_ai_ray.stages.linkgraph import (
        connected_components,
        host_edges,
    )
    from crawler_ai_ray.sources.synth import ensure_corpus

    def agree(edges_ds):
        a = (
            connected_components(edges_ds)
            .to_pandas()
            .sort_values("host", ignore_index=True)
        )
        b = (
            connected_components(edges_ds, driver_label_max=0)
            .to_pandas()
            .sort_values("host", ignore_index=True)
        )
        assert a.equals(b)
        return a

    # (1) hand graph: {a,b,c} linked, {d,e} linked
    a = agree(host_edges(ray.data.from_arrow(_tiny_extracted())))
    assert set(a.component) == {"a.com"}

    # (2) path graph h0000→h0001→…→h0299 plus a second 50-chain:
    # hash-min alone needs O(diameter) rounds here; the jump step must
    # contract it inside the 64-round cap
    hosts = [f"h{i:04d}.com" for i in range(300)]
    tail = [f"z{i:03d}.org" for i in range(50)]
    chain = pa.table(
        {
            "src": pa.array(hosts[:-1] + tail[:-1], pa.string()),
            "dst": pa.array(hosts[1:] + tail[1:], pa.string()),
        }
    )
    c = agree(ray.data.from_arrow(chain).repartition(6))
    lab = dict(zip(c.host, c.component))
    assert all(lab[h] == "h0000.com" for h in hosts)
    assert all(lab[t] == "z000.org" for t in tail)

    # (3) real corpus graph at sf0.001
    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html"]
    )
    agree(host_edges(extract_links(pages)))


def test_hits_hand_computed(ray_session):
    """Integer HITS on the tiny graph, both tiers.

    iters=2 by hand (scale=1e6, renorm div = max//scale + 1):
      half-step 1: auth_raw=(a:1e6, b:1e6, c:2e6) div 3 → (333333,
      333333, 666666); hub_raw=(a:999999, b:666666, c:333333) div 1.
      half-step 2: auth_raw=(a:333333, b:999999, c:1666665) div 2 →
      (166666, 499999, 833332); hub_raw=(a:1333331, b:833332,
      c:166666) div 2 → (666665, 416666, 83333).
    """
    import ray.data

    from crawler_ai_ray.stages.linkgraph import hits_hosts, host_edges

    for dmax in (5_000_000, 0):  # driver-local vs distributed tier
        got = (
            hits_hosts(
                host_edges(ray.data.from_arrow(_tiny_extracted())),
                iters=2,
                driver_max_edges=dmax,
            )
            .to_pandas()
            .set_index("host")
        )
        assert dict(got["auth_micros"]) == {
            "a.com": 166_666,
            "b.com": 499_999,
            "c.com": 833_332,
        }, dmax
        assert dict(got["hub_micros"]) == {
            "a.com": 666_665,
            "b.com": 416_666,
            "c.com": 83_333,
        }, dmax


def test_hits_partition_invariant_and_path_agreement(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import hits_hosts, host_edges
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])

    a = (
        hits_hosts(host_edges(ex, num_buckets=64))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    # repartition + different bucketing: integer math ⇒ EXACT equality
    b = (
        hits_hosts(host_edges(ex.repartition(5), num_buckets=16))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) > 0
    # driver_max_edges=0 forces the distributed broadcast loop
    c = (
        hits_hosts(host_edges(ex, num_buckets=64), driver_max_edges=0)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(c)
    # authorities and hubs differ (directed graph) and are bounded
    assert (a.auth_micros <= 2_000_000).all()
    assert not a.auth_micros.equals(a.hub_micros)


def test_triangles_hand_computed_and_tiers(ray_session):
    """K4 (4 triangles, each vertex in 3) plus a pendant: exact counts
    from both the driver kernel and the forced-distributed wedge tier,
    invariant to partitioning/bucketing."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, host_triangles

    tbl = pa.table(
        {
            "host": pa.array(
                ["a.com", "b.com", "c.com", "d.com", "e.com"], pa.string()
            ),
            "out_links": pa.array(
                [
                    ["https://b.com/1", "https://c.com/1", "https://d.com/1"],
                    ["https://c.com/2", "https://d.com/2"],
                    ["https://d.com/3", "https://a.com/3"],
                    [],
                    ["https://a.com/x"],  # pendant: no triangle
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    loc = (
        host_triangles(host_edges(ray.data.from_arrow(tbl)))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert loc.host.tolist() == ["a.com", "b.com", "c.com", "d.com"]
    assert loc.n_triangles.tolist() == [3, 3, 3, 3]
    dist = (
        host_triangles(
            host_edges(ray.data.from_arrow(tbl).repartition(3), num_buckets=8),
            num_buckets=4,
            driver_max_edges=0,  # force the distributed wedge tier
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert dist.equals(loc)


def test_triangles_corpus_tier_agreement(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import host_edges, host_triangles
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])
    a = (
        host_triangles(host_edges(ex, num_buckets=64))
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    b = (
        host_triangles(
            host_edges(ex.repartition(5), num_buckets=16),
            num_buckets=8,
            driver_max_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) > 0


def test_clustering_coefficient_hand_computed(ray_session):
    """K4 + pendant: every K4 vertex has deg 3 (cc relative to the
    pendant-attached one differs), exact integer ppm."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, host_triangles

    tbl = pa.table(
        {
            "host": pa.array(
                ["a.com", "b.com", "c.com", "d.com", "e.com"], pa.string()
            ),
            "out_links": pa.array(
                [
                    ["https://b.com/1", "https://c.com/1", "https://d.com/1"],
                    ["https://c.com/2", "https://d.com/2"],
                    ["https://d.com/3", "https://a.com/3"],
                    [],
                    ["https://a.com/x"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    got = (
        host_triangles(
            host_edges(ray.data.from_arrow(tbl)), clustering=True
        )
        .to_pandas()
        .set_index("host")
    )
    # a has degree 4 (K4 + pendant e): cc = 2*3*1e6 // (4*3) = 500_000
    assert got.loc["a.com", "degree"] == 4
    assert got.loc["a.com", "clustering_ppm"] == 500_000
    # b, c, d: degree 3, all 3 wedges closed → 1_000_000
    for h in ("b.com", "c.com", "d.com"):
        assert got.loc[h, "clustering_ppm"] == 1_000_000
    # e: degree 1 → outside the domain
    assert "e.com" not in got.index
    # forced-distributed tier agrees
    dist = (
        host_triangles(
            host_edges(ray.data.from_arrow(tbl).repartition(3)),
            clustering=True,
            driver_max_edges=0,
        )
        .to_pandas()
        .set_index("host")
    )
    assert dist.sort_index().equals(got.sort_index())


def test_kcore_hand_computed_and_tiers(ray_session):
    """Triangle (the 2-core) + chain + pendant: peel drops everything
    but the triangle; both tiers bit-equal."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, host_kcore

    tbl = pa.table(
        {
            "host": pa.array(
                ["a.com", "b.com", "c.com", "d.com", "f.com"], pa.string()
            ),
            "out_links": pa.array(
                [
                    ["https://b.com/1", "https://c.com/1"],
                    ["https://c.com/2"],
                    [],
                    ["https://e.com/1"],
                    ["https://a.com/9"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    loc = (
        host_kcore(host_edges(ray.data.from_arrow(tbl)), k=2)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert loc.host.tolist() == ["a.com", "b.com", "c.com"]
    assert loc.kcore_degree.tolist() == [2, 2, 2]
    dist = (
        host_kcore(
            host_edges(ray.data.from_arrow(tbl).repartition(3)),
            k=2,
            driver_max_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert dist.equals(loc)


def test_personalized_pagerank_tiers_and_hand_math(ray_session):
    """PPR: teleport mass only on in-graph seeds; the three tiers are
    bit-identical; out-of-graph seeds don't count toward n_seeds."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        _h64,
        pagerank_hosts,
        personalized_pagerank_hosts,
    )

    src = ["a.com", "b.com", "c.com", "d.com"]
    dst = ["b.com", "c.com", "a.com", "a.com"]
    sh = np.array([_h64(s) for s in src], np.uint64)
    dh = np.array([_h64(d) for d in dst], np.uint64)
    et = pa.table(
        {
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "src_h": pa.array(sh, pa.uint64()),
            "dst_h": pa.array(dh, pa.uint64()),
            "outdeg": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(et)
    seeds = ["c.com", "zz-not-in-graph.com"]
    local = (
        personalized_pagerank_hosts(ds, seeds, iters=2)
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    # n_hosts=4, in-graph seeds={c} -> base_c = 150000*4//1 = 600000
    # r1: a = 0 + 85*(1e6 + 1e6)//100 = 1_700_000 (from c and d)
    #     b = 0 + 85*1e6//100 = 850_000; c = 600000 + 850_000 = 1_450_000
    #     d = 0
    # r2: a = 85*1_450_000//100 = 1_232_500; b = 85*1_700_000//100
    #     c = 600000 + 85*850_000//100 = 1_322_500; d = 0
    assert local["a.com"] == 1_232_500
    assert local["b.com"] == 1_445_000
    assert local["c.com"] == 1_322_500
    assert local["d.com"] == 0

    bcast = (
        personalized_pagerank_hosts(ds, seeds, iters=2, driver_max_edges=0)
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    shard = (
        personalized_pagerank_hosts(ds, seeds, iters=2, shard_min_edges=0)
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    assert local.sort_index().equals(bcast.sort_index())
    assert local.sort_index().equals(shard.sort_index())
    # uniform pagerank untouched by the seed plumbing
    u1 = pagerank_hosts(ds, iters=2).to_pandas()
    u2 = pagerank_hosts(ds, iters=2, shard_min_edges=0).to_pandas()
    assert (
        u1.sort_values("host", ignore_index=True)
        .equals(u2.sort_values("host", ignore_index=True))
    )


def test_trustrank_spam_mass_hand_math_and_tiers(ray_session):
    """TrustRank + spam mass: trust equals the PPR hand numbers, rank
    equals global PageRank, and spam_mass is the clamped integer
    division — near-10⁶ for hosts unreachable from the seed, 0 where
    trust ≥ rank.  Forced sharded tier is bit-identical."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        _h64,
        pagerank_hosts,
        trustrank_hosts,
    )

    src = ["a.com", "b.com", "c.com", "d.com"]
    dst = ["b.com", "c.com", "a.com", "a.com"]
    sh = np.array([_h64(s) for s in src], np.uint64)
    dh = np.array([_h64(d) for d in dst], np.uint64)
    et = pa.table(
        {
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "src_h": pa.array(sh, pa.uint64()),
            "dst_h": pa.array(dh, pa.uint64()),
            "outdeg": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(et)
    seeds = ["c.com", "zz-not-in-graph.com"]
    out = trustrank_hosts(ds, seeds, iters=2).to_pandas().set_index("host")
    # trust == the PPR hand numbers from the test above; rank == global
    pr = (
        pagerank_hosts(ds, iters=2)
        .to_pandas()
        .set_index("host")["rank_micros"]
    )
    assert out["trust_micros"].to_dict() == {
        "a.com": 1_232_500, "b.com": 1_445_000,
        "c.com": 1_322_500, "d.com": 0,
    }
    assert (
        out["rank_micros"].sort_index() == pr.sort_index()
    ).all()
    for h in out.index:
        r, t = int(out.loc[h, "rank_micros"]), int(out.loc[h, "trust_micros"])
        assert out.loc[h, "spam_mass_micros"] == max(r - t, 0) * 10**6 // r
    # d.com receives no trust at all -> full spam mass
    assert out.loc["d.com", "spam_mass_micros"] == 1_000_000
    # forced sharded tier bit-identical
    shard = (
        trustrank_hosts(ds, seeds, iters=2, shard_min_edges=0)
        .to_pandas()
        .set_index("host")
    )
    assert out.sort_index().equals(shard.sort_index())
    # empty graph -> typed empty
    empty = trustrank_hosts(
        ray.data.from_arrow(et.slice(0, 0)), seeds, iters=2
    )
    assert empty.num_rows == 0 and empty.column_names == [
        "host", "rank_micros", "trust_micros", "spam_mass_micros",
    ]


def test_lpa_communities_reference_and_paths(ray_session):
    """Deterministic synchronous LPA: planted two-clique graph matches a
    sequential mode-with-min-tie-break reference, and the forced
    broadcast-loop tier (driver_max_edges=0) is bit-identical to the
    driver-local one."""
    import collections

    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, lpa_communities

    rng = np.random.default_rng(5)
    hosts = [f"h{i:02d}.net" for i in range(16)]
    edges = set()
    for grp in (range(0, 8), range(8, 16)):
        g = list(grp)
        for a in g:
            for b in g:
                if a != b and rng.random() < 0.55:
                    edges.add((hosts[a], hosts[b]))
    edges.add((hosts[3], hosts[11]))  # one bridge
    rows = [
        {"host": s, "out_links": [f"http://{d}/x"]} for s, d in edges
    ]
    e = host_edges(ray.data.from_items(rows))
    got = (
        lpa_communities(e)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )

    # sequential reference over the undirected distinct graph
    nbrs = collections.defaultdict(set)
    for s, d in edges:
        nbrs[s].add(d)
        nbrs[d].add(s)
    lab = {h: h for h in nbrs}
    for _ in range(4):
        lab = {
            v: sorted(
                collections.Counter(lab[u] for u in nbrs[v]).items(),
                key=lambda kv: (-kv[1], kv[0]),
            )[0][0]
            for v in nbrs
        }
    sizes = collections.Counter(lab.values())
    assert len(got) == len(nbrs)
    for _, r in got.iterrows():
        assert r["community"] == lab[r["host"]]
        assert r["community_size"] == sizes[lab[r["host"]]]
    assert got.community.nunique() >= 2  # the cliques stay separate

    forced = (
        lpa_communities(e, driver_max_edges=0)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert got.equals(forced)
    sharded = (
        lpa_communities(e, shard_min_edges=0)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert got.equals(sharded)


def test_extract_links_career_matches_full_extraction(ray_session):
    import ray.data

    from crawler_ai_ray.stages.extract import (
        extract_links_career,
        extract_pages,
    )
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    full = (
        extract_pages(pages)
        .select_columns(["url", "host", "out_links", "is_career_listing"])
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    lite = (
        extract_links_career(pages.select_columns(["url", "html"]))
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    assert full.equals(lite)


def test_host_linkpred_hand_computed_and_tiers(ray_session):
    """Star a–hub, b–hub, c–hub plus edge a–b: candidates are (a,c)
    and (b,c) via the hub apex; (a,b) is an existing edge and must be
    excluded; wedges at a/b only produce existing-edge pairs.  Hub cap
    below the hub's degree kills every candidate.  Distributed tier
    bit-equal."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        host_edges,
        host_link_prediction,
    )

    tbl = pa.table(
        {
            "host": pa.array(["a.com", "b.com", "c.com"], pa.string()),
            "out_links": pa.array(
                [
                    ["https://hub.com/1", "https://b.com/1"],
                    ["https://hub.com/2"],
                    ["https://hub.com/3"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    got = host_link_prediction(
        host_edges(ray.data.from_arrow(tbl))
    ).to_pandas()
    # deg: a=2 (hub,b), b=2, c=1, hub=3
    assert got.values.tolist() == [
        ["a.com", "c.com", 1, 500_000],
        ["b.com", "c.com", 1, 500_000],
    ]
    dist = host_link_prediction(
        host_edges(ray.data.from_arrow(tbl).repartition(3)),
        driver_max_edges=0,
    ).to_pandas()
    assert dist.equals(got)
    capped = host_link_prediction(
        host_edges(ray.data.from_arrow(tbl)), max_apex_degree=2
    ).to_pandas()
    assert len(capped) == 0


def test_host_linkpred_fuzz_vs_bruteforce(ray_session):
    """Random graph with a super-hub above the apex cap: both tiers
    match an independent Python brute force (including the cap's
    effect on common-neighbor counts)."""
    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        host_edges,
        host_link_prediction,
    )

    rng = np.random.default_rng(7)
    hosts = [f"h{i:02d}.com" for i in range(18)]
    links: dict[str, list[str]] = {h: [] for h in hosts}
    und: set[tuple[str, str]] = set()
    for _ in range(40):
        u, v = rng.choice(len(hosts), size=2, replace=False)
        a, b = hosts[int(u)], hosts[int(v)]
        links[a].append(f"https://{b}/x")
        und.add((min(a, b), max(a, b)))
    hub = "zhub.com"
    links[hub] = []
    for h in hosts[:10]:  # hub degree 10 > cap 6
        links[hub].append(f"https://{h}/y")
        und.add((min(hub, h), max(hub, h)))
    tbl = pa.table(
        {
            "host": pa.array(list(links), pa.string()),
            "out_links": pa.array(
                list(links.values()), pa.list_(pa.string())
            ),
        }
    )

    cap, k = 6, 30
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    deg = {h: len(s) for h, s in adj.items()}
    cn: dict[tuple[str, str], int] = {}
    for apex, nbrs in adj.items():
        if deg[apex] > cap:
            continue
        ns = sorted(nbrs)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                p = (ns[i], ns[j])
                if p in und:
                    continue
                cn[p] = cn.get(p, 0) + 1
    want = sorted(
        (
            (a, b, c, c * 1_000_000 // (deg[a] + deg[b] - c))
            for (a, b), c in cn.items()
        ),
        key=lambda r: (-r[3], -r[2], r[0], r[1]),
    )[:k]

    for dme in (5_000_000, 0):  # driver-local and forced-distributed
        got = host_link_prediction(
            host_edges(ray.data.from_arrow(tbl)),
            max_apex_degree=cap,
            k=k,
            driver_max_edges=dme,
        ).to_pandas()
        assert [tuple(r) for r in got.values.tolist()] == want, dme


def test_bfs_hand_computed_and_tiers(ray_session):
    """Multi-source min-hop BFS on the tiny graph (a→b, a→c, b→c,
    c→a): seed {b} ⇒ b=0, c=1, a=2; hop cap drops unreached; seeds
    absent from the vertex universe are ignored.  All three tiers
    bit-equal."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import bfs_hosts, host_edges

    edges = host_edges(ray.data.from_arrow(_tiny_extracted()))
    got = (
        bfs_hosts(edges, ["b.com", "not-in-graph.com"], max_hops=8)
        .to_pandas()
        .set_index("host")["dist"]
    )
    assert dict(got) == {"b.com": 0, "c.com": 1, "a.com": 2}

    # hop cap: max_hops=1 keeps only b (0) and c (1)
    capped = (
        bfs_hosts(edges, ["b.com"], max_hops=1)
        .to_pandas()
        .set_index("host")["dist"]
    )
    assert dict(capped) == {"b.com": 0, "c.com": 1}

    # no in-graph seed ⇒ empty result (every dist stays at the sentinel)
    assert bfs_hosts(edges, ["zz.example"]).to_pandas().empty

    # forced tiers: broadcast loop (driver_max_edges=0) and the fully
    # bucket-sharded path (shard_min_edges=0) — bit-equal to local
    base = (
        bfs_hosts(edges, ["b.com"], max_hops=8)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    bcast = (
        bfs_hosts(edges, ["b.com"], max_hops=8, driver_max_edges=0)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert base.equals(bcast)
    shard = (
        bfs_hosts(
            edges, ["b.com"], max_hops=8,
            driver_max_edges=0, shard_min_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert base.equals(shard)


def test_bfs_partition_invariant_on_corpus(ray_session):
    """BFS over the sf0.001 corpus host graph is exact under
    repartitioning/bucketing, and distances grow monotonically from a
    real seed set (integer min-relaxation ⇒ bit-equality, not approx)."""
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import bfs_hosts, host_edges
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])
    seeds = sorted(
        {h for h in ex.to_pandas()["host"] if h}
    )[:3]

    a = (
        bfs_hosts(host_edges(ex, num_buckets=64), seeds, max_hops=4)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    b = (
        bfs_hosts(
            host_edges(ex.repartition(5), num_buckets=16),
            seeds, max_hops=4, driver_max_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) >= 3
    got = dict(zip(a.host, a.dist))
    assert all(got[s] == 0 for s in seeds if s in got)
    assert a.dist.max() <= 4 and a.dist.min() == 0


def _hb_brute(edges_list, max_t=8):
    """Engine-code-free HyperBall reference: python-int md5 register
    hashes, dict-of-tuples counters, per-round max-merge over an edge
    loop, and the spec estimate re-derived with plain python floats
    (same IEEE double ops) + floor(64·ln(64/z)) via math.log."""
    import hashlib
    import math

    verts = sorted({x for e in edges_list for x in e})

    def sing(v):
        h = int.from_bytes(hashlib.md5(v.encode()).digest()[8:], "little")
        regs = [0] * 64
        w = h >> 6
        regs[h & 63] = 59 if w == 0 else 59 - w.bit_length()
        return tuple(regs)

    def est(regs):
        n0 = sum(1 for r in regs if r == 0)
        n1 = sum(1 for r in regs if r == 1)
        n2 = sum(1 for r in regs if r == 2)
        tail = sum(1 << (59 - r) for r in regs if r >= 3)
        s = (
            (n0 * 576460752303423488.0 + n1 * 288230376151711744.0)
            + n2 * 144115188075855872.0
        ) + float(tail)
        raw = (0.7213 / (1.0 + 1.079 / 64.0)) * 4096.0 / (
            s / 576460752303423488.0
        )
        if raw <= 160.0 and n0 > 0:
            return math.floor(64.0 * math.log(64.0 / n0))
        return math.floor(min(raw, 4611686018427387904.0))

    regs = {v: sing(v) for v in verts}
    e = {v: est(regs[v]) for v in verts}
    harm = {v: 0 for v in verts}
    sd = {v: 0 for v in verts}
    for t in range(1, max_t + 1):
        nxt = dict(regs)
        for s_, d_ in edges_list:
            nxt[d_] = tuple(
                max(a, b) for a, b in zip(nxt[d_], regs[s_])
            )
        regs = nxt
        for v in verts:
            en = est(regs[v])
            dpos = max(en - e[v], 0)
            harm[v] += dpos * 1_000_000 // t
            sd[v] += t * dpos
            e[v] = en
    return {
        v: (
            e[v],
            harm[v],
            sd[v],
            e[v] * 1_000_000 // max(sd[v], 1),
            e[v] * e[v] // max(sd[v], 1),
        )
        for v in verts
    }


def _hb_rand_extracted(seed=7, n_hosts=60, n_edges=220):
    import numpy as np

    rng = np.random.default_rng(seed)
    hosts = [f"h{i}.example" for i in range(n_hosts)]
    src = rng.integers(0, n_hosts, n_edges)
    dst = rng.integers(0, n_hosts, n_edges)
    links = {h: [] for h in hosts}
    for s, d in zip(src, dst):
        if s != d:
            links[hosts[s]].append(f"https://{hosts[d]}/p{d}")
    used = sorted({hosts[s] for s, d in zip(src, dst) if s != d})
    return (
        pa.table(
            {
                "host": pa.array(used, pa.string()),
                "out_links": pa.array(
                    [links[h] for h in used], pa.list_(pa.string())
                ),
            }
        ),
        sorted(
            {
                (hosts[s], hosts[d])
                for s, d in zip(src, dst)
                if s != d
            }
        ),
    )


def test_hyperball_bruteforce_and_tiers(ray_session):
    """HyperBall on a 60-host random graph equals an engine-code-free
    python-int/dict reference bit-for-bit (registers, estimates, and
    harmonic micros), all three tiers agree exactly, and the HLL ball
    estimates track the EXACT in-ball sizes (m=64 ⇒ σ≈13 %; mean
    relative error bounded)."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import harmonic_hosts, host_edges

    ext, edges_list = _hb_rand_extracted()
    edges = host_edges(ray.data.from_arrow(ext))
    got = harmonic_hosts(edges, max_t=8).to_pandas()
    eng = {
        r.host: (
            r.ball_est,
            r.harmonic_micros,
            r.sum_dist,
            r.closeness_micros,
            r.lin_index,
        )
        for r in got.itertuples()
    }
    ref = _hb_brute(edges_list, max_t=8)
    assert eng == ref

    # forced tiers: broadcast (driver_max_edges=0) and fully sharded
    base = got.sort_values("host", ignore_index=True)
    bcast = (
        harmonic_hosts(edges, max_t=8, driver_max_edges=0)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert base.equals(bcast)
    shard = (
        harmonic_hosts(
            edges, max_t=8, driver_max_edges=0, shard_min_edges=0
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert base.equals(shard)

    # sketch accuracy vs exact in-ball sizes at the final radius
    radj = {}
    for s, d in edges_list:
        radj.setdefault(d, set()).add(s)
    errs = []
    for v in eng:
        ball = {v}
        for _ in range(8):
            ball |= {u for w in ball for u in radj.get(w, ())}
        errs.append(abs(eng[v][0] - len(ball)) / len(ball))
    assert sum(errs) / len(errs) < 0.25


def test_neighborhood_function_tiers_and_math(ray_session):
    """Neighbourhood function off the HyperBall counters: all three
    tiers agree exactly, N(8) equals the per-host ball_est sum, N is
    nondecreasing, and growth/ratio/eff-diameter match a pure-python
    recomputation from the nf series.  Early fixpoint still yields
    max_t+1 rows (fill-forward)."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        harmonic_hosts,
        host_edges,
        neighborhood_function,
    )

    ext, edges_list = _hb_rand_extracted()
    edges = host_edges(ray.data.from_arrow(ext))
    out = neighborhood_function(edges, max_t=8).to_pandas()
    assert list(out.columns) == [
        "t", "nf", "growth", "ratio_micros", "eff_diam_micros",
    ]
    assert len(out) == 9 and list(out.t) == list(range(9))
    nf = [int(v) for v in out.nf]
    assert nf == sorted(nf)  # balls only grow
    # N(8) == Σ ball_est of the per-host output
    per_host = harmonic_hosts(edges, max_t=8).to_pandas()
    assert nf[8] == int(per_host.ball_est.sum())
    # derived columns recomputed independently
    nfmax = nf[-1]
    assert list(out.growth) == [0] + [
        nf[i] - nf[i - 1] for i in range(1, 9)
    ]
    assert list(out.ratio_micros) == [
        v * 10**6 // max(nfmax, 1) for v in nf
    ]
    target = 9 * nfmax
    tm = next(t for t, v in enumerate(nf) if 10 * v >= target)
    want_eff = (
        0 if tm == 0
        else (tm - 1) * 10**6
        + (target - 10 * nf[tm - 1]) * 10**6 // (10 * (nf[tm] - nf[tm - 1]))
    )
    assert set(out.eff_diam_micros) == {want_eff}
    assert 0 <= want_eff <= 8 * 10**6
    # forced tiers bit-identical
    bcast = neighborhood_function(
        edges, max_t=8, driver_max_edges=0
    ).to_pandas()
    shard = neighborhood_function(
        edges, max_t=8, driver_max_edges=0, shard_min_edges=0
    ).to_pandas()
    assert out.equals(bcast) and out.equals(shard)
    # tiny 2-chain fixpoints after 2 rounds -> still 9 rows, constant
    # tail (fill-forward past the register fixpoint)
    import numpy as np
    import pyarrow as pa

    from crawler_ai_ray.stages.linkgraph import _h64

    src, dst = ["a.com", "b.com"], ["b.com", "c.com"]
    et = pa.table(
        {
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "src_h": pa.array(
                np.array([_h64(s) for s in src], np.uint64), pa.uint64()
            ),
            "dst_h": pa.array(
                np.array([_h64(d) for d in dst], np.uint64), pa.uint64()
            ),
            "outdeg": pa.array([1, 1], pa.int64()),
        }
    )
    chain = neighborhood_function(
        ray.data.from_arrow(et), max_t=8
    ).to_pandas()
    assert len(chain) == 9
    assert chain.nf.iloc[2:].nunique() == 1  # fixpoint reached at t=2


def test_opic_bruteforce_and_paths(ray_session):
    """OPIC equals an engine-code-free sequential dict reference
    bit-for-bit on a random graph WITH dangling hosts (virtual-page
    recycling exercised), mass accounting holds, and the forced
    broadcast tier is identical."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.linkgraph import _h64, opic_hosts

    rng = np.random.default_rng(23)
    hosts = [f"o{i:02d}.net" for i in range(18)]
    eset = set()
    while len(eset) < 40:
        i, j = rng.integers(0, 15, 2)  # hosts 15-17 only ever dsts
        j2 = int(rng.integers(0, 18))
        if i != j2:
            eset.add((hosts[i], hosts[j2]))
    edges_list = sorted(eset)
    odeg = {}
    for s, d in edges_list:
        odeg[s] = odeg.get(s, 0) + 1
    verts = sorted({v for e in edges_list for v in e})
    assert any(v not in odeg for v in verts)  # dangling present
    # sequential reference
    n = len(verts)
    cash = {v: 10**6 for v in verts}
    hist = {v: 0 for v in verts}
    for _ in range(5):
        inflow = {v: 0 for v in verts}
        for s, d in edges_list:
            inflow[d] += cash[s] // odeg[s]
        virtual = sum(cash[v] for v in verts if v not in odeg)
        for v in verts:
            hist[v] += cash[v]
            cash[v] = inflow[v] + virtual // n
    src = [e[0] for e in edges_list]
    dst = [e[1] for e in edges_list]
    et = pa.table(
        {
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "src_h": pa.array(
                np.array([_h64(s) for s in src], np.uint64), pa.uint64()
            ),
            "dst_h": pa.array(
                np.array([_h64(d) for d in dst], np.uint64), pa.uint64()
            ),
            "outdeg": pa.array([odeg[s] for s in src], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(et).repartition(6)
    got = opic_hosts(ds).to_pandas().set_index("host")
    for v in verts:
        assert got.loc[v, "hist_micros"] == hist[v], v
        assert got.loc[v, "cash_micros"] == cash[v], v
        assert got.loc[v, "opic_micros"] == hist[v] + cash[v]
    # conservation up to integer-division dust: total cash never grows
    assert got["cash_micros"].sum() <= n * 10**6
    forced = (
        opic_hosts(ds, driver_max_edges=0).to_pandas().set_index("host")
    )
    assert got.sort_index().equals(forced.sort_index())


def test_reciprocity_bruteforce_and_paths(ray_session):
    """Reciprocity on a random directed graph equals a set-based brute
    force, the forced bucketed path is bit-identical, and a fully
    symmetric graph scores 10⁶ micros."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.linkgraph import _h64, reciprocity_hosts

    rng = np.random.default_rng(11)
    hosts = [f"r{i:02d}.net" for i in range(20)]
    eset = set()
    while len(eset) < 70:
        i, j = rng.integers(0, 20, 2)
        if i != j:
            eset.add((hosts[i], hosts[j]))
    src = [e[0] for e in eset]
    dst = [e[1] for e in eset]

    def mk(s, d):
        sh = np.array([_h64(x) for x in s], np.uint64)
        dh = np.array([_h64(x) for x in d], np.uint64)
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array(s, pa.string()),
                    "dst": pa.array(d, pa.string()),
                    "src_h": pa.array(sh, pa.uint64()),
                    "dst_h": pa.array(dh, pa.uint64()),
                    "outdeg": pa.array([1] * len(s), pa.int64()),
                }
            )
        ).repartition(7)

    got = reciprocity_hosts(mk(src, dst)).to_pandas().iloc[0]
    recip_edges = sum((d, s) in eset for s, d in eset)
    pairs = len({(min(s, d), max(s, d)) for s, d in eset})
    assert got["edges"] == len(eset)
    assert got["pairs"] == pairs
    assert got["reciprocal_edges"] == recip_edges
    assert got["reciprocal_pairs"] == recip_edges // 2
    assert (
        got["reciprocity_micros"] == recip_edges * 10**6 // len(eset)
    )
    forced = (
        reciprocity_hosts(mk(src, dst), driver_max_edges=0, n_buckets=8)
        .to_pandas()
        .iloc[0]
    )
    assert (forced == got).all()
    # symmetric closure -> reciprocity exactly 1.0
    sym = sorted(eset | {(d, s) for s, d in eset})
    full = reciprocity_hosts(
        mk([e[0] for e in sym], [e[1] for e in sym])
    ).to_pandas().iloc[0]
    assert full["reciprocity_micros"] == 10**6
    assert full["reciprocal_edges"] == full["edges"]


def test_assortativity_bruteforce_and_paths(ray_session):
    """Degree assortativity equals an exact numpy Pearson over
    (outdeg(src), indeg(dst)) bit-for-bit, the forced distributed path
    agrees, and a star graph is degenerate (x constant -> 0.0)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.linkgraph import (
        _h64,
        assortativity_hosts,
        host_edges,
    )

    ext, edges_list = _hb_rand_extracted()
    edges = host_edges(ray.data.from_arrow(ext))
    got = assortativity_hosts(edges).to_pandas().iloc[0]
    odeg, ideg = {}, {}
    for s, d in edges_list:
        odeg[s] = odeg.get(s, 0) + 1
        ideg[d] = ideg.get(d, 0) + 1
    x = [odeg[s] for s, d in edges_list]
    y = [ideg[d] for s, d in edges_list]
    m = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx, syy = sum(a * a for a in x), sum(b * b for b in y)
    assert [got[c] for c in ["m", "sx", "sy", "sxy", "sxx", "syy"]] == [
        m, sx, sy, sxy, sxx, syy,
    ]
    import math

    want = float(m * sxy - sx * sy) / math.sqrt(
        float(m * sxx - sx * sx) * float(m * syy - sy * sy)
    )
    assert got["assortativity"] == want  # bit-equal
    forced = (
        assortativity_hosts(edges, driver_max_edges=0).to_pandas().iloc[0]
    )
    assert (forced == got).all()
    # star: every edge has x == n-1 (constant) -> dx == 0 -> 0.0
    hubs = ["hub.net"] + [f"leaf{i}.net" for i in range(5)]
    sh = np.array([_h64("hub.net")] * 5, np.uint64)
    dh = np.array([_h64(h) for h in hubs[1:]], np.uint64)
    star = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(["hub.net"] * 5, pa.string()),
                "dst": pa.array(hubs[1:], pa.string()),
                "src_h": pa.array(sh, pa.uint64()),
                "dst_h": pa.array(dh, pa.uint64()),
                "outdeg": pa.array([5] * 5, pa.int64()),
            }
        )
    )
    sg = assortativity_hosts(star).to_pandas().iloc[0]
    assert sg["assortativity"] == 0.0


def test_hyperball_lc_table_is_floor_log(ray_session):
    """The literal linear-counting spec table is floor(m·ln(m/z)) —
    the table exists only because DuckDB's and numpy's ln disagree in
    the last ulp on 17 of the 64 inputs, so both sides embed these
    integers instead of calling libm."""
    import numpy as np

    from crawler_ai_ray.stages.linkgraph import _HB_LC

    z = np.arange(1, 65, dtype=np.float64)
    want = np.floor(np.float64(64.0) * np.log(np.float64(64.0) / z))
    assert _HB_LC.tolist() == want.astype(np.int64).tolist()


def test_hyperball_partition_invariant_on_corpus(ray_session):
    """HyperBall over the sf0.001 corpus host graph is exact under
    repartitioning/bucketing and across tiers (register max-merge and
    integer micros are order-free), and singleton-only hosts keep
    harmonic 0 with a ball of ~1."""
    import ray.data

    from crawler_ai_ray.stages.extract import extract_pages
    from crawler_ai_ray.stages.linkgraph import harmonic_hosts, host_edges
    from crawler_ai_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(SF)
    pages = ray.data.read_parquet(
        f"{corpus}/pages.parquet", columns=["url", "html", "lang"]
    )
    ex = extract_pages(pages).select_columns(["host", "out_links"])
    a = (
        harmonic_hosts(host_edges(ex, num_buckets=64), max_t=6)
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    b = (
        harmonic_hosts(
            host_edges(ex.repartition(5), num_buckets=16),
            max_t=6, driver_max_edges=0,
        )
        .to_pandas()
        .sort_values("host", ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) > 0
    assert (a.harmonic_micros >= 0).all()
    # a host nobody links to keeps its singleton ball: harmonic 0
    no_in = a[a.harmonic_micros == 0]
    if len(no_in):
        assert (no_in.ball_est <= 2).all()


def test_katz_hand_computed_and_path_agreement(ray_session):
    """Integer truncated Katz on the tiny graph (a→b, a→c, b→c, c→a;
    α_ppm=200000, scale=1e6), iters=2 by hand:
      k1: b ← a: 0.2·1e6 = 200000; c ← a,b: 0.2·2e6 = 400000;
          a ← c: 200000.
      k2: b ← a(1e6+200000)·0.2 = 240000;
          c ← a+b = (1.2e6+1.2e6)·0.2 = 480000;
          a ← c(1.4e6)·0.2 = 280000.
    Both tiers must match the hand values exactly."""
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, katz_hosts

    for dmax in (5_000_000, 0):
        got = (
            katz_hosts(
                host_edges(ray.data.from_arrow(_tiny_extracted())),
                iters=2,
                driver_max_edges=dmax,
            )
            .to_pandas()
            .set_index("host")["katz_micros"]
            .to_dict()
        )
        assert got == {
            "a.com": 280_000,
            "b.com": 240_000,
            "c.com": 480_000,
        }, dmax


def test_katz_int64_bound_raises_and_just_under_matches(ray_session):
    """The complete 20-host graph grows truncated Katz by ~19× per
    iteration.  With α_ppm = 10⁶ the iteration-6 in-sum already exceeds
    (2**63-1) // α_ppm, where ``α_ppm · sum`` would wrap int64 (the
    DuckDB oracle promotes to HUGEINT instead): both tiers must raise.
    α_ppm = 753 038 keeps the iteration-6 in-sum 1e-7 under that bound;
    both tiers must then match an unbounded Python-int reference."""
    import pytest
    import ray.data

    from crawler_ai_ray.stages.linkgraph import host_edges, katz_hosts

    hosts = [f"k{i}.com" for i in range(20)]
    edges = host_edges(
        ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array(hosts, pa.string()),
                    "out_links": pa.array(
                        [[f"https://{d}/" for d in hosts if d != h] for h in hosts],
                        pa.list_(pa.string()),
                    ),
                }
            )
        )
    ).materialize()

    def ref(alpha_ppm, iters, scale=1_000_000):
        k = dict.fromkeys(hosts, 0)
        for _ in range(iters):
            raw = {v: sum(scale + k[u] for u in hosts if u != v) for v in hosts}
            k = {v: alpha_ppm * raw[v] // 1_000_000 for v in hosts}
        return k

    bound = (2**63 - 1) // 753_038
    assert bound > 19 * (1_000_000 + ref(753_038, 5)["k0.com"]) > bound * 0.999
    for dmax in (5_000_000, 0):
        with pytest.raises(OverflowError, match=str((2**63 - 1) // 1_000_000)):
            katz_hosts(edges, iters=8, alpha_ppm=1_000_000, driver_max_edges=dmax)
        got = katz_hosts(
            edges, iters=6, alpha_ppm=753_038, driver_max_edges=dmax
        ).to_pydict()
        assert dict(zip(got["host"], got["katz_micros"])) == ref(753_038, 6), dmax
