"""Crawl-order + URL-seen conformance (SURVEY §5.2 item 2, FIXTURES F4/F5):
the distributed engine must reproduce the single-process oracle
simulator's per-host fetch sequences and final URL-seen set under the
same seed list and politeness budget; plus resume-from-checkpoint
byte-equality (F5)."""

from __future__ import annotations

import os

import pyarrow.compute as pc
import pytest

from crawler_ai_ray.oracle.sim import simulate_crawl
from crawler_ai_ray.pipelines.crawl import PHASES, round_manifests
from crawler_ai_ray.state.politeness import CrawlPolicy


def _engine_log(out_dir: str):
    """Collect o-rows from every round checkpoint."""
    from crawler_ai_ray.pipelines.crawl import read_crawl_output

    tbl = read_crawl_output(
        out_dir,
        columns=["kind", "host", "url", "round", "host_seq", "priority", "success"],
        filter=pc.field("kind") == "o",
    )
    return tbl.to_pylist()


def _by_host(log):
    out: dict[str, list] = {}
    for r in sorted(log, key=lambda r: (r["host"], r["host_seq"])):
        out.setdefault(r["host"], []).append(
            (r["host_seq"], r["url"], r["priority"], bool(r["success"]))
        )
    return out


def _run_engine(corpus, out_dir, policy, resume=False):
    from crawler_ai_ray.pipelines.crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(corpus, out_dir, policy=policy, seen_shards=4, store_shards=2)
    return run_crawl(cfg, resume=resume)


@pytest.mark.usefixtures("ray_session")
def test_engine_matches_simulator(unit_corpus, tmp_path):
    policy = CrawlPolicy()
    sim = simulate_crawl(unit_corpus, CrawlPolicy())
    out_dir = str(tmp_path / "crawl")
    totals = _run_engine(unit_corpus, out_dir, policy)

    # same number of fetch attempts and successes
    assert totals["fetched"] == sum(1 for r in sim.fetch_log if r["success"])
    assert totals["errors"] == sum(1 for r in sim.fetch_log if not r["success"])

    eng = _by_host(_engine_log(out_dir))
    oracle = _by_host(sim.fetch_log)
    assert set(eng) == set(oracle)
    for host in oracle:
        assert eng[host] == oracle[host], f"fetch sequence differs for {host}"

    # final URL-seen set equality (north_rule gate): the checkpoint is a
    # per-round DELTA dump — the full set is the union over all rounds
    import pyarrow.parquet as pq

    seen_root = os.path.join(out_dir, "seen")
    engine_seen = set()
    for d in sorted(os.listdir(seen_root)):
        for f in os.listdir(os.path.join(seen_root, d)):
            engine_seen.update(
                pq.read_table(os.path.join(seen_root, d, f))["url"].to_pylist()
            )
    assert engine_seen == sim.seen


@pytest.mark.usefixtures("ray_session")
def test_wave1_budget_and_robots(unit_corpus, tmp_path):
    """budget=1 collapses waves to a continuous per-host crawl; robots=on
    must keep disallowed prefixes out of the fetch log AND the seen set."""
    policy = CrawlPolicy(default_wave=1, round_window_s=1.0, obey_robots=True)
    sim = simulate_crawl(unit_corpus, CrawlPolicy(default_wave=1, round_window_s=1.0, obey_robots=True))
    out_dir = str(tmp_path / "crawl_w1")
    _run_engine(unit_corpus, out_dir, policy)
    eng = _by_host(_engine_log(out_dir))
    oracle = _by_host(sim.fetch_log)
    assert eng == oracle

    # robots actually gated something: hosts with disallow rules exist in
    # the unit corpus, and none of their disallowed URLs were fetched
    from crawler_ai_ray.state.politeness import load_host_policies

    pols = load_host_policies(os.path.join(unit_corpus, "hostcfg.parquet"))
    gated_hosts = [h for h, p in pols.items() if p.robots_disallow]
    assert gated_hosts
    fetched_urls = {u for seqs in eng.values() for (_s, u, _p, _ok) in seqs}
    blocked = [
        u
        for u in fetched_urls
        for h in gated_hosts
        if u.startswith(f"https://{h}/")
        and any(
            u.removeprefix(f"https://{h}").startswith(pref)
            for pref in pols[h].robots_disallow
        )
    ]
    assert blocked == []


@pytest.mark.usefixtures("ray_session")
def test_resume_matches_uninterrupted(unit_corpus, tmp_path):
    """F5: stop after round r, resume, final log equals an uninterrupted run."""
    policy = CrawlPolicy()
    full_dir = str(tmp_path / "full")
    _run_engine(unit_corpus, full_dir, policy)
    full = _by_host(_engine_log(full_dir))

    from crawler_ai_ray.pipelines.crawl import CrawlConfig, run_crawl

    part_dir = str(tmp_path / "part")
    cfg = CrawlConfig(unit_corpus, part_dir, policy=CrawlPolicy(),
                      seen_shards=4, store_shards=2, max_rounds=3)
    run_crawl(cfg)  # stops after 3 rounds
    cfg2 = CrawlConfig(unit_corpus, part_dir, policy=CrawlPolicy(),
                       seen_shards=4, store_shards=2)
    run_crawl(cfg2, resume=True)
    resumed = _by_host(_engine_log(part_dir))
    assert resumed == full


@pytest.mark.usefixtures("ray_session")
def test_local_and_distributed_rounds_identical(unit_corpus, tmp_path):
    """The scale-adaptive fast path (tiny rounds run driver-local
    through the same per-bucket code) must be byte-identical to the
    always-distributed execution."""
    from crawler_ai_ray.pipelines.crawl import (
        CrawlConfig,
        crawl_output_files,
        run_crawl,
    )
    import pyarrow.dataset as pads

    outs = {}
    for name, threshold in (("local", 10**9), ("dist", 0)):
        out_dir = str(tmp_path / name)
        cfg = CrawlConfig(
            unit_corpus, out_dir, seen_shards=4, store_shards=2,
            local_round_rows=threshold, buckets=8,
        )
        run_crawl(cfg)
        tbl = pads.dataset(
            crawl_output_files(out_dir), format="parquet"
        ).to_table()
        outs[name] = tbl.sort_by(
            [("kind", "ascending"), ("host", "ascending"),
             ("url", "ascending"), ("round", "ascending")]
        )
    assert outs["local"].equals(outs["dist"])
    assert outs["local"].num_rows > 0


@pytest.mark.usefixtures("ray_session")
def test_split_buckets_identical(unit_corpus, tmp_path):
    """Explicit hot-bucket repartitioning (split_queue_rows): forcing
    every bucket to split into salted-host sub-tasks must produce
    byte-identical output to the unsplit run — hosts stay disjoint
    across sub-tasks, so only parallelism changes."""
    from crawler_ai_ray.pipelines.crawl import (
        CrawlConfig,
        crawl_output_files,
        run_crawl,
    )
    import pyarrow.dataset as pads

    outs = {}
    for name, split in (("whole", 0), ("split", 1)):
        out_dir = str(tmp_path / name)
        cfg = CrawlConfig(
            unit_corpus, out_dir, seen_shards=4, store_shards=2,
            buckets=8, local_round_rows=0,  # force the distributed path
            split_queue_rows=split, max_split=4,
        )
        run_crawl(cfg)
        tbl = pads.dataset(
            crawl_output_files(out_dir), format="parquet"
        ).to_table()
        outs[name] = tbl.sort_by(
            [("kind", "ascending"), ("host", "ascending"),
             ("url", "ascending"), ("round", "ascending")]
        )
    assert outs["whole"].equals(outs["split"])
    assert outs["whole"].num_rows > 0

    # the split run's lineage must show fanned-out sub-tasks
    from crawler_ai_ray.pipelines.crawl import read_crawl_metrics

    m = read_crawl_metrics(str(tmp_path / "split"))
    assert max(m["sub"].to_pylist()) > 0


@pytest.mark.usefixtures("ray_session")
def test_pool_reuse_identical(unit_corpus, tmp_path):
    """Service-pattern pool reuse (run_crawl(store_pool=, seen_pool=))
    must be byte-identical to fresh pools — including a SECOND crawl on
    the same reused pools (reset() must fully blank seen state)."""
    import os

    import pyarrow.dataset as pads

    from crawler_ai_ray.pipelines.crawl import (
        CrawlConfig,
        crawl_output_files,
        run_crawl,
    )
    from crawler_ai_ray.state.pagestore import PageStorePool
    from crawler_ai_ray.state.seen import SeenPool

    def collect(out_dir):
        return pads.dataset(
            crawl_output_files(out_dir), format="parquet"
        ).to_table().sort_by(
            [("kind", "ascending"), ("host", "ascending"),
             ("url", "ascending"), ("round", "ascending")]
        )

    fresh_dir = str(tmp_path / "fresh")
    run_crawl(
        CrawlConfig(unit_corpus, fresh_dir, seen_shards=4, store_shards=2)
    )
    fresh = collect(fresh_dir)

    store = PageStorePool(
        os.path.join(unit_corpus, "pages.parquet"), 2
    )
    seen = SeenPool(4)
    try:
        for name in ("pooled1", "pooled2"):
            d = str(tmp_path / name)
            run_crawl(
                CrawlConfig(
                    unit_corpus, d, seen_shards=4, store_shards=2
                ),
                store_pool=store,
                seen_pool=seen,
            )
            assert collect(d).equals(fresh), name
    finally:
        store.shutdown()
        seen.shutdown()
    assert fresh.num_rows > 0


@pytest.mark.usefixtures("ray_session")
def test_recrawl_matches_simulator(unit_corpus, tmp_path):
    """The λ-scheduled refresh crawl (run_recrawl) must replay exactly
    like oracle/sim.py::simulate_recrawl: identical per-host fetch
    sequences (url, priority, churn status), identical ROUND assignment
    (the due-round gate in _plan_bucket), and at least one host must be
    deferred past round 0 so the freshness schedule is actually
    exercised."""
    from crawler_ai_ray.oracle.sim import simulate_recrawl
    from crawler_ai_ray.pipelines.crawl import (
        read_crawl_output,
        run_recrawl,
    )

    policy = CrawlPolicy()
    out_dir = str(tmp_path / "crawl")
    _run_engine(unit_corpus, out_dir, policy)
    rout = str(tmp_path / "recrawl")
    totals = run_recrawl(
        unit_corpus, out_dir, rout, policy=CrawlPolicy(), store_shards=2
    )
    sim = simulate_recrawl(unit_corpus, CrawlPolicy())

    assert totals["fetched"] == len(sim.fetch_log) and totals["errors"] == 0

    eng = read_crawl_output(
        rout,
        columns=[
            "kind", "host", "url", "round", "host_seq", "priority",
            "status", "success",
        ],
        filter=pc.field("kind") == "o",
    ).to_pylist()

    def key(rows):
        out: dict[str, list] = {}
        for r in sorted(rows, key=lambda r: (r["host"], r["host_seq"])):
            out.setdefault(r["host"], []).append(
                (
                    r["host_seq"], r["url"], r["round"], r["priority"],
                    r["status"], bool(r["success"]),
                )
            )
        return out

    eng_k, sim_k = key(eng), key(sim.fetch_log)
    assert set(eng_k) == set(sim_k)
    for host in sim_k:
        assert eng_k[host] == sim_k[host], f"recrawl differs for {host}"

    # the schedule must be non-trivial: hosts spread over >1 due round,
    # and within a host changed urls fetch before same-status ones
    dues = {s["due_round"] for s in sim.host_stats.values()}
    assert len(dues) > 1, f"degenerate λ schedule: {dues}"
    for host, rows in sim_k.items():
        statuses = [r[4] for r in rows]
        if "changed" in statuses and "same" in statuses:
            assert statuses.index("changed") < statuses.index("same")


def test_host_recrawl_plan_edges():
    """Pure-rule edge cases: all-removed hosts get an empty queue; a
    zero-changed host gets λ=0 and the max due round; ordering is
    kept-in-fetch-order then added-by-url."""
    from crawler_ai_ray.functions.freshness import (
        RECRAWL_MAX_DUE,
        host_recrawl_plan,
        url_churn_sel,
    )

    urls = [f"https://h.test/p{i}" for i in range(200)]
    plan = host_recrawl_plan(urls)
    sels = [url_churn_sel(u) for u in urls]
    assert plan["n_common"] == sum(1 for s in sels if s in (1, 2))
    assert plan["n_changed"] == sum(1 for s in sels if s == 1)
    assert len(plan["queue"]) == sum(1 for s in sels if s != 0)
    # seqs are 0..n-1 in construction order; added urls sorted
    seqs = [e[1] for e in plan["queue"]]
    assert seqs == list(range(len(seqs)))
    added = [e[2] for e in plan["queue"] if e[3] == "added"]
    assert added == sorted(added)
    kept = [e[2] for e in plan["queue"] if e[3] != "added"]
    assert kept == [u for u, s in zip(urls, sels) if s in (1, 2)]

    removed_only = [u for u, s in zip(urls, sels) if s == 0]
    p0 = host_recrawl_plan(removed_only)
    assert p0["queue"] == [] and p0["n_changed"] == 0
    assert p0["lam_micro"] == 0 and p0["due_round"] == RECRAWL_MAX_DUE


@pytest.mark.usefixtures("ray_session")
def test_recrawl_resume_matches_uninterrupted(unit_corpus, tmp_path):
    """Stop the λ-scheduled recrawl after a few rounds, resume, and the
    final o-row log must equal an uninterrupted run's."""
    from crawler_ai_ray.pipelines.crawl import (
        read_crawl_output,
        run_recrawl,
    )

    crawl_dir = str(tmp_path / "crawl")
    _run_engine(unit_corpus, crawl_dir, CrawlPolicy())

    def olog(d):
        t = read_crawl_output(
            d,
            columns=["kind", "host", "url", "round", "host_seq",
                     "priority", "status"],
            filter=pc.field("kind") == "o",
        )
        return sorted(map(tuple, zip(*[t[c].to_pylist()
                                       for c in t.column_names])))

    full_dir = str(tmp_path / "rc_full")
    run_recrawl(unit_corpus, crawl_dir, full_dir, store_shards=2)
    full = olog(full_dir)

    part_dir = str(tmp_path / "rc_part")
    run_recrawl(
        unit_corpus, crawl_dir, part_dir, store_shards=2, max_rounds=3
    )
    totals = run_recrawl(
        unit_corpus, crawl_dir, part_dir, store_shards=2, resume=True
    )
    assert olog(part_dir) == full
    # resuming a FINISHED run is a cheap no-op with correct tallies
    again = run_recrawl(
        unit_corpus, crawl_dir, part_dir, store_shards=2, resume=True
    )
    assert again["fetched"] == totals["fetched"]


@pytest.mark.usefixtures("ray_session")
def test_recrawl_resumes_from_countless_init_manifest(unit_corpus, tmp_path):
    """An init manifest without q/s/o counts (``{"round": -1, "rows":
    N}``, as older engines wrote it) is an open round: the resumed
    recrawl starts over and equals an uninterrupted run."""
    import json
    import shutil

    from crawler_ai_ray.pipelines.crawl import read_crawl_output, run_recrawl

    crawl_dir = str(tmp_path / "crawl")
    _run_engine(unit_corpus, crawl_dir, CrawlPolicy())

    def olog(d):
        t = read_crawl_output(
            d, columns=["host", "url", "round", "host_seq", "status"],
            filter=pc.field("kind") == "o",
        )
        return sorted(map(tuple, zip(*[t[c].to_pylist()
                                       for c in t.column_names])))

    full_dir = str(tmp_path / "rc_full")
    full_totals = run_recrawl(unit_corpus, crawl_dir, full_dir, store_shards=2)
    part_dir = str(tmp_path / "rc_part")
    shutil.copytree(full_dir, part_dir)
    for d in os.listdir(part_dir):
        if d.startswith("round=") and "-" not in d:
            shutil.rmtree(os.path.join(part_dir, d))
    init = os.path.join(part_dir, "round=-001", "_MANIFEST.json")
    with open(init) as f:
        m = json.load(f)
    with open(init, "w") as f:
        json.dump({"round": -1, "rows": m["q"] + m["s"]}, f)
    totals = run_recrawl(
        unit_corpus, crawl_dir, part_dir, store_shards=2, resume=True
    )
    assert totals == full_totals
    assert olog(part_dir) == olog(full_dir)


@pytest.mark.usefixtures("ray_session")
def test_tallies_match_o_row_scan(unit_corpus, tmp_path):
    """``fetched`` / ``errors`` come from the round manifests; they must
    equal a scan of every checkpoint's o-rows after a fresh crawl, a
    resumed crawl, a recrawl and a resume of a finished recrawl."""
    from crawler_ai_ray.pipelines.crawl import (
        CrawlConfig,
        read_crawl_output,
        run_crawl,
        run_recrawl,
    )

    def scan(out_dir):
        ok = read_crawl_output(
            out_dir, columns=["success"], filter=pc.field("kind") == "o"
        )["success"].to_pylist()
        return {"fetched": sum(ok), "errors": len(ok) - sum(ok)}

    def tallies(totals):
        return {k: totals[k] for k in ("fetched", "errors")}

    crawl_dir = str(tmp_path / "crawl")
    cfg = dict(policy=CrawlPolicy(), seen_shards=4, store_shards=2)
    fresh = run_crawl(CrawlConfig(unit_corpus, crawl_dir, max_rounds=3, **cfg))
    assert tallies(fresh) == scan(crawl_dir)
    resumed = run_crawl(CrawlConfig(unit_corpus, crawl_dir, **cfg), resume=True)
    assert tallies(resumed) == scan(crawl_dir)
    assert resumed["fetched"] > fresh["fetched"] and resumed["errors"] > 0

    rc_dir = str(tmp_path / "recrawl")
    recrawl = run_recrawl(unit_corpus, crawl_dir, rc_dir, store_shards=2)
    assert recrawl["fetched"] > 0 and tallies(recrawl) == scan(rc_dir)
    again = run_recrawl(
        unit_corpus, crawl_dir, rc_dir, store_shards=2, resume=True
    )
    assert tallies(again) == tallies(recrawl)


def _deterministic(m):
    """A manifest without its wall-clock fields (and with its input
    round as a directory name, not a path)."""
    m = dict(m, input=os.path.basename(m["input"]))
    m.pop("wall_ms")
    m["partitions"] = [
        {k: v for k, v in p.items() if k != "wall_ms" and k not in PHASES}
        for p in m["partitions"]
    ]
    return m


def _seen_by_round(out_dir):
    import pyarrow.parquet as pq

    root = os.path.join(out_dir, "seen")
    return {
        d: sorted(
            u
            for f in sorted(os.listdir(os.path.join(root, d)))
            for u in pq.read_table(os.path.join(root, d, f))["url"].to_pylist()
        )
        for d in sorted(os.listdir(root))
    }


@pytest.mark.usefixtures("ray_session")
def test_resume_from_overlapped_boundary(unit_corpus, tmp_path):
    """The driver dispatches round r+1 before it dumps round r's seen
    delta and writes round r's manifest.  A crash there leaves round
    r+1's partial output, no round-r manifest or delta, and maybe their
    temp files; resuming must give the uninterrupted run's fetch log,
    seen deltas and manifests (``seen_total`` included)."""
    import shutil

    from crawler_ai_ray.pipelines.crawl import CrawlConfig, run_crawl

    full_dir = str(tmp_path / "full")
    full_totals = run_crawl(CrawlConfig(
        unit_corpus, full_dir, seen_shards=4, store_shards=2,
        local_round_rows=0, buckets=8,
    ))
    full_manifests = round_manifests(full_dir)
    r = 2
    assert len(full_manifests) > r + 2

    part_dir = str(tmp_path / "part")
    shutil.copytree(full_dir, part_dir)
    rdir = lambda n: os.path.join(part_dir, f"round={n:04d}")
    seen_dir = lambda n: os.path.join(part_dir, "seen", f"round={n:04d}")
    for n in range(r + 2, len(full_manifests)):
        shutil.rmtree(rdir(n))
    for n in range(r, len(full_manifests)):
        shutil.rmtree(seen_dir(n))
    os.remove(os.path.join(rdir(r), "_MANIFEST.json"))
    os.remove(os.path.join(rdir(r + 1), "_MANIFEST.json"))
    # round r+1 ran part of its buckets
    parts = sorted(
        os.path.join(root, f)
        for root, _d, files in os.walk(rdir(r + 1)) for f in files
    )
    for f in parts[::2]:
        os.remove(f)
    # the interrupted bookkeeping's temp files
    with open(os.path.join(rdir(r), "_MANIFEST.json.tmp"), "w") as f:
        f.write('{"round": ')
    os.makedirs(seen_dir(r))
    with open(os.path.join(seen_dir(r), "shard-0000.parquet.tmp"), "wb") as f:
        f.write(b"PAR1")

    totals = run_crawl(
        CrawlConfig(unit_corpus, part_dir, seen_shards=4, store_shards=2,
                    local_round_rows=0, buckets=8),
        resume=True,
    )
    assert totals == full_totals
    assert _by_host(_engine_log(part_dir)) == _by_host(_engine_log(full_dir))
    assert _seen_by_round(part_dir) == _seen_by_round(full_dir)
    assert [_deterministic(m) for m in round_manifests(part_dir)] == [
        _deterministic(m) for m in full_manifests
    ]
    assert full_manifests[-1]["seen_total"] == full_totals["seen_total"] == sum(
        map(len, _seen_by_round(full_dir).values())
    )


@pytest.mark.usefixtures("ray_session")
def test_round_walls_tile_the_crawl(unit_corpus, tmp_path):
    """A round's ``wall_ms`` runs from its dispatch to the return of
    its last bucket, so the rounds never overlap: their sum is at most
    the crawl's wall.  Every partition record carries its phase times,
    which sum to at most its own ``wall_ms``."""
    import time

    from crawler_ai_ray.pipelines.crawl import CrawlConfig, run_crawl

    for name, local_rows in (("dist", 0), ("mixed", 64)):
        out_dir = str(tmp_path / name)
        t = time.perf_counter()
        run_crawl(CrawlConfig(unit_corpus, out_dir, seen_shards=4,
                              store_shards=2, local_round_rows=local_rows,
                              buckets=8))
        wall_ms = (time.perf_counter() - t) * 1000
        ms = round_manifests(out_dir)
        assert sum(m["wall_ms"] for m in ms) <= wall_ms
        for m in ms:
            for p in m["partitions"]:
                assert p["wall_ms"] <= m["wall_ms"] + 0.1
                assert all(p[k] >= 0 for k in PHASES)
                assert sum(p[k] for k in PHASES) <= p["wall_ms"] + 0.4


@pytest.mark.usefixtures("ray_session")
def test_queue_and_state_rows_hold_no_payload(unit_corpus, tmp_path):
    """The checkpoint read decodes only ``_QS_SCHEMA``, so every other
    column must be null on every q and s row of a crawl and a recrawl.
    The writer keeps every key of a row dict, so the files show what
    the q/s dicts of the init, the plan, the expansion and the recrawl
    init hold."""
    import pyarrow.dataset as pads

    from crawler_ai_ray.pipelines.crawl import (
        _QS_SCHEMA,
        CRAWL_SCHEMA,
        CrawlConfig,
        crawl_output_files,
        run_crawl,
        run_recrawl,
    )

    crawl_dir, rc_dir = str(tmp_path / "crawl"), str(tmp_path / "recrawl")
    run_crawl(CrawlConfig(unit_corpus, crawl_dir, seen_shards=4, store_shards=2))
    run_recrawl(unit_corpus, crawl_dir, rc_dir, store_shards=2)
    rest = [n for n in CRAWL_SCHEMA.names if n not in _QS_SCHEMA.names]
    assert "success" in rest and "text" in rest and "round" in rest
    for d in (crawl_dir, rc_dir):
        t = pads.dataset(
            crawl_output_files(d, include_init=True), format="parquet"
        ).to_table(filter=pc.field("kind").isin(["q", "s"]))
        assert set(t["kind"].to_pylist()) == {"q", "s"}
        for n in rest:
            assert t[n].null_count == t.num_rows, (d, n)
