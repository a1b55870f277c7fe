"""URL-seen state: cuckoo-filter properties (no false negatives,
bounded false positives, dump/restore), the scalable chain past its
capacity, shard semantics (exact mode holds no filter), and an
approximate-seen crawl run (ST1 scale path)."""

from __future__ import annotations

import numpy as np
import pytest

from crawler_ai_ray.state.seen import (
    CuckooFilter,
    ScalableCuckooFilter,
    UrlSeenShard,
    _hash_urls,
    shard_for_host,
)


class TestCuckooFilter:
    def test_no_false_negatives(self):
        f = CuckooFilter(capacity=1 << 14)
        urls = [f"https://h{i % 97}.vn/page/{i}" for i in range(5000)]
        h = _hash_urls(urls)
        f.add_many(h)
        assert not f.overflowed
        assert f.contains_many(h).all()

    def test_false_positive_rate_bounded(self):
        f = CuckooFilter(capacity=1 << 14)
        f.add_many(_hash_urls([f"https://a.vn/{i}" for i in range(5000)]))
        other = _hash_urls([f"https://b.vn/{i}" for i in range(20000)])
        fp_rate = f.contains_many(other).mean()
        # 16-bit fingerprints, 8 slots probed → ~8/2^16 ≈ 0.012%
        assert fp_rate < 0.005

    def test_deterministic(self):
        a, b = CuckooFilter(1 << 12), CuckooFilter(1 << 12)
        h = _hash_urls([f"u{i}" for i in range(1000)])
        a.add_many(h)
        b.add_many(h)
        assert np.array_equal(a.table, b.table)


    def test_failed_insert_keeps_every_placed_key(self):
        """A key the eviction walk cannot place comes back with the rest
        of the batch, and the walk's evictions are undone."""
        f = CuckooFilter(capacity=64)
        h = _hash_urls([f"https://a.vn/{i}" for i in range(200)])
        rest = f.add_many(h)
        placed = h[: len(h) - len(rest)]
        assert f.overflowed and len(rest) and f.count == len(placed)
        assert f.contains_many(placed).all()


class TestScalableCuckooFilter:
    def test_ten_times_capacity_no_false_negatives(self):
        cap = 1 << 10
        f = ScalableCuckooFilter(capacity=cap)
        h = _hash_urls([f"https://a.vn/{i}" for i in range(10 * cap)])
        for i in range(0, len(h), 500):
            f.add_many(h[i:i + 500])
        assert len(f.filters) > 1
        assert f.count == len(h)
        assert f.contains_many(h).all()
        other = _hash_urls([f"https://b.vn/{i}" for i in range(200_000)])
        # 16-bit fingerprints, 8 slots probed per filter
        assert f.contains_many(other).mean() <= len(f.filters) * 8 / 2**16

    def test_dump_restore_carries_every_filter(self):
        f = ScalableCuckooFilter(capacity=256)
        h = _hash_urls([f"u{i}" for i in range(3000)])
        f.add_many(h)
        g = ScalableCuckooFilter(capacity=256)
        g.restore(f.dump())
        assert len(g.filters) == len(f.filters) > 1
        for a, b in zip(f.filters, g.filters):
            assert np.array_equal(a.table, b.table)
        assert g.count == f.count
        assert g.contains_many(h).all()


class TestUrlSeenShard:
    def test_exact_anti_join_and_within_batch_dedup(self):
        s = UrlSeenShard(exact=True)
        out = s.check_and_add(["u1", "u2", "u1"])
        assert out == [True, True, False]
        assert s.check_and_add(["u2", "u3"]) == [False, True]
        assert s.n_seen() == 3

    def test_approximate_within_batch_dedup(self):
        s = UrlSeenShard(exact=False)
        out = s.check_and_add(["u1", "u2", "u1"])
        assert out == [True, True, False]
        assert s.check_and_add(["u1"]) == [False]

    def test_delta_dump_restore_roundtrip(self):
        s = UrlSeenShard(exact=True)
        s.check_and_add(["a", "b"])
        d1 = s.dump_delta()
        s.check_and_add(["c"])
        d2 = s.dump_delta()
        assert d1["url"].to_pylist() == ["a", "b"]
        assert d2["url"].to_pylist() == ["c"]
        r = UrlSeenShard(exact=True)
        r.restore(d1)
        r.restore(d2)
        assert r.check_and_add(["a", "c", "new"]) == [False, False, True]

    def test_exact_mode_holds_no_filter(self):
        s = UrlSeenShard(capacity=1 << 12, exact=True)
        s.check_and_add(["a", "b"])
        s.restore(s.dump())
        assert s.filter is None
        s.reset()
        assert s.filter is None and s.capacity == 1 << 12 and s.n_seen() == 0

    def test_approximate_reset_keeps_capacity(self):
        s = UrlSeenShard(capacity=1 << 12, exact=False)
        s.check_and_add([f"u{i}" for i in range(1 << 13)])
        assert len(s.filter.filters) > 1
        s.reset()
        assert [f.n_buckets * 4 for f in s.filter.filters] == [1 << 12]
        assert s.n_seen() == 0

    def test_approximate_no_false_negatives_past_capacity(self):
        s = UrlSeenShard(capacity=1 << 10, exact=False)
        urls = [f"https://h.vn/p/{i}" for i in range(1100)]
        assert all(s.check_and_add(urls))
        assert not any(s.check_and_add(urls))
        r = UrlSeenShard(capacity=1 << 10, exact=False)
        r.restore(s.dump())
        assert not any(r.check_and_add(urls))
        d = UrlSeenShard(capacity=1 << 10, exact=False)
        d.restore(s.dump_delta())
        assert d.exact is None and not any(d.check_and_add(urls))

    def test_shard_routing_stable(self):
        assert shard_for_host("acme.vn", 8) == shard_for_host("acme.vn", 8)
        assert 0 <= shard_for_host("x.vn", 8) < 8


@pytest.mark.usefixtures("ray_session")
def test_crawl_with_approximate_seen_matches_exact(unit_corpus, tmp_path):
    """ST1 scale path: the cuckoo-only (approximate) URL-seen run must
    match the exact run at unit scale — the filter's false positives
    (the only error mode: a fresh URL wrongly dropped) are ~1e-4 and do
    not fire on the unit corpus."""
    import pyarrow.compute as pc
    from crawler_ai_ray.pipelines.crawl import (
        CrawlConfig,
        read_crawl_output,
        run_crawl,
    )

    logs = {}
    for name, exact in (("exact", True), ("approx", False)):
        out = str(tmp_path / name)
        run_crawl(
            CrawlConfig(
                unit_corpus, out, seen_shards=4, store_shards=2,
                exact_seen=exact,
            )
        )
        logs[name] = (
            read_crawl_output(
                out,
                columns=["host", "url", "host_seq", "success"],
                filter=pc.field("kind") == "o",
            )
            .sort_by([("host", "ascending"), ("host_seq", "ascending")])
            .to_pylist()
        )
    assert logs["approx"] == logs["exact"]


def test_check_and_add_epoch_idempotent():
    """A retried bucket task (same epoch) must replay its ORIGINAL
    answer — not see its own first attempt's marks — while a new epoch
    observes the post-attempt state; old rounds' cache entries prune."""
    from crawler_ai_ray.state.seen import UrlSeenShard

    sh = UrlSeenShard(exact=True)
    urls = [f"https://h.com/p{i}" for i in range(5)]
    first = sh.check_and_add(urls, epoch="3:7:0")
    assert first == [True] * 5
    # retry: identical answer, no state change
    assert sh.check_and_add(urls, epoch="3:7:0") == first
    assert sh.n_seen() == 5
    # a different epoch sees them as already-seen
    assert sh.check_and_add(urls, epoch="3:8:0") == [False] * 5
    # next round prunes older entries, then caches its own
    sh.check_and_add(["https://h.com/new"], epoch="4:0:0")
    assert "3:7:0" not in sh._epoch_cache
    assert "4:0:0" in sh._epoch_cache
    # epoch-less calls bypass the cache entirely (legacy behavior)
    assert sh.check_and_add(["https://h.com/x"]) == [True]
    assert sh.check_and_add(["https://h.com/x"]) == [False]


@pytest.mark.parametrize("exact", [True, False])
class TestRoundJournal:
    """The journal is keyed by the round in each call's epoch, so the
    crawl driver can dump round r while round r+1's calls arrive."""

    def test_interleaved_rounds_dump_their_own_urls(self, exact):
        s = UrlSeenShard(exact=exact)
        s.check_and_add(["seed"], "init:seed")
        s.check_and_add(["a", "b"], "0:0:0")
        # round 1 calls arrive before round 0's dump
        assert s.check_and_add(["c", "a"], "1:0:0") == [True, False]
        s.check_and_add(["d"], "1:1:0")
        assert s.dump_delta(0)["url"].to_pylist() == ["a", "b", "seed"]
        s.check_and_add(["e", "d"], "2:0:0")
        assert s.dump_delta(1)["url"].to_pylist() == ["c", "d"]
        assert s.dump_delta(2)["url"].to_pylist() == ["e"]
        assert s.dump_delta(3).num_rows == 0

    def test_replayed_epoch_adds_nothing(self, exact):
        s = UrlSeenShard(exact=exact)
        urls = [f"https://h.vn/{i}" for i in range(6)]
        first = s.check_and_add(urls, "4:2:0")
        assert s.dump_delta(4).num_rows == 6
        assert s.check_and_add(urls, "4:2:0") == first
        assert s.dump_delta(4).num_rows == 0
        assert s.dump_delta().num_rows == 0 and s.n_seen() == 6

    def test_dump_delta_without_round_takes_everything(self, exact):
        s = UrlSeenShard(exact=exact)
        s.check_and_add(["y"], "5:0:0")
        s.check_and_add(["x"], "0:3:1")
        s.check_and_add(["z"])
        s.check_and_add(["w"], "init:seed")
        assert s.dump_delta()["url"].to_pylist() == ["w", "x", "y", "z"]
        assert s.dump_delta().num_rows == 0

    def test_replaying_deltas_in_order_rebuilds_the_set(self, exact):
        s = UrlSeenShard(exact=exact)
        s.check_and_add([f"s{i}" for i in range(3)], "init:seed")
        deltas = []
        for rnd in range(4):
            s.check_and_add([f"r{rnd}-{i}" for i in range(5)], f"{rnd}:0:0")
            # the next round's call lands before this round's dump
            s.check_and_add([f"r{rnd + 1}-x", "s0"], f"{rnd + 1}:1:0")
            deltas.append(s.dump_delta(rnd))
        deltas.append(s.dump_delta())
        r = UrlSeenShard(exact=exact)
        for d in deltas:
            r.restore(d)
        assert r.n_seen() == s.n_seen() == 3 + 4 * 6
        if exact:
            assert r.dump().equals(s.dump())
        every = [u for d in deltas for u in d["url"].to_pylist()]
        assert len(every) == len(set(every)) == s.n_seen()
        assert not any(r.check_and_add(every))


@pytest.mark.usefixtures("ray_session")
def test_pool_dump_writes_shard_files(tmp_path):
    """Each shard writes its own delta file; ``SeenPool.dump`` returns
    after every file exists, with the rows written, and leaves no temp
    file."""
    import os

    import pyarrow.parquet as pq
    import ray

    from crawler_ai_ray.state.seen import SeenPool

    pool = SeenPool(2)
    try:
        ray.get([
            pool.shards[0].check_and_add.remote(["a", "b"], "0:0:0"),
            pool.shards[1].check_and_add.remote(["c"], "0:1:0"),
            pool.shards[1].check_and_add.remote(["d"], "1:1:0"),
        ])
        out = str(tmp_path / "round=0000")
        assert pool.dump(out, rnd=0) == 3
        assert sorted(os.listdir(out)) == ["shard-0000.parquet", "shard-0001.parquet"]
        got = [pq.read_table(os.path.join(out, f))["url"].to_pylist()
               for f in sorted(os.listdir(out))]
        assert got == [["a", "b"], ["c"]]
        assert pool.dump(str(tmp_path / "round=0001"), rnd=1) == 1
    finally:
        pool.shutdown()
