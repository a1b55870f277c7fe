"""Crawl-snapshot delta: what changed between two crawls of the same
url space — the incremental-recrawl primitive (a CommonCrawl-style
monthly-snapshot diff, and the scheduling signal a recrawl prioritizer
consumes: re-fetch `changed` hosts sooner, drop `removed` ones).

Reference parity: the reference re-crawls a site and overwrites its
per-company JSON report (app/services/crawler.py history handling,
main.py report sink); diffing two report generations is the batch
generalization of that per-site freshness check.

Scale shape (100 TB framing):

* page TEXT never shuffles — each side reduces per batch to
  (url, fp) where fp is a 32-hex md5 of the content (16 bytes vs ~50 KB
  mean page text, a ~3000× exchange-volume cut);
* one bucketed shuffle on ``crc32(url) % num_buckets`` co-locates a
  url's two sides exactly (a url lives in one bucket), then Arrow's
  C++ ``full outer`` join + vectorized null/equality kernels classify
  inside each bucket task;
* the join key inside the bucket is the url STRING, so two urls
  colliding into one bucket (or even one crc32 value) can never
  mis-pair — bucketing only places rows, it never decides matches;
* output is the DELTA only (added / removed / changed) — snapshot-
  sized input, delta-sized output, so the result streams to a sink
  without ever materializing the common (`same`) majority.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "snapshot_diff",
    "snapshot_diff_tagged",
    "snapshot_churn_tagged",
    "TAGGED_SCHEMA",
]

TAGGED_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("key", pa.string()),
        ("fp", pa.string()),
        ("is_a", pa.bool_()),
    ]
)

def snapshot_diff(ds_a, ds_b, key_col: str = "url", fp_col: str = "fp",
                  num_buckets: int = 64):
    """old snapshot ``ds_a`` vs new snapshot ``ds_b`` (each
    (key_col, fp_col) rows, key unique per side) → (url, status) with
    status ∈ {added, removed, changed}; unchanged keys emit nothing.
    """
    import ray

    def tag(is_a: bool):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:  # Ray emits schema-less empty blocks
                return pa.table(
                    {
                        "bucket": pa.array([], pa.int32()),
                        "key": pa.array([], pa.string()),
                        "fp": pa.array([], pa.string()),
                        "is_a": pa.array([], pa.bool_()),
                    }
                )
            keys = batch[key_col].to_pylist()
            bk = np.array(
                [zlib.crc32(k.encode()) % num_buckets for k in keys],
                dtype=np.int32,
            )
            return pa.table(
                {
                    "bucket": pa.array(bk, pa.int32()),
                    "key": pc.cast(batch[key_col], pa.string()),
                    "fp": pc.cast(batch[fp_col], pa.string()),
                    "is_a": pa.array(
                        np.full(batch.num_rows, is_a), pa.bool_()
                    ),
                }
            )

        return fn

    both = ds_a.map_batches(tag(True), batch_format="pyarrow").union(
        ds_b.map_batches(tag(False), batch_format="pyarrow")
    )
    return snapshot_diff_tagged(both, num_buckets=num_buckets)


def snapshot_diff_tagged(both, num_buckets: int = 64):
    """Diff over a PRE-TAGGED union: rows in ``TAGGED_SCHEMA``
    (bucket = crc32(key) % num_buckets, is_a marks the old side).

    Split out so callers that derive BOTH snapshots from one upstream
    pass (e.g. two selector views of the same crawl output) can emit
    the tagged union in a single ``map_batches`` — consuming a lazy
    Dataset through two branch pipelines recomputes the whole upstream
    per branch (Ray Datasets have no cross-consumer caching)."""

    def diff_bucket(g: pa.Table) -> pa.Table:
        mask = g["is_a"]
        a = g.filter(mask).select(["key", "fp"]).rename_columns(
            ["url", "fp_a"]
        )
        b = g.filter(pc.invert(mask)).select(["key", "fp"]).rename_columns(
            ["url", "fp_b"]
        )
        j = a.join(b, keys="url", join_type="full outer")
        added = pc.is_null(j["fp_a"])
        removed = pc.is_null(j["fp_b"])
        status = pc.if_else(
            added,
            "added",
            pc.if_else(
                removed,
                "removed",
                pc.if_else(
                    pc.not_equal(j["fp_a"], j["fp_b"]), "changed", "same"
                ),
            ),
        )
        out = pa.table({"url": j["url"], "status": status})
        return out.filter(pc.not_equal(out["status"], "same"))

    return both.groupby("bucket").map_groups(
        diff_bucket, batch_format="pyarrow"
    )


# --- combined delta + host-churn pass (one exchange for the pair) ----------

CHURN_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),       # 'd' = per-url delta, 'h' = host partial
        ("url", pa.string()),        # 'd' rows only
        ("status", pa.string()),     # 'd' rows only
        ("host", pa.string()),       # 'h' rows only
        ("n_pages_b", pa.int64()),   # 'h' rows only …
        ("n_added", pa.int64()),
        ("n_removed", pa.int64()),
        ("n_changed", pa.int64()),
    ]
)


def snapshot_churn_tagged(both, num_buckets: int = 64):
    """ONE url-bucketed exchange that serves BOTH snapshot consumers:
    the per-url delta rows (``kind='d'``: url, status — exactly
    `snapshot_diff_tagged`'s output) and the per-host churn partials
    (``kind='h'``: host, n_pages_b/n_added/n_removed/n_changed — the
    partial counts `crawl_recrawl_priority` folds driver-side).

    Why combined: a lazy Dataset consumed through two branch pipelines
    recomputes the upstream extraction per branch, and two independent
    ``groupby('bucket')`` runs pay the all-to-all exchange twice
    (~2 s each at sf0.1).  The full-outer join and null/equality
    classification happen ONCE per bucket; both projections are
    derived from the same joined frame.  A host's urls spread across
    buckets, so 'h' rows are PARTIALS — the consumer sums them
    (host cardinality is bounded exactly as in the link-graph ops).

    Scale: text never shuffles (16-byte fps travel); output is
    delta-sized + host-sized, the 'same' majority never leaves the
    bucket task."""

    def churn_bucket(g: pa.Table) -> pa.Table:
        empty = CHURN_SCHEMA.empty_table()
        if g.num_rows == 0 or "is_a" not in g.column_names:
            return empty
        mask = g["is_a"]
        a = g.filter(mask).select(["key", "fp"]).rename_columns(
            ["url", "fp_a"]
        )
        b = g.filter(pc.invert(mask)).select(["key", "fp"]).rename_columns(
            ["url", "fp_b"]
        )
        j = a.join(b, keys="url", join_type="full outer")
        added = pc.is_null(j["fp_a"])
        removed = pc.is_null(j["fp_b"])
        # not_equal is NULL on outer rows — Kleene False-wins keeps the
        # count exact (same convention as the split implementations)
        changed = pc.fill_null(
            pc.and_kleene(
                pc.and_(pc.invert(added), pc.invert(removed)),
                pc.not_equal(j["fp_a"], j["fp_b"]),
            ),
            False,
        )
        status = pc.if_else(
            added,
            "added",
            pc.if_else(
                removed,
                "removed",
                pc.if_else(changed, "changed", "same"),
            ),
        )
        dmask = pc.not_equal(status, "same")
        n_d = int(pc.sum(pc.cast(dmask, pa.int64())).as_py() or 0)
        delta = pa.table(
            {
                "kind": pa.array(["d"] * n_d, pa.string()),
                "url": j["url"].filter(dmask)
                if isinstance(j["url"], pa.ChunkedArray)
                else pc.filter(j["url"], dmask),
                "status": pc.filter(status, dmask),
                "host": pa.array([None] * n_d, pa.string()),
                "n_pages_b": pa.array([None] * n_d, pa.int64()),
                "n_added": pa.array([None] * n_d, pa.int64()),
                "n_removed": pa.array([None] * n_d, pa.int64()),
                "n_changed": pa.array([None] * n_d, pa.int64()),
            }
        )
        host = pc.list_element(pc.split_pattern(j["url"], "/"), 2)
        hp = (
            pa.table(
                {
                    "host": host,
                    "n_pages_b": pc.cast(pc.is_valid(j["fp_b"]), pa.int64()),
                    "n_added": pc.cast(added, pa.int64()),
                    "n_removed": pc.cast(removed, pa.int64()),
                    "n_changed": pc.cast(changed, pa.int64()),
                }
            )
            .group_by("host")
            .aggregate(
                [
                    ("n_pages_b", "sum"),
                    ("n_added", "sum"),
                    ("n_removed", "sum"),
                    ("n_changed", "sum"),
                ]
            )
        )
        n_h = hp.num_rows
        hrows = pa.table(
            {
                "kind": pa.array(["h"] * n_h, pa.string()),
                "url": pa.array([None] * n_h, pa.string()),
                "status": pa.array([None] * n_h, pa.string()),
                "host": hp["host"],
                "n_pages_b": pc.cast(hp["n_pages_b_sum"], pa.int64()),
                "n_added": pc.cast(hp["n_added_sum"], pa.int64()),
                "n_removed": pc.cast(hp["n_removed_sum"], pa.int64()),
                "n_changed": pc.cast(hp["n_changed_sum"], pa.int64()),
            }
        )
        return pa.concat_tables(
            [delta.cast(CHURN_SCHEMA), hrows.cast(CHURN_SCHEMA)]
        )

    return both.groupby("bucket").map_groups(
        churn_bucket, batch_format="pyarrow"
    )
