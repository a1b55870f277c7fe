"""Per-host URL-shape profiling — the crawl-trap / frontier-hygiene
signal.

Crawler traps (calendar pages, faceted search, session-id query params)
show up as hosts whose URL population is dominated by query-string
variants of few base paths, or by very deep paths.  A frontier
scheduler reads this profile to cap or de-prioritize suspect hosts
(reference behavior: the spider's per-domain page caps and URL-pattern
filters, crawler.py / career_pages_service.py; this operator is the
corpus-level generalization).

Shape: ONE vectorized RE2 pass over the url column (pyarrow and DuckDB
both run RE2, so the oracle's regexp_extract agrees byte-for-byte),
per-batch Arrow pre-agg keyed (host, base-path-hash) — base paths ride
the shuffle as 64-bit blake2b hashes, never strings — then one
host-bucket shuffle and an in-bucket rollup.  Adaptive driver finish
up to ``exchange.DRIVER_FINISH_MAX`` partial rows (house rule: never
shuffle tiny candidate sets).  All outputs are integers; trap_score is
a pure integer function of the aggregates so the SQL oracle reproduces
it exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import exchange

_HOST_RX = r"^[a-z]+://(?P<host>[^/]+)"
_PATH_RX = r"^[a-z]+://[^/]*(?P<p>/.*)$"


def _h64(strings: list[str]) -> np.ndarray:
    return np.array(
        [
            int.from_bytes(
                hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            for s in strings
        ],
        dtype=np.uint64,
    )


_EMPTY_PARTIAL = pa.table(
    {
        "host": pa.array([], pa.string()),
        "base_h": pa.array([], pa.uint64()),
        "n": pa.array([], pa.int64()),
        "q": pa.array([], pa.int64()),
        "d": pa.array([], pa.int64()),
        "bucket": pa.array([], pa.int32()),
    }
)

_EMPTY_OUT = pa.table(
    {
        "host": pa.array([], pa.string()),
        "n_urls": pa.array([], pa.int64()),
        "n_paths": pa.array([], pa.int64()),
        "n_query_urls": pa.array([], pa.int64()),
        "max_depth": pa.array([], pa.int64()),
        "trap_score": pa.array([], pa.int64()),
    }
)


def host_url_profile(
    pages_ds,
    num_buckets: int = 64,
) -> pa.Table:
    """pages(url) → (host, n_urls, n_paths, n_query_urls, max_depth,
    trap_score) with ``trap_score = n_query_urls·1000 // n_urls +
    max_depth·10`` (query-variant share in permille plus a depth
    penalty — integer, oracle-exact)."""

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_PARTIAL
        url = batch["url"]
        host = pc.fill_null(
            pc.utf8_lower(
                pc.struct_field(pc.extract_regex(url, _HOST_RX), "host")
            ),
            "",
        )
        base = pc.replace_substring_regex(url, r"\?.*$", "")
        has_q = pc.cast(
            pc.match_substring(url, "?"), pa.int64()
        )
        path = pc.fill_null(
            pc.struct_field(pc.extract_regex(url, _PATH_RX), "p"), ""
        )
        depth = pc.cast(pc.count_substring(path, "/"), pa.int64())
        bh = _h64(base.to_pylist())
        t = pa.table(
            {
                "host": host,
                "base_h": pa.array(bh, pa.uint64()),
                "q": has_q,
                "d": depth,
            }
        )
        g = t.group_by(["host", "base_h"]).aggregate(
            [("q", "count"), ("q", "sum"), ("d", "max")]
        )
        g = g.rename_columns(["host", "base_h", "n", "q", "d"])
        hh = _h64(g["host"].to_pylist())
        return g.append_column(
            "bucket",
            pa.array((hh % num_buckets).astype(np.int32), pa.int32()),
        )

    def finish(group: pa.Table) -> pa.Table:
        # re-merge batch partials of the same (host, base path) first
        m = group.group_by(["host", "base_h"]).aggregate(
            [("n", "sum"), ("q", "sum"), ("d", "max")]
        )
        agg = m.group_by("host").aggregate(
            [("n_sum", "sum"), ("base_h", "count"), ("q_sum", "sum"),
             ("d_max", "max")]
        )
        n_urls = pc.cast(agg["n_sum_sum"], pa.int64())
        n_paths = pc.cast(agg["base_h_count"], pa.int64())
        n_q = pc.cast(agg["q_sum_sum"], pa.int64())
        d = pc.cast(agg["d_max_max"], pa.int64())
        nu = n_urls.to_numpy(zero_copy_only=False)
        nq = n_q.to_numpy(zero_copy_only=False)
        dd = d.to_numpy(zero_copy_only=False)
        score = (nq * 1000) // np.maximum(nu, 1) + dd * 10
        return pa.table(
            {
                "host": agg["host"],
                "n_urls": n_urls,
                "n_paths": n_paths,
                "n_query_urls": n_q,
                "max_depth": d,
                "trap_score": pa.array(score.astype(np.int64), pa.int64()),
            }
        )

    return exchange.bucket_finish(
        pages_ds.map_batches(partials, batch_format="pyarrow"),
        finish,
        _EMPTY_OUT.schema,
    )
