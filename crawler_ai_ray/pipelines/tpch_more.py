"""TPC-H kernels Q2/Q7-Q12/Q17/Q19-Q21 — the remainder of the 22-query
suite, adapted to the testdata schema (no partsupp table, no
l_commitdate / l_receiptdate / l_shipmode / p_container columns), on
the same Ray-Data plan shapes as ``relational.py``:

* per-batch Arrow pre-aggregation (combiner) before ANY exchange;
* every fact-to-dimension join through ``exchange.join``: broadcast
  below ``exchange.BROADCAST_MAX`` build-side rows, else one bucketed
  shuffle (tests force it with the ``force_bucketed`` fixture), with
  the rollup as the join's per-batch / per-bucket combine so only
  partial rows leave the join;
* ``exchange.bucket_finish`` where a real all-to-all is unavoidable
  (the finish runs on the driver when the partials are few);
* money as integer cents (``relational.cents``: floor(x*100+0.5),
  bit-identical to the DuckDB oracle), ratios as one final division.

Schema adaptations (each noted on its query):
  Q2   ps_supplycost → min unit sale price min(cents(l_extendedprice
       / l_quantity)) per (part, supplier) observed in lineitem.
  Q4   (already in relational.py) commit<receipt → l_returnflag='R'.
  Q9   ps_supplycost → p_retailprice*l_quantity as the cost side;
       order year → ship year (avoids the orders join entirely).
  Q12  l_shipmode → l_linestatus as the grouping axis; "late" =
       l_shipdate > o_orderdate + 90 days.
  Q17  p_container → p_size <= N.
  Q19  container/shipmode predicates dropped; the 3-branch OR keeps
       (brand, size range, quantity range).
  Q20  ps_availqty > ½·shipped → total shipped centi-qty in the year
       > threshold.
  Q21  "kept orders waiting" = the unique 'R'-flagged supplier on a
       finished multi-supplier order.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages import exchange
from ..stages.exchange import blocks, bucket_finish, bucket_of, lookup
from .relational import _read, _supplier_nation_ref, cents

HIGH_PRIO = ("1-URGENT", "2-HIGH")


# ---------------------------------------------------------------------------
# shared dimension / broadcast helpers
# ---------------------------------------------------------------------------

def _nation_names(sf_dir: str):
    """(sorted nationkeys int64, aligned n_name StringArray)."""
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    nk = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nk)
    return nk[order], nat["n_name"].combine_chunks().take(pa.array(order))


def _region_nations(sf_dir: str, region: str) -> np.ndarray:
    """sorted nationkeys of one region (≤25-row driver-side resolve)."""
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = {
        n: k
        for k, n in zip(
            reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()
        )
    }[region]
    keep = nat.filter(pc.equal(nat["n_regionkey"], rkey))
    return np.sort(
        keep["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )


def _orders_cust_nation(
    sf_dir: str,
    nat_keys: np.ndarray,
    num_buckets: int,
    date_lo: str | None = None,
    date_hi: str | None = None,
    with_year: bool = False,
):
    """orders ⋈ customer(nation-filtered) → lazy Dataset of
    (o_orderkey, c_nation[, o_year]).  The Q5 first join, factored:
    the filtered (custkey, nationkey) pair list is the build side of
    an ``exchange.join``, so orders tag map-side (zero shuffle) under
    the broadcast budget."""
    lo = np.datetime64(date_lo, "us") if date_lo else None
    hi = np.datetime64(date_hi, "us") if date_hi else None

    cust = _read(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": pc.cast(b["c_custkey"], pa.int64()),
                "c_nation": pc.cast(b["c_nationkey"], pa.int64()),
            }
        ).filter(pc.is_in(b["c_nationkey"], value_set=pa.array(nat_keys))),
        batch_format="pyarrow",
    )
    ocols = ["o_orderkey", "o_custkey"] + (
        ["o_orderdate"] if (with_year or lo is not None) else []
    )

    def oprep(batch: pa.Table) -> pa.Table:
        if lo is not None:
            batch = batch.filter(
                pc.and_(
                    pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
                    pc.less(batch["o_orderdate"], pa.scalar(hi)),
                )
            )
        cols = {
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
        }
        if with_year:
            cols["o_year"] = pc.cast(
                pc.year(batch["o_orderdate"]), pa.int64()
            )
        return pa.table(cols)

    lschema = [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())] + (
        [("o_year", pa.int64())] if with_year else []
    )
    keep = ["o_orderkey", "c_nation"] + (["o_year"] if with_year else [])
    return exchange.join(
        _read(sf_dir, "orders", columns=ocols).map_batches(
            oprep, batch_format="pyarrow"
        ),
        cust,
        on="o_custkey",
        combine=lambda j: j.select(keep),
        num_buckets=num_buckets,
        left_schema=pa.schema(lschema),
        right_schema=pa.schema(
            [("o_custkey", pa.int64()), ("c_nation", pa.int64())]
        ),
        lazy=True,
    )


def _li_revenue_cents(batch: pa.Table) -> pa.Array:
    ep = pc.cast(batch["l_extendedprice"], pa.float64())
    disc = pc.cast(batch["l_discount"], pa.float64())
    return cents(pc.multiply(ep, pc.subtract(1.0, disc)))


def _part_keys(sf_dir: str, mask_fn, columns=("p_partkey",),
               mask_cols=("p_type", "p_size", "p_brand", "p_name")) -> pa.Table:
    """driver-side filtered part dim (part is the 30×-smaller side;
    the filtered set must fit the broadcast budget — same boundary as
    ``lineitem_part_revenue``'s dimension arrays).  ``mask_cols`` are
    read for the predicate only; the returned table keeps ``columns``."""
    keep = list(dict.fromkeys(list(columns) + ["p_partkey"]))
    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=list(dict.fromkeys(keep + list(mask_cols))),
    )
    return part.filter(mask_fn(part)).select(keep).combine_chunks()


# ---------------------------------------------------------------------------
# Q7 — volume shipping between two regions, by nation pair and year
# ---------------------------------------------------------------------------

def q7_volume_shipping(
    sf_dir: str,
    supp_region: str = "EUROPE",
    cust_region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1998-01-01",
    num_buckets: int = 32,
):
    """TPC-H Q7 shape — revenue shipped from supp_region suppliers to
    cust_region customers, by (supp_nation, cust_nation, ship year).
    Nation-pair filter generalized to region×region so the result is
    non-degenerate at tiny scale factors.

    Plan: supplier(region) broadcasts (Q5 precedent); customer join
    rides the factored ``_orders_cust_nation`` hybrid; lineitem
    pre-aggregates (orderkey, s_nation, year) partials per batch; the
    orderkey join is broadcast under the budget (cust-region orders ≈
    1/5 of orders) else ONE bucketed shuffle with the nation-pair
    rollup folded into the bucket task."""
    import ray

    lo, hi = np.datetime64(date_lo, "us"), np.datetime64(date_hi, "us")
    s_nats = _region_nations(sf_dir, supp_region)
    c_nats = _region_nations(sf_dir, cust_region)
    s_ref = _supplier_nation_ref(sf_dir, s_nats)
    names = _nation_names(sf_dir)

    tagged = _orders_cust_nation(sf_dir, c_nats, num_buckets)

    def li_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], pa.scalar(lo)),
                pc.less(batch["l_shipdate"], pa.scalar(hi)),
            )
        )
        sk, sn = ray.get(s_ref)
        ls = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        hit, idx = lookup(sk, ls)
        kept = batch.filter(pa.array(hit))
        t = pa.table(
            {
                "o_orderkey": kept["l_orderkey"],
                "supp_nation": pa.array(sn[idx[hit]], pa.int64()),
                "l_year": pc.cast(pc.year(kept["l_shipdate"]), pa.int64()),
                "revenue_cents": _li_revenue_cents(kept),
            }
        )
        return (
            t.group_by(["o_orderkey", "supp_nation", "l_year"])
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(
                ["o_orderkey", "supp_nation", "l_year", "revenue_cents"]
            )
        )

    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey", "l_suppkey", "l_shipdate",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    def pair_partial(joined: pa.Table) -> pa.Table:
        return (
            joined.select(
                ["supp_nation", "c_nation", "l_year", "revenue_cents"]
            )
            .group_by(["supp_nation", "c_nation", "l_year"])
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(
                ["supp_nation", "c_nation", "l_year", "revenue_cents"]
            )
        )

    parts = exchange.join(
        li,
        tagged,
        on="o_orderkey",
        combine=pair_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("supp_nation", pa.int64()),
                ("l_year", pa.int64()),
                ("revenue_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("c_nation", pa.int64())]
        ),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "supp_nation": pa.array([], pa.string()),
                "cust_nation": pa.array([], pa.string()),
                "l_year": pa.array([], pa.int64()),
                "revenue_cents": pa.array([], pa.int64()),
            }
        )
    tiny = (
        parts.group_by(["supp_nation", "c_nation", "l_year"])
        .aggregate([("revenue_cents", "sum")])
    )
    nk, nn = names
    sname = nn.take(
        pa.array(
            np.searchsorted(
                nk, tiny["supp_nation"].to_numpy(zero_copy_only=False)
            )
        )
    )
    cname = nn.take(
        pa.array(
            np.searchsorted(
                nk, tiny["c_nation"].to_numpy(zero_copy_only=False)
            )
        )
    )
    return pa.table(
        {
            "supp_nation": sname,
            "cust_nation": cname,
            "l_year": tiny["l_year"],
            "revenue_cents": pc.cast(
                tiny["revenue_cents_sum"], pa.int64()
            ),
        }
    ).sort_by(
        [
            ("supp_nation", "ascending"),
            ("cust_nation", "ascending"),
            ("l_year", "ascending"),
        ]
    )


# ---------------------------------------------------------------------------
# Q8 — national market share inside a region's market
# ---------------------------------------------------------------------------

def q8_market_share(
    sf_dir: str,
    region: str = "ASIA",
    target_nation: str = "NATION_2",
    p_type: str = "PROMO",
    date_lo: str = "1995-01-01",
    date_hi: str = "1997-01-01",
    num_buckets: int = 32,
):
    """TPC-H Q8 shape — of the revenue that ``region``'s customers
    spent on ``p_type`` parts per order year, the share supplied by
    ``target_nation``.  mkt_share is ONE final division of two integer
    cent sums (both also returned, so the hash check pins the exact
    integers, not just the float).

    Plan: type-filtered part keys broadcast; supplier→nation broadcast
    (is-target flag resolves map-side); customer/orders hybrid via
    ``_orders_cust_nation(with_year=True)``; lineitem pre-aggregates
    (orderkey, rev, rev_target) per batch; orderkey join broadcast
    under budget else one bucketed shuffle with the per-year rollup in
    the bucket task."""
    import ray

    part = _part_keys(
        sf_dir, lambda p: pc.equal(p["p_type"], p_type)
    )
    pk_set = np.sort(
        part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    pk_ref = ray.put(pk_set)
    s_ref = _supplier_nation_ref(sf_dir)
    nk, nn = _nation_names(sf_dir)
    tkey = int(
        nk[np.flatnonzero(pc.equal(nn, target_nation).to_numpy(
            zero_copy_only=False))[0]]
    )
    c_nats = _region_nations(sf_dir, region)

    tagged = _orders_cust_nation(
        sf_dir, c_nats, num_buckets,
        date_lo=date_lo, date_hi=date_hi, with_year=True,
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        pk = ray.get(pk_ref)
        lp = batch["l_partkey"].to_numpy(zero_copy_only=False)
        hit, _ = lookup(pk, lp)
        kept = batch.filter(pa.array(hit))
        sk, sn = ray.get(s_ref)
        shit, sidx = lookup(sk, kept["l_suppkey"].to_numpy(
            zero_copy_only=False))
        kept = kept.filter(pa.array(shit))
        is_t = sn[sidx[shit]] == tkey
        rev = _li_revenue_cents(kept)
        t = pa.table(
            {
                "o_orderkey": kept["l_orderkey"],
                "rev_cents": rev,
                "rev_t_cents": pc.if_else(
                    pa.array(is_t), rev, pa.scalar(0, pa.int64())
                ),
            }
        )
        return (
            t.group_by("o_orderkey")
            .aggregate([("rev_cents", "sum"), ("rev_t_cents", "sum")])
            .rename_columns(["o_orderkey", "rev_cents", "rev_t_cents"])
        )

    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    def year_partial(joined: pa.Table) -> pa.Table:
        return (
            joined.select(["o_year", "rev_cents", "rev_t_cents"])
            .group_by("o_year")
            .aggregate([("rev_cents", "sum"), ("rev_t_cents", "sum")])
            .rename_columns(["o_year", "rev_cents", "rev_t_cents"])
        )

    parts = exchange.join(
        li,
        tagged,
        on="o_orderkey",
        combine=year_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("rev_cents", pa.int64()),
                ("rev_t_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("c_nation", pa.int64()),
                ("o_year", pa.int64()),
            ]
        ),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "o_year": pa.array([], pa.int64()),
                "rev_target_cents": pa.array([], pa.int64()),
                "rev_total_cents": pa.array([], pa.int64()),
                "mkt_share": pa.array([], pa.float64()),
            }
        )
    tiny = (
        parts.group_by("o_year")
        .aggregate([("rev_t_cents", "sum"), ("rev_cents", "sum")])
    )
    tgt = tiny["rev_t_cents_sum"].to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    tot = tiny["rev_cents_sum"].to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    return pa.table(
        {
            "o_year": tiny["o_year"],
            "rev_target_cents": pa.array(tgt, pa.int64()),
            "rev_total_cents": pa.array(tot, pa.int64()),
            "mkt_share": pa.array(
                tgt.astype(np.float64) / tot.astype(np.float64), pa.float64()
            ),
        }
    ).sort_by("o_year")


# ---------------------------------------------------------------------------
# Q9 — product-type profit by nation and (ship) year — zero shuffles
# ---------------------------------------------------------------------------

def q9_product_profit(
    sf_dir: str,
    name_like: str = "red",
    num_buckets: int = 32,
):
    """TPC-H Q9 shape — profit on parts whose name contains
    ``name_like``, by (supplier nation, year).  Adapted: the missing
    ps_supplycost becomes p_retailprice*l_quantity, and the year is
    the SHIP year, which removes the orders join — the whole query is
    two dimension broadcasts and one streaming combiner pass (zero
    shuffles) below the part budget, one partkey-bucketed join above.

    profit_cents per row = floor((extprice*(1-disc) −
    retailprice*qty)*100 + .5), same expression the oracle evaluates —
    identical IEEE op order, so bit-identical sums."""
    import ray

    part = _part_keys(
        sf_dir,
        lambda p: pc.match_substring(p["p_name"], name_like),
        columns=("p_partkey", "p_retailprice"),
    )
    s_ref = _supplier_nation_ref(sf_dir)
    nk, nn = _nation_names(sf_dir)

    def profit_partial(t: pa.Table) -> pa.Table:
        """(l_suppkey, l_shipdate, ep, disc, qty, p_retailprice) rows →
        (nation, ship_year, profit_cents) partial."""
        sk, sn = ray.get(s_ref)
        shit, sidx = lookup(
            sk, t["l_suppkey"].to_numpy(zero_copy_only=False)
        )
        t = t.filter(pa.array(shit))
        nat = sn[sidx[shit]]
        ep = pc.cast(t["l_extendedprice"], pa.float64())
        disc = pc.cast(t["l_discount"], pa.float64())
        qty = pc.cast(t["l_quantity"], pa.float64())
        rp = pc.cast(t["p_retailprice"], pa.float64())
        amount = pc.subtract(
            pc.multiply(ep, pc.subtract(1.0, disc)), pc.multiply(rp, qty)
        )
        g = pa.table(
            {
                "nation": pa.array(nat, pa.int64()),
                "ship_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
                "profit_cents": cents(amount),
            }
        )
        return (
            g.group_by(["nation", "ship_year"])
            .aggregate([("profit_cents", "sum")])
            .rename_columns(["nation", "ship_year", "profit_cents"])
        )

    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_partkey", "l_suppkey", "l_shipdate",
            "l_extendedprice", "l_discount", "l_quantity",
        ],
    )
    parts = exchange.join(
        li,
        pa.table(
            {
                "l_partkey": pc.cast(part["p_partkey"], pa.int64()),
                "p_retailprice": pc.cast(part["p_retailprice"], pa.float64()),
            }
        ),
        on="l_partkey",
        combine=profit_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("l_shipdate", pa.timestamp("us")),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
                ("l_quantity", pa.float64()),
            ]
        ),
        right_schema=pa.schema(
            [("l_partkey", pa.int64()), ("p_retailprice", pa.float64())]
        ),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "n_name": pa.array([], pa.string()),
                "ship_year": pa.array([], pa.int64()),
                "profit_cents": pa.array([], pa.int64()),
            }
        )
    tiny = (
        parts.group_by(["nation", "ship_year"])
        .aggregate([("profit_cents", "sum")])
    )
    names = nn.take(
        pa.array(
            np.searchsorted(
                nk, tiny["nation"].to_numpy(zero_copy_only=False)
            )
        )
    )
    return pa.table(
        {
            "n_name": names,
            "ship_year": tiny["ship_year"],
            "profit_cents": pc.cast(tiny["profit_cents_sum"], pa.int64()),
        }
    ).sort_by([("n_name", "ascending"), ("ship_year", "ascending")])


# ---------------------------------------------------------------------------
# Q10 — returned-item reporting: top-k customers by returned revenue
# ---------------------------------------------------------------------------

def q10_returned_items(
    sf_dir: str,
    date_lo: str = "1997-01-01",
    date_hi: str = "1997-04-01",
    k: int = 20,
    num_buckets: int = 32,
):
    """TPC-H Q10 shape — customers ranked by revenue from lineitems
    they returned ('R') on orders placed in one quarter; top-k with
    name/balance/nation attached.

    Plan: quarter orders collapse to (orderkey, custkey) — broadcast
    under budget, else orderkey-bucketed join; lineitem pre-aggregates
    returned revenue per orderkey per batch; the per-customer rollup
    is a custkey-bucketed ``bucket_finish`` whose kernel finishes the
    agg AND cuts to its local top-k (full agg before any cut — the
    broadcast-path top-k rule), so the driver merges ≤ buckets×k
    candidate rows; names attach via a predicate-pushdown read of only
    the ≤k winning keys (``top_customers`` pattern).  Tie-break:
    (revenue desc, custkey asc), mirrored in the oracle's ORDER BY."""
    lo, hi = np.datetime64(date_lo, "us"), np.datetime64(date_hi, "us")

    ords = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
                pc.less(b["o_orderdate"], pa.scalar(hi)),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        g = pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "revenue_cents": _li_revenue_cents(t),
            }
        )
        return (
            g.group_by("o_orderkey")
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(["o_orderkey", "revenue_cents"])
        )

    li = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey", "l_returnflag", "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow")

    def cust_partial(joined: pa.Table) -> pa.Table:
        agg = (
            joined.select(["o_custkey", "revenue_cents"])
            .group_by("o_custkey")
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(["o_custkey", "revenue_cents"])
        )
        return agg.append_column(
            "bucket", bucket_of(agg["o_custkey"], num_buckets)
        )

    per_order = exchange.join(
        li,
        ords,
        on="o_orderkey",
        combine=cust_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("revenue_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
        lazy=True,
    )

    empty = pa.table(
        {
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "revenue_cents": pa.array([], pa.int64()),
            "acctbal_cents": pa.array([], pa.int64()),
            "n_name": pa.array([], pa.string()),
        }
    )
    def topk_bucket(g: pa.Table) -> pa.Table:
        agg = (
            g.group_by("o_custkey")
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(["o_custkey", "revenue_cents"])
        )
        agg = agg.take(
            pc.sort_indices(
                agg,
                sort_keys=[
                    ("revenue_cents", "descending"),
                    ("o_custkey", "ascending"),
                ],
            )[:k]
        )
        return agg

    # adaptive finish (house rule): the per-(batch/bucket) partials are
    # already custkey-aggregated — when the materialized partial count
    # is tiny, one driver-side Arrow hash-agg beats the ~1.5-3.5 s
    # fixed cost of a Ray groupby shuffle; above the gate, the custkey
    # buckets finish distributed with per-bucket top-k cuts.
    allc = bucket_finish(
        per_order,
        topk_bucket,
        pa.schema([("o_custkey", pa.int64()), ("revenue_cents", pa.int64())]),
    )
    if allc.num_rows == 0:
        return empty
    allc = allc.take(
        pc.sort_indices(
            allc,
            sort_keys=[
                ("revenue_cents", "descending"),
                ("o_custkey", "ascending"),
            ],
        )[:k]
    )
    win = allc["o_custkey"].to_pylist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=[("c_custkey", "in", win)],
    )
    ck = cust["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    co = np.argsort(ck)
    pos = co[
        np.searchsorted(
            ck[co],
            allc["o_custkey"].to_numpy(zero_copy_only=False),
        )
    ]
    nk, nn = _nation_names(sf_dir)
    natk = cust["c_nationkey"].to_numpy(zero_copy_only=False).astype(
        np.int64
    )[pos]
    return pa.table(
        {
            "c_custkey": allc["o_custkey"],
            "c_name": cust["c_name"].take(pa.array(pos)),
            "revenue_cents": allc["revenue_cents"],
            "acctbal_cents": cents(cust["c_acctbal"]).take(pa.array(pos)),
            "n_name": nn.take(pa.array(np.searchsorted(nk, natk))),
        }
    )


# ---------------------------------------------------------------------------
# Q11 — important stock: parts holding an outsized share of value
# ---------------------------------------------------------------------------

def q11_important_stock(
    sf_dir: str,
    region: str = "EUROPE",
    fraction_ppm: int = 1000,
    num_buckets: int = 64,
):
    """TPC-H Q11 shape — per-part share of total "stock" value held by
    one region's suppliers, keeping parts above a global threshold.
    Adapted: ps_supplycost*ps_availqty → sum of cents(l_extendedprice)
    shipped by the region's suppliers.

    Plan: region supplier set broadcasts; lineitem pre-aggregates
    (partkey, value) per batch; the per-part sums finish driver-side
    when the materialized partial count is tiny (adaptive finish) else
    via ONE partkey bucket shuffle; the driver then holds one
    (partkey, value) row per part (16 bytes each) and takes the global
    total and the cut from it; the threshold filter compares integers
    — ``value_cents * 1_000_000 > fraction_ppm * total_cents`` — so
    the engine and the oracle agree exactly."""
    import ray

    s_nats = _region_nations(sf_dir, region)
    s_ref = _supplier_nation_ref(sf_dir, s_nats)

    def li_prep(batch: pa.Table) -> pa.Table:
        sk, _ = ray.get(s_ref)
        hit, _ = lookup(
            sk, batch["l_suppkey"].to_numpy(zero_copy_only=False)
        )
        kept = batch.filter(pa.array(hit))
        g = pa.table(
            {
                "p_partkey": kept["l_partkey"],
                "value_cents": cents(
                    pc.cast(kept["l_extendedprice"], pa.float64())
                ),
            }
        )
        agg = (
            g.group_by("p_partkey")
            .aggregate([("value_cents", "sum")])
            .rename_columns(["p_partkey", "value_cents"])
        )
        return agg.append_column(
            "bucket", bucket_of(agg["p_partkey"], num_buckets)
        )

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    ).map_batches(li_prep, batch_format="pyarrow")

    schema = pa.schema(
        [("p_partkey", pa.int64()), ("value_cents", pa.int64())]
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        return (
            g.group_by("p_partkey")
            .aggregate([("value_cents", "sum")])
            .rename_columns(["p_partkey", "value_cents"])
        )

    merged = bucket_finish(li, merge_bucket, schema)
    total = int(pc.sum(merged["value_cents"]).as_py() or 0)
    if total == 0:
        return schema.empty_table()
    # value*1_000_000 > fraction_ppm*total, rearranged to a single
    # int64-safe comparison: for integer value, that is exactly
    # value >= thresh//1_000_000 + 1 (python-int math on the driver —
    # no overflow; the per-row compare stays vectorized int64)
    cutoff = (fraction_ppm * total) // 1_000_000 + 1
    v = merged["value_cents"].to_numpy(zero_copy_only=False)
    return merged.filter(pa.array(v >= cutoff)).sort_by(
        [("value_cents", "descending"), ("p_partkey", "ascending")]
    )


# ---------------------------------------------------------------------------
# Q12 — late shipments by line status and order priority class
# ---------------------------------------------------------------------------

def q12_late_shipments(
    sf_dir: str,
    days_late: int = 90,
    num_buckets: int = 32,
):
    """TPC-H Q12 shape — lines shipped more than ``days_late`` days
    after their order date, counted by l_linestatus (the schema's
    stand-in for the missing l_shipmode), split into high-priority
    ('1-URGENT'/'2-HIGH') vs low-priority orders.

    Plan: orders collapse to (orderkey, orderdate_us, is_high), the
    build side of an ``exchange.join`` whose combine is the late test
    plus the ≤2-row rollup — broadcast, it runs map-side in lineitem's
    one pass; bucketed (above the broadcast budget), in each bucket
    task."""
    delta = np.int64(days_late) * 86_400_000_000  # days → µs

    def status_partial(t: pa.Table) -> pa.Table:
        """(l_linestatus, ship_us, odate_us, is_high) → ≤2-row counts."""
        ship = t["ship_us"].to_numpy(zero_copy_only=False)
        odate = t["odate_us"].to_numpy(zero_copy_only=False)
        late = ship > odate + delta
        kept = t.filter(pa.array(late))
        high = kept["is_high"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        g = pa.table(
            {
                "l_linestatus": kept["l_linestatus"],
                "high": pa.array(high, pa.int64()),
                "low": pa.array(1 - high, pa.int64()),
            }
        )
        return (
            g.group_by("l_linestatus")
            .aggregate([("high", "sum"), ("low", "sum")])
            .rename_columns(["l_linestatus", "high", "low"])
        )

    parts = exchange.join(
        _read(
            sf_dir, "lineitem",
            columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["l_orderkey"],
                    "l_linestatus": b["l_linestatus"],
                    "ship_us": b["l_shipdate"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        _read(
            sf_dir, "orders",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "odate_us": b["o_orderdate"].cast(pa.int64()),
                    "is_high": pc.cast(
                        pc.is_in(
                            b["o_orderpriority"],
                            value_set=pa.array(list(HIGH_PRIO)),
                        ),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        on="o_orderkey",
        combine=status_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("l_linestatus", pa.string()),
                ("ship_us", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("odate_us", pa.int64()),
                ("is_high", pa.int64()),
            ]
        ),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "l_linestatus": pa.array([], pa.string()),
                "high_line_count": pa.array([], pa.int64()),
                "low_line_count": pa.array([], pa.int64()),
            }
        )
    tiny = (
        parts.group_by("l_linestatus")
        .aggregate([("high", "sum"), ("low", "sum")])
    )
    return pa.table(
        {
            "l_linestatus": tiny["l_linestatus"],
            "high_line_count": pc.cast(tiny["high_sum"], pa.int64()),
            "low_line_count": pc.cast(tiny["low_sum"], pa.int64()),
        }
    ).sort_by("l_linestatus")


# ---------------------------------------------------------------------------
# Q17 — small-quantity-order revenue (correlated per-part average)
# ---------------------------------------------------------------------------

def q17_small_qty_revenue(
    sf_dir: str,
    brand: str = "Brand#3",
    max_size: int = 10,
    num_buckets: int = 64,
):
    """TPC-H Q17 shape — average yearly revenue that would be lost by
    not filling orders of less than 20 % of a part's average order
    quantity, over parts of one brand with p_size ≤ N (the schema's
    stand-in for the missing p_container filter).

    Two streaming passes over the part-filtered lineitems, zero
    unconditional shuffles:

    * pass 1 pre-aggregates (partkey, Σqty_centi, count) per batch;
      partials merge driver-side when tiny (adaptive finish), else via
      one partkey bucket shuffle — either way the merged table is
      |filtered parts| rows, the same order as the broadcast key set
      itself (documented boundary);
    * pass 2 broadcasts the per-part stats and sums cents(extprice)
      where ``qty_centi * 5 * cnt < Σqty_centi`` — the exact integer
      form of qty < 0.2·avg(qty), so engine ≡ oracle with no float
      threshold anywhere.

    Returns one row: avg_yearly = Σcents / 700.0 (7 data years × 100
    cents — the single final division)."""
    import ray

    part = _part_keys(
        sf_dir,
        lambda p: pc.and_(
            pc.equal(p["p_brand"], brand),
            pc.less_equal(p["p_size"], max_size),
        ),
    )
    pk_set = np.sort(
        part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    pk_ref = ray.put(pk_set)

    def pass1(batch: pa.Table) -> pa.Table:
        pk = ray.get(pk_ref)
        hit, _ = lookup(
            pk, batch["l_partkey"].to_numpy(zero_copy_only=False)
        )
        kept = batch.filter(pa.array(hit))
        g = pa.table(
            {
                "l_partkey": kept["l_partkey"],
                "qty_centi": cents(kept["l_quantity"]),
                "one": pa.array(
                    np.ones(kept.num_rows, np.int64), pa.int64()
                ),
            }
        )
        agg = (
            g.group_by("l_partkey")
            .aggregate([("qty_centi", "sum"), ("one", "sum")])
            .rename_columns(["l_partkey", "sum_qc", "cnt"])
        )
        return agg.append_column(
            "bucket", bucket_of(agg["l_partkey"], num_buckets)
        )

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    p1 = _read(sf_dir, "lineitem", columns=li_cols).map_batches(
        pass1, batch_format="pyarrow"
    )

    schema1 = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("sum_qc", pa.int64()),
            ("cnt", pa.int64()),
        ]
    )

    def merge1(g: pa.Table) -> pa.Table:
        return (
            g.group_by("l_partkey")
            .aggregate([("sum_qc", "sum"), ("cnt", "sum")])
            .rename_columns(["l_partkey", "sum_qc", "cnt"])
        )

    stats = bucket_finish(p1, merge1, schema1)
    if stats.num_rows == 0:
        return pa.table({"avg_yearly": pa.array([0.0], pa.float64())})
    spk = stats["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(spk)
    st_ref = ray.put(
        (
            spk[o],
            stats["sum_qc"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )[o],
            stats["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)[o],
        )
    )

    def pass2(batch: pa.Table) -> pa.Table:
        ks, sq, cn = ray.get(st_ref)
        hit, idx = lookup(
            ks, batch["l_partkey"].to_numpy(zero_copy_only=False)
        )
        kept = batch.filter(pa.array(hit))
        qc = cents(kept["l_quantity"]).to_numpy(zero_copy_only=False)
        i = idx[hit]
        small = qc * 5 * cn[i] < sq[i]
        total = pc.sum(
            cents(kept["l_extendedprice"]).filter(pa.array(small))
        ).as_py()
        return pa.table({"s": pa.array([total or 0], pa.int64())})

    parts = blocks(
        _read(sf_dir, "lineitem", columns=li_cols).map_batches(
            pass2, batch_format="pyarrow"
        )
    )
    total = (
        int(pc.sum(pa.concat_tables(parts)["s"]).as_py() or 0)
        if parts
        else 0
    )
    return pa.table(
        {"avg_yearly": pa.array([total / 700.0], pa.float64())}
    )


# ---------------------------------------------------------------------------
# Q19 — discounted revenue under a 3-branch OR predicate
# ---------------------------------------------------------------------------

def q19_discounted_revenue(
    sf_dir: str,
    num_buckets: int = 32,
):
    """TPC-H Q19 shape — revenue from lineitems matching any of three
    (brand, size range, quantity range) predicate branches (container
    and ship-instruction clauses dropped with their columns).

    Plan: part collapses to (partkey, brand, size) on the driver, the
    build side of an ``exchange.join`` whose combine is the branch mask — broadcast,
    the whole OR evaluates vectorized inside lineitem's single pass
    (zero shuffles, scalar partials out); bucketed, in each bucket
    task.  Quantity bounds compare in centi-units — integers on
    both sides."""
    branches = [
        ("Brand#1", 1, 5, 100, 1100),
        ("Brand#2", 1, 10, 1000, 2000),
        ("Brand#3", 1, 15, 2000, 3000),
    ]

    def branch_partial(t: pa.Table) -> pa.Table:
        """(brand, p_size, qty_centi, rev_cents) → 1-row scalar sum."""
        brand = t["p_brand"]
        size = t["p_size"].to_numpy(zero_copy_only=False)
        qc = t["qty_centi"].to_numpy(zero_copy_only=False)
        keep = np.zeros(t.num_rows, dtype=bool)
        for bname, slo, shi, qlo, qhi in branches:
            bm = pc.equal(brand, bname).to_numpy(zero_copy_only=False)
            keep |= (
                bm
                & (size >= slo)
                & (size <= shi)
                & (qc >= qlo)
                & (qc <= qhi)
            )
        s = pc.sum(t["rev_cents"].filter(pa.array(keep))).as_py()
        return pa.table({"s": pa.array([s or 0], pa.int64())})

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    )
    parts = exchange.join(
        _read(
            sf_dir,
            "lineitem",
            columns=[
                "l_partkey", "l_quantity", "l_extendedprice", "l_discount",
            ],
        ).map_batches(
            lambda b: pa.table(
                {
                    "l_partkey": b["l_partkey"],
                    "qty_centi": cents(b["l_quantity"]),
                    "rev_cents": _li_revenue_cents(b),
                }
            ),
            batch_format="pyarrow",
        ),
        pa.table(
            {
                "l_partkey": pc.cast(part["p_partkey"], pa.int64()),
                "p_brand": part["p_brand"],
                "p_size": pc.cast(part["p_size"], pa.int64()),
            }
        ),
        on="l_partkey",
        combine=branch_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("qty_centi", pa.int64()),
                ("rev_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("p_brand", pa.string()),
                ("p_size", pa.int64()),
            ]
        ),
    )
    total = int(pc.sum(parts["s"]).as_py() or 0) if parts.num_rows else 0
    return pa.table({"revenue_cents": pa.array([total], pa.int64())})


# ---------------------------------------------------------------------------
# Q20 — potential part promotion: suppliers with heavy shipped volume
# ---------------------------------------------------------------------------

def q20_promotion_suppliers(
    sf_dir: str,
    name_prefix: str = "red",
    year_lo: str = "1997-01-01",
    year_hi: str = "1998-01-01",
    min_qty_centi: int = 5000,
    region: str = "EUROPE",
    num_buckets: int = 64,
):
    """TPC-H Q20 shape — suppliers in ``region`` who shipped more than
    a threshold quantity of any name-matched part in one year
    (ps_availqty > ½·Σqty becomes Σqty_centi > threshold — the
    partsupp table doesn't exist here).

    Plan: name-matched part keys broadcast; lineitem pre-aggregates
    (suppkey, partkey, Σqty_centi) per batch; partials merge
    driver-side when tiny (adaptive finish) else via one suppkey
    bucket shuffle whose bucket task applies the HAVING cut and
    dedups suppliers before anything returns; the region filter and
    name attach are a supplier-dim driver join (Q5 precedent)."""
    import ray

    lo, hi = np.datetime64(year_lo, "us"), np.datetime64(year_hi, "us")
    part = _part_keys(
        sf_dir,
        lambda p: pc.starts_with(p["p_name"], name_prefix),
    )
    pk_set = np.sort(
        part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    pk_ref = ray.put(pk_set)

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], pa.scalar(lo)),
                pc.less(batch["l_shipdate"], pa.scalar(hi)),
            )
        )
        pk = ray.get(pk_ref)
        hit, _ = lookup(
            pk, batch["l_partkey"].to_numpy(zero_copy_only=False)
        )
        kept = batch.filter(pa.array(hit))
        g = pa.table(
            {
                "l_suppkey": kept["l_suppkey"],
                "l_partkey": kept["l_partkey"],
                "qty_centi": cents(kept["l_quantity"]),
            }
        )
        agg = (
            g.group_by(["l_suppkey", "l_partkey"])
            .aggregate([("qty_centi", "sum")])
            .rename_columns(["l_suppkey", "l_partkey", "qty_centi"])
        )
        return agg.append_column(
            "bucket", bucket_of(agg["l_suppkey"], num_buckets)
        )

    p1 = _read(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_partkey", "l_quantity", "l_shipdate"],
    ).map_batches(prep, batch_format="pyarrow")

    def winners(g: pa.Table) -> pa.Table:
        agg = (
            g.group_by(["l_suppkey", "l_partkey"])
            .aggregate([("qty_centi", "sum")])
            .rename_columns(["l_suppkey", "l_partkey", "qty_centi"])
        )
        agg = agg.filter(pc.greater(agg["qty_centi"], min_qty_centi))
        return (
            agg.group_by("l_suppkey")
            .aggregate([])
        )

    win = bucket_finish(
        p1, winners, pa.schema([("l_suppkey", pa.int64())])
    )
    win_keys = np.unique(
        win["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )

    s_nats = _region_nations(sf_dir, region)
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    keep = np.isin(
        sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64),
        s_nats,
    ) & np.isin(
        sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64),
        win_keys,
    )
    out = sup.filter(pa.array(keep)).select(["s_suppkey", "s_name"])
    return out.sort_by("s_suppkey")


# ---------------------------------------------------------------------------
# Q21 — suppliers who kept orders waiting
# ---------------------------------------------------------------------------

def q21_waiting_suppliers(
    sf_dir: str,
    region: str = "ASIA",
    num_buckets: int = 64,
):
    """TPC-H Q21 shape — on finished ('F') orders involving ≥2 distinct
    suppliers where EXACTLY ONE supplier has a returned ('R') line
    (the receipt>commit lateness marker adapted to this schema), count
    such orders per guilty supplier, filtered to one region.

    Plan: lineitem pre-reduces to distinct (orderkey, suppkey, has_R)
    per batch, semi-joined with the 'F' orderkey set through
    ``exchange.join``; the per-order analysis needs every supplier of
    an order co-located, so it is the join's finish — broadcast, the
    F-filter runs map-side and the analysis finishes per orderkey
    bucket (driver-side when the filtered pairs are few); bucketed,
    it runs in each bucket task of the one shuffle.  Finish calls emit
    per-supplier partial numwait counts; the driver merges
    supplier-sized rows."""
    fkeys_ds = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b["o_orderstatus"], "F")
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )

    def pairs(batch: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "has_r": pc.cast(
                    pc.equal(batch["l_returnflag"], "R"), pa.int64()
                ),
            }
        )
        return (
            g.group_by(["o_orderkey", "l_suppkey"])
            .aggregate([("has_r", "max")])
            .rename_columns(["o_orderkey", "l_suppkey", "has_r"])
        )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    ).map_batches(pairs, batch_format="pyarrow")

    numwait = pa.schema(
        [("l_suppkey", pa.int64()), ("numwait", pa.int64())]
    )

    def analyze(g: pa.Table) -> pa.Table:
        """distinct-pair rows of co-located orderkeys → per-supplier
        partial numwait."""
        if g.num_rows == 0:
            return numwait.empty_table()
        d = (
            g.group_by(["o_orderkey", "l_suppkey"])
            .aggregate([("has_r", "max")])
            .rename_columns(["o_orderkey", "l_suppkey", "has_r"])
        )
        per_ord = (
            d.group_by("o_orderkey")
            .aggregate([("l_suppkey", "count"), ("has_r", "sum")])
        )
        qual = per_ord.filter(
            pc.and_(
                pc.greater_equal(per_ord["l_suppkey_count"], 2),
                pc.equal(per_ord["has_r_sum"], 1),
            )
        )["o_orderkey"]
        qk = np.sort(qual.to_numpy(zero_copy_only=False).astype(np.int64))
        r_rows = d.filter(pc.equal(d["has_r"], 1))
        hit, _ = lookup(
            qk, r_rows["o_orderkey"].to_numpy(zero_copy_only=False)
        )
        guilty = r_rows.filter(pa.array(hit))
        agg = guilty.group_by("l_suppkey").aggregate(
            [("l_suppkey", "count")]
        )
        return pa.table(
            {
                "l_suppkey": agg["l_suppkey"],
                "numwait": pc.cast(agg["l_suppkey_count"], pa.int64()),
            }
        )

    cand = exchange.join(
        li,
        fkeys_ds,
        on="o_orderkey",
        how="left semi",
        finish=analyze,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("has_r", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64())]),
    )
    empty = pa.table(
        {
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "numwait": pa.array([], pa.int64()),
        }
    )
    if cand.num_rows == 0:
        return empty
    merged = (
        cand.group_by("l_suppkey")
        .aggregate([("numwait", "sum")])
        .rename_columns(["s_suppkey", "numwait"])
    )
    s_nats = _region_nations(sf_dir, region)
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    keep = np.isin(
        sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64),
        s_nats,
    )
    sup = sup.filter(pa.array(keep))
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    so = np.argsort(sk)
    mk = merged["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    hit, idx = lookup(sk[so], mk)
    kept = merged.filter(pa.array(hit))
    names = sup["s_name"].take(pa.array(so[idx[hit]]))
    return pa.table(
        {
            "s_suppkey": kept["s_suppkey"],
            "s_name": names,
            "numwait": kept["numwait"],
        }
    ).sort_by(
        [("numwait", "descending"), ("s_suppkey", "ascending")]
    )


# ---------------------------------------------------------------------------
# Q2 — minimum-cost supplier per part (correlated min)
# ---------------------------------------------------------------------------

def q2_min_cost_supplier(
    sf_dir: str,
    p_type: str = "STANDARD",
    min_size: int = 25,
    region: str = "EUROPE",
    num_buckets: int = 64,
):
    """TPC-H Q2 shape — for parts of one type with p_size ≥ N, the
    region supplier(s) offering the minimum supply cost, with the
    correlated ``cost = (SELECT min(...) ...)`` subquery.  Adapted:
    supply cost = min observed unit sale price, floor((extprice /
    qty)*100 + .5) centi-units — integer, so min/equality are exact on
    both sides.

    Plan: filtered part dim and region supplier dim are driver-side
    (broadcast-budget boundary documented on ``_part_keys`` /
    ``_supplier_nation_ref``); lineitem pre-aggregates (part, supp,
    min cost) per batch; partials merge driver-side when tiny
    (adaptive finish) else via one partkey bucket shuffle — a part
    lives in exactly one bucket, so the per-part min AND the equality
    cut both finish inside the bucket task."""
    import ray

    part = _part_keys(
        sf_dir,
        lambda p: pc.and_(
            pc.equal(p["p_type"], p_type),
            pc.greater_equal(p["p_size"], min_size),
        ),
        columns=("p_partkey", "p_name"),
    )
    pk_set = np.sort(
        part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    pk_ref = ray.put(pk_set)

    s_nats = _region_nations(sf_dir, region)
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
    )
    keep = np.isin(
        sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64),
        s_nats,
    )
    sup = sup.filter(pa.array(keep)).combine_chunks()
    sk_set = np.sort(
        sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    sk_ref = ray.put(sk_set)

    def prep(batch: pa.Table) -> pa.Table:
        pk = ray.get(pk_ref)
        sk = ray.get(sk_ref)
        phit, _ = lookup(
            pk, batch["l_partkey"].to_numpy(zero_copy_only=False)
        )
        kept = batch.filter(pa.array(phit))
        shit, _ = lookup(
            sk, kept["l_suppkey"].to_numpy(zero_copy_only=False)
        )
        kept = kept.filter(pa.array(shit))
        ep = pc.cast(kept["l_extendedprice"], pa.float64())
        qty = pc.cast(kept["l_quantity"], pa.float64())
        cost = cents(pc.divide(ep, qty))
        g = pa.table(
            {
                "l_partkey": kept["l_partkey"],
                "l_suppkey": kept["l_suppkey"],
                "cost_centi": cost,
            }
        )
        agg = (
            g.group_by(["l_partkey", "l_suppkey"])
            .aggregate([("cost_centi", "min")])
            .rename_columns(["l_partkey", "l_suppkey", "cost_centi"])
        )
        return agg.append_column(
            "bucket", bucket_of(agg["l_partkey"], num_buckets)
        )

    p1 = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    ).map_batches(prep, batch_format="pyarrow")

    schema = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("l_suppkey", pa.int64()),
            ("cost_centi", pa.int64()),
        ]
    )

    def winners(g: pa.Table) -> pa.Table:
        agg = (
            g.group_by(["l_partkey", "l_suppkey"])
            .aggregate([("cost_centi", "min")])
            .rename_columns(["l_partkey", "l_suppkey", "cost_centi"])
        )
        pmin = (
            agg.group_by("l_partkey")
            .aggregate([("cost_centi", "min")])
            .rename_columns(["l_partkey", "min_cost"])
        )
        j = agg.join(pmin, keys="l_partkey", join_type="inner")
        return j.filter(
            pc.equal(j["cost_centi"], j["min_cost"])
        ).select(["l_partkey", "l_suppkey", "cost_centi"])

    win = bucket_finish(p1, winners, schema)
    empty = pa.table(
        {
            "p_partkey": pa.array([], pa.int64()),
            "p_name": pa.array([], pa.string()),
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "n_name": pa.array([], pa.string()),
            "supply_cost_centi": pa.array([], pa.int64()),
            "s_acctbal_cents": pa.array([], pa.int64()),
        }
    )
    if win.num_rows == 0:
        return empty
    # attach part / supplier / nation attributes (all dim-sized)
    ppk = part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    po = np.argsort(ppk)
    wpk = win["l_partkey"].to_numpy(zero_copy_only=False)
    pidx = po[np.searchsorted(ppk[po], wpk)]
    ssk = sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    so = np.argsort(ssk)
    wsk = win["l_suppkey"].to_numpy(zero_copy_only=False)
    sidx = so[np.searchsorted(ssk[so], wsk)]
    nk, nn = _nation_names(sf_dir)
    snat = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(
        np.int64
    )[sidx]
    return pa.table(
        {
            "p_partkey": win["l_partkey"],
            "p_name": part["p_name"].take(pa.array(pidx)),
            "s_suppkey": win["l_suppkey"],
            "s_name": sup["s_name"].take(pa.array(sidx)),
            "n_name": nn.take(pa.array(np.searchsorted(nk, snat))),
            "supply_cost_centi": win["cost_centi"],
            "s_acctbal_cents": cents(sup["s_acctbal"]).take(
                pa.array(sidx)
            ),
        }
    ).sort_by(
        [("p_partkey", "ascending"), ("s_suppkey", "ascending")]
    )
