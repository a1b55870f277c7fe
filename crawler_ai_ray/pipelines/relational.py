"""Relational / analytical pipelines over the driver's TPC-H-style
tables — the generic query capabilities (groupby-aggregate, hash join,
broadcast join, sort/top-k, windowed + sessionized aggregates) the
crawl engine's report stages are built from (SURVEY §2.6-2.8: A1-A7,
O1-O5 generalized).

Money/float discipline: every SUM over a double column is computed in
**integer cents/micros** (per-element ``floor(x*100 + 0.5)`` then int64
sum).  Element-wise IEEE ops are bit-deterministic; only float
*summation order* is not — integer sums make every aggregate here
bitwise-reproducible by the DuckDB oracle regardless of partitioning.

Scale notes:
* tiny-cardinality groupbys (Q1's 6 groups) pre-aggregate inside
  ``map_batches`` (combiner) so the shuffle moves O(groups) rows per
  block, not O(rows);
* joins go through ``exchange.join``: a build side of at most
  ``exchange.BROADCAST_MAX`` rows (nation/region/customer/part-sized)
  broadcasts via ``ray.put`` — read once per task, probed map-side,
  no shuffle — and a larger one takes the bucketed
  ``hash_bucket_join``: one Ray shuffle + Arrow ``Table.join`` per
  bucket (measured faster than ``Dataset.join``'s per-partition actor
  constants at these sizes).  Tests force the bucketed branch with
  the ``force_bucketed`` fixture;
* reads prune columns at the source (``read_parquet(columns=...)``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import exchange
from ..stages.exchange import hash_bucket_join

__all__ = [
    "q1_pricing_summary",
    "top_customers",
    "supplier_by_region",
    "hash_bucket_join",
    "lineitem_part_revenue",
    "q3_unshipped",
    "q5_local_supplier_volume",
    "q13_customer_distribution",
    "q4_order_priority",
    "q15_top_supplier",
    "q16_supplier_variety",
    "q22_inactive_customers",
    "q6_forecast_revenue",
    "q14_promo_effect",
    "events_hourly",
    "events_rollup",
    "events_running_total",
    "events_pivot",
    "events_hourly_dense",
    "events_transitions",
    "part_min_price_per_brand",
    "events_daily_active",
    "events_no_purchase_users",
    "events_funnel",
    "events_top_user_per_day",
    "events_session_length_quantiles",
    "events_dau_hll",
    "events_sessionize",
    "events_hopping",
    "events_asof_join",
    "events_range_join",
    "cents",
]


def _read(sf_dir: str, table: str, columns=None):
    """Parallel single-file read via the row-group Datasource: the
    default one-read-task + SplitBlocks plan decodes the whole file on
    ONE task before splitting (``sources/pqread.py:3-19``); one read
    task per row-group range parallelizes the decode itself.  Falls
    back to the post-split plan for single-row-group files."""
    from ..sources.pqread import read_parquet_rowgroups

    path = os.path.join(sf_dir, f"{table}.parquet")
    return read_parquet_rowgroups(path, columns=columns)


def cents(arr: pa.ChunkedArray | pa.Array, scale: float = 100.0) -> pa.Array:
    """double → int64 fixed-point, per element: floor(x*scale + 0.5).
    Bit-identical to DuckDB ``CAST(FLOOR(x*scale + 0.5) AS BIGINT)``."""
    x = pc.add(pc.multiply(pc.cast(arr, pa.float64()), scale), 0.5)
    return pc.cast(pc.floor(x), pa.int64())


# ---------------------------------------------------------------------------
# Q1-style pricing summary: filter → combiner → tiny groupby
# ---------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str, cutoff: str = "2001-09-01"):
    """lineitem pricing summary by (returnflag, linestatus).

    Combiner pattern: each Arrow batch collapses to ≤6 partial rows
    before the global groupby — the shuffle is O(blocks × groups)."""
    cutoff_ts = np.datetime64(cutoff, "us")
    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(cutoff_ts))
        )
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_cents": pa.array([], pa.int64()),
                    "sum_disc_cents": pa.array([], pa.int64()),
                    "sum_charge_cents": pa.array([], pa.int64()),
                    "count_order": pa.array([], pa.int64()),
                }
            )
        ep = pc.cast(batch["l_extendedprice"], pa.float64())
        disc = pc.cast(batch["l_discount"], pa.float64())
        tax = pc.cast(batch["l_tax"], pa.float64())
        disc_price = pc.multiply(ep, pc.subtract(1.0, disc))
        charge = pc.multiply(disc_price, pc.add(1.0, tax))
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pc.cast(batch["l_quantity"], pa.int64()),
                "base_cents": cents(ep),
                "disc_cents": cents(disc_price),
                "charge_cents": cents(charge),
            }
        )
        agg = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("qty", "sum"),
                ("base_cents", "sum"),
                ("disc_cents", "sum"),
                ("charge_cents", "sum"),
                ("qty", "count"),
            ]
        )
        return agg.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_base_cents",
                "sum_disc_cents",
                "sum_charge_cents",
                "count_order",
            ]
        )

    import ray

    # partials are ≤6 rows per block — a Ray groupby + sort here pays
    # two fixed all-to-all passes to aggregate a combiner-sized set
    # (house rule: don't); concat + Arrow hash-agg on the driver
    parts = [
        t
        for t in ray.get(
            ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return partial(
            pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "l_quantity": pa.array([], pa.float64()),
                    "l_extendedprice": pa.array([], pa.float64()),
                    "l_discount": pa.array([], pa.float64()),
                    "l_tax": pa.array([], pa.float64()),
                    "l_shipdate": pa.array([], pa.timestamp("us")),
                }
            )
        )
    agg = (
        pa.concat_tables(parts)
        .group_by(["l_returnflag", "l_linestatus"])
        .aggregate(
            [
                ("sum_qty", "sum"),
                ("sum_base_cents", "sum"),
                ("sum_disc_cents", "sum"),
                ("sum_charge_cents", "sum"),
                ("count_order", "sum"),
            ]
        )
        .rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_base_cents",
                "sum_disc_cents",
                "sum_charge_cents",
                "count_order",
            ]
        )
    )
    return agg.sort_by(
        [("l_returnflag", "ascending"), ("l_linestatus", "ascending")]
    )


# ---------------------------------------------------------------------------
# top-k customers by revenue: pre-aggregate → broadcast join → sort/limit
# ---------------------------------------------------------------------------

def top_customers(sf_dir: str, k: int = 10, num_buckets: int = 32):
    """→ (c_custkey, c_name, c_mktsegment, n_orders, revenue_cents),
    top-k by revenue.

    Distributed top-k WITHOUT a global per-customer shuffle-groupby: a
    Ray ``groupby`` at customer cardinality (10^7+ groups at scale)
    pays a full sort-shuffle.  Instead the customer key is bucketed
    (``hash(custkey) % num_buckets``): batches pre-aggregate locally
    with Arrow ``group_by``, the only Ray shuffle has ``num_buckets``
    groups, and each bucket group finishes its customers exactly
    (a custkey lives in exactly one bucket), takes its LOCAL top-k,
    and only ``num_buckets × k`` candidate rows reach the final tiny
    sort.  Customer names are attached LAST, via a filtered streaming
    scan that keeps only the ≤k winning custkeys — the dimension table
    is never materialized on the driver (at TPC-H scale customer is
    1.5M × SF rows; only k rows of it ever leave the scan)."""
    import ray
    import ray.data

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "price_cents": cents(batch["o_totalprice"]),
            }
        )
        agg = t.group_by("o_custkey").aggregate(
            [("price_cents", "sum"), ("price_cents", "count")]
        )
        return pa.table(
            {
                "bucket": exchange.bucket_of(agg["o_custkey"], num_buckets),
                "o_custkey": agg["o_custkey"],
                "revenue_cents": agg["price_cents_sum"],
                "n_orders": agg["price_cents_count"],
            }
        )

    def bucket_topk(group: pa.Table) -> pa.Table:
        agg = group.group_by("o_custkey").aggregate(
            [("revenue_cents", "sum"), ("n_orders", "sum")]
        )
        top = agg.sort_by(
            [("revenue_cents_sum", "descending"), ("o_custkey", "ascending")]
        ).slice(0, k)
        return pa.table(
            {
                "c_custkey": top["o_custkey"],
                "n_orders": top["n_orders_sum"],
                "revenue_cents": top["revenue_cents_sum"],
            }
        )

    # adaptive finish (exchange.bucket_finish): the partials are
    # per-block per-custkey rows — few enough, one driver Arrow
    # hash-agg + top-k replaces the bucket shuffle (same exact result;
    # a custkey's partials all reach the same hash-agg either way);
    # above, the per-bucket exact top-k path bounds driver memory
    cands = exchange.bucket_finish(
        orders.map_batches(partial, batch_format="pyarrow"),
        bucket_topk,
        pa.schema(
            [
                ("c_custkey", pa.int64()),
                ("n_orders", pa.int64()),
                ("revenue_cents", pa.int64()),
            ]
        ),
    )
    # ≤ num_buckets × k candidate rows by construction — the global
    # top-k is a driver-side Arrow sort (a Ray Dataset.sort here pays
    # ~3.5 s of sample/shuffle fixed cost to order 320 rows)
    winners = (
        cands.sort_by(
            [("revenue_cents", "descending"), ("c_custkey", "ascending")]
        )
        .slice(0, k)
    )
    keyset = winners["c_custkey"].combine_chunks()
    # name lookup for the ≤k winners: a filtered DISTRIBUTED read with
    # parquet predicate pushdown — row groups without winning keys are
    # skipped at the source, and only k rows ever leave the scan
    names_blocks = [
        t
        for t in ray.get(
            ray.data.read_parquet(
                os.path.join(sf_dir, "customer.parquet"),
                columns=["c_custkey", "c_name", "c_mktsegment"],
                filter=pc.field("c_custkey").isin(keyset),
            ).to_arrow_refs()
        )
        if t.num_rows
    ]
    names = pa.concat_tables(names_blocks)
    out = winners.join(names, keys="c_custkey").sort_by(
        [("revenue_cents", "descending"), ("c_custkey", "ascending")]
    )
    return out.select(
        ["c_custkey", "c_name", "c_mktsegment", "n_orders", "revenue_cents"]
    )


# ---------------------------------------------------------------------------
# broadcast dimension join: supplier → nation → region rollup
# ---------------------------------------------------------------------------

def supplier_by_region(sf_dir: str):
    """→ (r_name, n_suppliers, sum_acctbal_cents) — two broadcast
    dimension lookups folded into one map_batches, then a tiny groupby."""
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    n2r = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist())
    )
    r2name = dict(
        zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist())
    )
    # broadcast the dim lookup as parallel Arrow arrays: the per-batch
    # map is then a vectorized index_in + take, no Python row loop
    keys = pa.array(list(n2r.keys()), pa.int64())
    vals = pa.array([r2name.get(rk) for rk in n2r.values()], pa.string())
    dim_ref = ray.put((keys, vals))

    def tag(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(dim_ref)
        idx = pc.index_in(batch["s_nationkey"], value_set=keys)
        return pa.table(
            {
                "r_name": vals.take(idx),
                "acctbal_cents": cents(batch["s_acctbal"]),
            }
        )

    sup = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    return (
        sup.map_batches(tag, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(
            Count(alias_name="n_suppliers"),
            Sum("acctbal_cents", alias_name="sum_acctbal_cents"),
        )
    )


# ---------------------------------------------------------------------------
# big ⋈ big hash join: lineitem ⋈ part
# ---------------------------------------------------------------------------

def sample_hot_keys(ds, on: str, frac_threshold: float = 0.05,
                    per_batch_top: int = 20) -> list[int]:
    """Cheap skew probe for ``hash_bucket_join(hot_keys=...)``: each
    batch reports its top-``per_batch_top`` key counts (one combiner
    pass, O(blocks × top) rows to the driver), which merge into global
    counts; keys holding ≥ ``frac_threshold`` of all rows are hot.

    Approximate on purpose — a key that is hot globally but never hot
    within any batch can be missed, and a miss only costs salting (the
    join stays correct, just with one heavy bucket); any key at ≥5 %
    of a uniformly-blocked dataset is top-20 in essentially every
    batch."""

    def topk(batch: pa.Table) -> pa.Table:
        vc = batch[on].value_counts()
        cnt = vc.field("counts")
        take = pc.select_k_unstable(
            cnt, k=min(per_batch_top, len(cnt)), sort_keys=[("", "descending")]
        )
        # one null-key marker row carries the batch's total row count
        # (blocks may merge several batch outputs, so a per-row total
        # column could not be de-duplicated downstream)
        return pa.table(
            {
                "key": pa.concat_arrays(
                    [
                        pc.cast(
                            vc.field("values").take(take), pa.int64()
                        ),
                        pa.array([None], pa.int64()),
                    ]
                ),
                "cnt": pa.concat_arrays(
                    [
                        pc.cast(cnt.take(take), pa.int64()),
                        pa.array([batch.num_rows], pa.int64()),
                    ]
                ),
            }
        )

    import ray

    parts = [
        t
        for ref in ds.map_batches(topk, batch_format="pyarrow").to_arrow_refs()
        if (t := ray.get(ref)).num_rows > 0
    ]
    if not parts:
        return []
    allp = pa.concat_tables(parts)
    isnull = pc.is_null(allp["key"])
    total = pc.sum(allp.filter(isnull)["cnt"]).as_py() or 0
    agg = (
        allp.filter(pc.invert(isnull))
        .group_by("key")
        .aggregate([("cnt", "sum")])
    )
    cnts = agg["cnt_sum"].to_numpy(zero_copy_only=False)
    keys = agg["key"].to_numpy(zero_copy_only=False)
    hot = keys[cnts >= frac_threshold * max(1, total)]
    return sorted(int(k) for k in hot)


def lineitem_part_revenue(sf_dir: str, num_buckets: int = 32):
    """Revenue by p_brand.

    lineitem pre-aggregates (partkey → revenue cents, item count) per
    batch and joins part's partkey → brand through ``exchange.join``:
    part is a fixed 30× smaller than lineitem in TPC-H, so it is read
    on the driver, broadcasts and the brand rollup runs in the probe
    pass (bucketed above ``exchange.BROADCAST_MAX`` parts, the rollup
    then running in each bucket task).  Only O(batches × brands)
    partial rows reach the driver-side finish."""
    import pyarrow.parquet as pq

    li = _read(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        ep = pc.cast(batch["l_extendedprice"], pa.float64())
        disc = pc.cast(batch["l_discount"], pa.float64())
        t = pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "disc_cents": cents(pc.multiply(ep, pc.subtract(1.0, disc))),
            }
        )
        agg = t.group_by("l_partkey").aggregate(
            [("disc_cents", "sum"), ("disc_cents", "count")]
        )
        return agg.rename_columns(["l_partkey", "disc_cents", "n_items"])

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    ).rename_columns(["l_partkey", "p_brand"])

    def brand_partial(joined: pa.Table) -> pa.Table:
        agg = joined.group_by("p_brand").aggregate(
            [("n_items", "sum"), ("disc_cents", "sum")]
        )
        return agg.rename_columns(["p_brand", "n_items", "disc_cents"])

    partials = exchange.join(
        li.map_batches(prep, batch_format="pyarrow"),
        part,
        on="l_partkey",
        combine=brand_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("disc_cents", pa.int64()),
                ("n_items", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("l_partkey", pa.int64()), ("p_brand", pa.string())]
        ),
    )
    return (
        brand_partial(partials)
        .rename_columns(["p_brand", "n_items", "revenue_cents"])
        .sort_by("p_brand")
    )


# ---------------------------------------------------------------------------
# windowed + sessionized event aggregates
def q3_unshipped(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = "1998-06-01",
    k: int = 10,
    num_buckets: int = 32,
):
    """TPC-H Q3 shape — top-k open orders by outstanding revenue for
    one market segment: customer ⋈ orders ⋈ lineitem, three tables
    joined on two different keys, → (o_orderkey, o_orderdate,
    o_orderpriority, revenue_cents).

    Two ``exchange.join`` calls on two different keys:
    1. orders(date < cutoff, columns pruned) ⋉ segment-filtered
       customer KEYS on custkey — a semi-join whose build side is
       keys-only (~1/5 of custkeys, 8 B each), so it broadcasts and
       the filter runs map-side (bucketed above the broadcast budget).
    2. lineitem(shipdate > cutoff) ⋈ that result on orderkey — the
       fact side pre-aggregates revenue per (batch, orderkey) (n:1
       join, distributive sum), and the join's finish re-aggregates
       whole orderkey groups and keeps only their top-k, so ≤
       buckets×k candidate rows reach the driver-side final sort
       (house rule: no Ray sort on tiny sets).  The top-k is a finish,
       never a per-batch combine: an orderkey's lineitems can span
       batches, so partial sums must fully re-aggregate before any cut.
    Order: revenue desc, orderdate asc, orderkey asc — fully
    deterministic tie-break, mirrored by the oracle."""
    cutoff_ts = np.datetime64(cutoff, "us")

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def cust_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["c_mktsegment"], segment))
        return pa.table({"o_custkey": t["c_custkey"]})

    orders = _read(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.less(batch["o_orderdate"], pa.scalar(cutoff_ts))
        )

    open_orders = exchange.join(
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        cust.map_batches(cust_keys, batch_format="pyarrow"),
        on="o_custkey",
        how="left semi",
        combine=lambda j: j.select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ),
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
        lazy=True,
    )

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch["l_shipdate"], pa.scalar(cutoff_ts))
        )
        ep = pc.cast(batch["l_extendedprice"], pa.float64())
        disc = pc.cast(batch["l_discount"], pa.float64())
        t = pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "revenue_cents": cents(
                    pc.multiply(ep, pc.subtract(1.0, disc))
                ),
            }
        )
        agg = t.group_by("o_orderkey").aggregate([("revenue_cents", "sum")])
        return agg.rename_columns(["o_orderkey", "revenue_cents"])

    def topk(joined: pa.Table) -> pa.Table:
        agg = joined.group_by(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).aggregate([("revenue_cents", "sum")])
        return (
            agg.rename_columns(
                [
                    "o_orderkey",
                    "o_orderdate",
                    "o_orderpriority",
                    "revenue_cents",
                ]
            )
            .sort_by(
                [
                    ("revenue_cents", "descending"),
                    ("o_orderdate", "ascending"),
                    ("o_orderkey", "ascending"),
                ]
            )
            .slice(0, k)
        )

    cand = exchange.join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        open_orders,
        on="o_orderkey",
        finish=topk,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("revenue_cents", pa.int64())]
        ),
    )
    if cand.num_rows == 0:
        return pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "o_orderpriority": pa.array([], pa.string()),
                "revenue_cents": pa.array([], pa.int64()),
            }
        )
    out = cand.sort_by(
        [
            ("revenue_cents", "descending"),
            ("o_orderdate", "ascending"),
            ("o_orderkey", "ascending"),
        ]
    ).slice(0, k)
    # Arrow group_by keys may round-trip timestamp precision; pin [us]
    return out.set_column(
        1,
        "o_orderdate",
        pc.cast(out["o_orderdate"], pa.timestamp("us")),
    )


def _supplier_nation_ref(sf_dir: str, nat_keys: np.ndarray | None = None):
    """ray.put sorted (suppkey, nationkey) arrays, optionally filtered
    to a nation set.  Supplier is the smallest fact-side dim (SF×10k);
    broadcasting it is the house Q5 precedent — the documented boundary
    is supplier no longer fitting a worker heap (SF ≳ 100k)."""
    import pyarrow.parquet as pq
    import ray

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    if nat_keys is not None:
        keep = np.isin(sn, nat_keys)
        sk, sn = sk[keep], sn[keep]
    order = np.argsort(sk)
    return ray.put((sk[order], sn[order]))


def q5_local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1999-01-01",
    num_buckets: int = 32,
):
    """TPC-H Q5 shape — revenue by nation where customer and supplier
    share the nation: six tables, → (n_name, revenue_cents) desc.

    Join strategy by side shape (SURVEY §2.5 patterns composed):
    * region ⋈ nation resolve DRIVER-side (≤25 rows) into a
      nationkey→name map for the target region.
    * date-filtered orders ⋈ region-filtered customer (custkey →
      nationkey pairs) through ``exchange.join``: the pair list
      broadcasts, so orders tag their customer's nation map-side and
      the customer join costs no shuffle (bucketed above the
      broadcast budget — TPC-H SF ≥ ~35 customers).
    * supplier reduces to a suppkey→nationkey map, broadcast the same
      way (supplier is 10× smaller than customer in TPC-H).
    * lineitem, pre-reduced to (orderkey, suppkey, revenue_cents)
      partials, ⋈ the tagged orders (~10 % of orders) on orderkey
      through ``exchange.join`` again, with the c_nation = s_nation
      predicate + per-nation rollup as its per-batch combine, so only
      O(batches × 5 nations) partial rows ever leave the join (summing
      per-nation partials is distributive)."""
    import pyarrow.parquet as pq
    import ray

    cut_lo = np.datetime64(date_from, "us")
    cut_hi = np.datetime64(date_to, "us")

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = {
        n: k
        for k, n in zip(
            reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()
        )
    }[region]
    nmask = pc.equal(nation["n_regionkey"], rkey)
    nat = nation.filter(nmask)
    nat_keys = np.sort(
        nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    # nationkey → name, as aligned arrays for vectorized take
    nk = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nk)
    name_by_nation = (nk[order], nat["n_name"].take(pa.array(order)))

    s_ref = _supplier_nation_ref(sf_dir)

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

    def ord_date(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.and_(
                pc.greater_equal(batch["o_orderdate"], pa.scalar(cut_lo)),
                pc.less(batch["o_orderdate"], pa.scalar(cut_hi)),
            )
        ).select(["o_orderkey", "o_custkey"])

    tagged = exchange.join(
        _read(
            sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
        ).map_batches(ord_date, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        combine=lambda j: j.select(["o_orderkey", "c_nation"]),
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_custkey", pa.int64()), ("c_nation", pa.int64())]
        ),
        lazy=True,
    )

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        ep = pc.cast(batch["l_extendedprice"], pa.float64())
        disc = pc.cast(batch["l_discount"], pa.float64())
        t = pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "revenue_cents": cents(
                    pc.multiply(ep, pc.subtract(1.0, disc))
                ),
            }
        )
        agg = t.group_by(["o_orderkey", "l_suppkey"]).aggregate(
            [("revenue_cents", "sum")]
        )
        return agg.rename_columns(
            ["o_orderkey", "l_suppkey", "revenue_cents"]
        )

    def nation_partial(joined: pa.Table) -> pa.Table:
        sk, sv = ray.get(s_ref)
        supp = joined["l_suppkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sk, supp)
        ok = (
            (idx < len(sk))
            & (sk[np.minimum(idx, max(len(sk) - 1, 0))] == supp)
            if len(sk)
            else np.zeros(len(supp), dtype=bool)
        )
        s_nat = np.where(ok, sv[np.minimum(idx, max(len(sk) - 1, 0))], -1)
        c_nat = joined["c_nation"].to_numpy(zero_copy_only=False)
        keep = s_nat == c_nat
        t = pa.table(
            {
                "nation": pa.array(c_nat[keep], pa.int64()),
                "revenue_cents": pc.cast(
                    joined["revenue_cents"], pa.int64()
                ).filter(pa.array(keep)),
            }
        )
        agg = t.group_by("nation").aggregate([("revenue_cents", "sum")])
        return agg.rename_columns(["nation", "revenue_cents"])

    partials = exchange.join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        tagged,
        on="o_orderkey",
        combine=nation_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("revenue_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("c_nation", pa.int64())]
        ),
    )
    if partials.num_rows == 0:
        return pa.table(
            {
                "n_name": pa.array([], pa.string()),
                "revenue_cents": pa.array([], pa.int64()),
            }
        )
    tiny = (
        partials.group_by("nation")
        .aggregate([("revenue_cents", "sum")])
    )
    nats = tiny["nation"].to_numpy(zero_copy_only=False)
    names = name_by_nation[1].take(
        pa.array(np.searchsorted(name_by_nation[0], nats))
    )
    out = pa.table(
        {
            "n_name": names,
            "revenue_cents": pc.cast(
                tiny["revenue_cents_sum"], pa.int64()
            ),
        }
    ).sort_by([("revenue_cents", "descending"), ("n_name", "ascending")])
    return out


def q18_big_orders(
    sf_dir: str,
    threshold_centi: int = 30_000,
    num_buckets: int = 32,
):
    """TPC-H Q18 shape — "large volume" orders: every order whose total
    lineitem quantity exceeds the threshold, with its customer name
    attached.  → (c_name, c_custkey, o_orderkey, o_orderdate,
    total_price_cents, sum_qty_centi).

    The HAVING-over-a-billion-key-groupby composition:

    1. lineitem → per-batch partial quantity sums per orderkey
       (distributive combiner — repeats collapse before the exchange;
       quantity travels as integer centi-units so any summation order
       is exact), ONE orderkey-bucket shuffle, per-bucket exact sum +
       ``HAVING sum > threshold`` filter.  Survivors are the extreme
       tail by construction (~1/1000 orders at TPC-H distributions),
       so they collect driver-side and become the broadcast key set
       for everything downstream — the `top_customers` inversion:
       ship the WINNERS' keys, never a dimension table.
    2. orders, then customer, are FILTERED READS against the sorted
       survivor key arrays (map-side ``searchsorted``, no shuffle),
       and the final ≤-survivors-sized join + sort run driver-side.
    """
    import ray

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "qc": pc.cast(cents(batch["l_quantity"]), pa.int64()),
            }
        )
        agg = t.group_by("o_orderkey").aggregate([("qc", "sum")])
        ok = agg["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": agg["o_orderkey"],
                "qc": agg["qc_sum"],
                "bucket": pa.array(
                    (ok % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def bucket_having(group: pa.Table) -> pa.Table:
        agg = group.group_by("o_orderkey").aggregate([("qc", "sum")])
        agg = agg.filter(pc.greater(agg["qc_sum"], threshold_centi))
        return agg.rename_columns(["o_orderkey", "sum_qty_centi"])

    # adaptive finish: partials are per-batch-distinct orderkeys — when
    # that measures small (free block-metadata count) the HAVING sweep
    # is one driver Arrow pass; the bucketed shuffle is the big branch
    big_tbl = exchange.bucket_finish(
        li.map_batches(partials, batch_format="pyarrow"),
        bucket_having,
        pa.schema([("o_orderkey", pa.int64()), ("sum_qty_centi", pa.int64())]),
    )
    empty = pa.table(
        {
            "c_name": pa.array([], pa.string()),
            "c_custkey": pa.array([], pa.int64()),
            "o_orderkey": pa.array([], pa.int64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
            "total_price_cents": pa.array([], pa.int64()),
            "sum_qty_centi": pa.array([], pa.int64()),
        }
    )
    if big_tbl.num_rows == 0:
        return empty
    okeys = np.sort(big_tbl["o_orderkey"].to_numpy(zero_copy_only=False))
    ok_ref = ray.put(okeys)

    def ord_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(ok_ref)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ks, ok)
        hit = (idx < len(ks)) & (
            ks[np.minimum(idx, len(ks) - 1)] == ok
        )
        t = batch.filter(pa.array(hit))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "o_orderdate": t["o_orderdate"],
                "total_price_cents": pc.cast(
                    cents(t["o_totalprice"]), pa.int64()
                ),
            }
        )

    ords = [
        t
        for t in ray.get(
            _read(
                sf_dir,
                "orders",
                columns=[
                    "o_orderkey",
                    "o_custkey",
                    "o_orderdate",
                    "o_totalprice",
                ],
            )
            .map_batches(ord_filter, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not ords:
        return empty
    ord_tbl = pa.concat_tables(ords)
    ckeys = np.sort(
        np.unique(ord_tbl["o_custkey"].to_numpy(zero_copy_only=False))
    )
    ck_ref = ray.put(ckeys)

    def cust_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(ck_ref)
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ks, ck)
        hit = (idx < len(ks)) & (
            ks[np.minimum(idx, len(ks) - 1)] == ck
        )
        return batch.filter(pa.array(hit)).select(["c_custkey", "c_name"])

    custs = [
        t
        for t in ray.get(
            _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
            .map_batches(cust_filter, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    cust_tbl = (
        pa.concat_tables(custs)
        if custs
        else pa.table(
            {
                "c_custkey": pa.array([], pa.int64()),
                "c_name": pa.array([], pa.string()),
            }
        )
    )
    out = big_tbl.join(ord_tbl, keys="o_orderkey").join(
        cust_tbl, keys="o_custkey", right_keys="c_custkey"
    )
    out = out.take(
        pc.sort_indices(
            out,
            sort_keys=[
                ("total_price_cents", "descending"),
                ("o_orderkey", "ascending"),
            ],
        )
    )
    return pa.table(
        {
            "c_name": out["c_name"],
            "c_custkey": pc.cast(out["o_custkey"], pa.int64()),
            "o_orderkey": out["o_orderkey"],
            "o_orderdate": out["o_orderdate"],
            "total_price_cents": out["total_price_cents"],
            "sum_qty_centi": pc.cast(out["sum_qty_centi"], pa.int64()),
        }
    )


def q13_customer_distribution(
    sf_dir: str,
    priority: str = "1-URGENT",
    num_buckets: int = 32,
):
    """TPC-H Q13 shape — customer order-count distribution:
    → (c_count, custdist) where ``c_count`` = number of *matching*
    orders a customer placed and ``custdist`` = how many customers
    share that count.  The LEFT-OUTER-JOIN-then-double-groupby
    composition, with the zero-preserving twist: customers with NO
    matching order must appear in the ``c_count = 0`` bucket.

    Zero-preservation WITHOUT shipping the customer table: orders'
    ``o_custkey`` is a foreign key into customer (guaranteed by the
    generator, asserted by the oracle's LEFT JOIN), so the c_count=0
    population is ``total_customers − |distinct custkeys with ≥1
    matching order|`` — and ``total_customers`` is free from parquet
    file metadata.  No join, no customer scan.

    1. orders → per-batch filter + partial counts per custkey
       (distributive combiner: repeats collapse before any exchange);
    2. adaptive finish (``exchange.bucket_finish``): up to
       ``exchange.DRIVER_FINISH_MAX`` partial rows ONE driver Arrow
       hash-agg; above, a ``custkey % num_buckets`` shuffle where each
       bucket emits its HISTOGRAM partials (≤ max_count rows per
       bucket — the second groupby never re-shuffles at customer
       width);
    3. histogram partials merge driver-side; the 0-bucket is appended
       arithmetically.
    """
    import pyarrow.parquet as pq

    total_customers = pq.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows

    ords = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def partials(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["o_orderpriority"], priority))
        agg = t.group_by("o_custkey").aggregate([("o_custkey", "count")])
        ck = agg["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": agg["o_custkey"],
                "n": pc.cast(agg["o_custkey_count"], pa.int64()),
                "bucket": pa.array(
                    (ck % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def hist_of(counts: pa.Table) -> pa.Table:
        """counts (o_custkey, n) → histogram partial (c_count, custdist)."""
        per_cust = counts.group_by("o_custkey").aggregate([("n", "sum")])
        h = per_cust.group_by("n_sum").aggregate([("n_sum", "count")])
        return pa.table(
            {
                "c_count": pc.cast(h["n_sum"], pa.int64()),
                "custdist": pc.cast(h["n_sum_count"], pa.int64()),
            }
        )

    h = exchange.bucket_finish(
        ords.map_batches(partials, batch_format="pyarrow"),
        hist_of,
        pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())]),
    ).group_by("c_count").aggregate([("custdist", "sum")])
    c_count = h["c_count"].to_numpy(zero_copy_only=False)
    custdist = h["custdist_sum"].to_numpy(zero_copy_only=False)
    n_zero = total_customers - int(custdist.sum())
    if n_zero > 0:
        c_count = np.append(c_count, 0)
        custdist = np.append(custdist, n_zero)
    order = np.lexsort((c_count,))
    return pa.table(
        {
            "c_count": pa.array(c_count[order], pa.int64()),
            "custdist": pa.array(custdist[order], pa.int64()),
        }
    )


def q4_order_priority(
    sf_dir: str,
    date_lo: str = "1997-01-01",
    date_hi: str = "1997-04-01",
    num_buckets: int = 32,
):
    """TPC-H Q4 shape — order-priority checking: count orders placed in
    a quarter that have at least one returned lineitem (EXISTS
    semi-join) → (o_orderpriority, order_count).

    One ``exchange.join`` EXISTS semi-join, both sides combined
    first — lineitem collapses to per-batch DISTINCT returned
    orderkeys (the build side), orders filter to the quarter at the
    read.  The returned-key set broadcasts and the EXISTS test runs
    map-side (bucketed above the broadcast budget); either way the
    per-batch (or per-bucket) priority rollup is the join's combine,
    so the driver-side finish merges ≤ tasks×5 partial rows.
    """
    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def returned_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        return t.group_by("l_orderkey").aggregate([]).rename_columns(
            ["o_orderkey"]
        )

    ords = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )

    def quarter(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo.item())),
            pc.less(batch["o_orderdate"], pa.scalar(hi.item())),
        )
        return batch.filter(m).select(["o_orderkey", "o_orderpriority"])

    def prio_partial(t: pa.Table) -> pa.Table:
        agg = t.group_by("o_orderpriority").aggregate(
            [("o_orderpriority", "count")]
        )
        return pa.table(
            {
                "o_orderpriority": agg["o_orderpriority"],
                "n": pc.cast(agg["o_orderpriority_count"], pa.int64()),
            }
        )

    parts = exchange.join(
        ords.map_batches(quarter, batch_format="pyarrow"),
        li.map_batches(returned_keys, batch_format="pyarrow"),
        on="o_orderkey",
        how="left semi",
        combine=prio_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64())]),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "o_orderpriority": pa.array([], pa.string()),
                "order_count": pa.array([], pa.int64()),
            }
        )
    agg = (
        parts.group_by("o_orderpriority")
        .aggregate([("n", "sum")])
    )
    agg = agg.take(pc.sort_indices(agg, sort_keys=[("o_orderpriority", "ascending")]))
    return pa.table(
        {
            "o_orderpriority": agg["o_orderpriority"],
            "order_count": pc.cast(agg["n_sum"], pa.int64()),
        }
    )


def q15_top_supplier(
    sf_dir: str,
    date_lo: str = "1997-01-01",
    date_hi: str = "1997-04-01",
    num_buckets: int = 32,
):
    """TPC-H Q15 shape — top supplier(s) by quarterly revenue: the
    ARGMAX-WITH-TIES composition (a correlated ``= (SELECT max(...))``
    subquery in SQL) → (s_suppkey, s_name, total_revenue_cents).

    Max-selection distributes without a second pass: per-batch revenue
    partials per suppkey (combiner), then either the driver finish (up
    to ``exchange.DRIVER_FINISH_MAX`` partial rows: one Arrow hash-agg
    + max scan) or a
    suppkey-bucketed shuffle where each bucket — holding its suppliers'
    EXACT totals — emits only rows equal to its LOCAL max: the global
    max is the max of bucket maxima, so winners are guaranteed to be
    among the ≤ buckets × ties candidates.  Winner names come from a
    filtered supplier read against the sorted winner-key array (the
    `q18` inversion — ship winners' keys, never the dimension table).
    """
    import ray

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partials(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"], pa.scalar(lo.item())),
            pc.less(batch["l_shipdate"], pa.scalar(hi.item())),
        )
        t = batch.filter(m)
        ep = pc.cast(t["l_extendedprice"], pa.float64())
        disc = pc.cast(t["l_discount"], pa.float64())
        part = pa.table(
            {
                "s_suppkey": t["l_suppkey"],
                "rc": cents(pc.multiply(ep, pc.subtract(1.0, disc))),
            }
        )
        agg = part.group_by("s_suppkey").aggregate([("rc", "sum")])
        sk = agg["s_suppkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_suppkey": agg["s_suppkey"],
                "rc": agg["rc_sum"],
                "bucket": pa.array(
                    (sk % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def bucket_max_rows(t: pa.Table) -> pa.Table:
        agg = t.group_by("s_suppkey").aggregate([("rc", "sum")])
        mx = pc.max(agg["rc_sum"])
        win = agg.filter(pc.equal(agg["rc_sum"], mx))
        return pa.table(
            {
                "s_suppkey": win["s_suppkey"],
                "total_revenue_cents": pc.cast(win["rc_sum"], pa.int64()),
            }
        )

    empty = pa.table(
        {
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_revenue_cents": pa.array([], pa.int64()),
        }
    )
    cand_tbl = exchange.bucket_finish(
        li.map_batches(partials, batch_format="pyarrow"),
        bucket_max_rows,
        pa.schema(
            [("s_suppkey", pa.int64()), ("total_revenue_cents", pa.int64())]
        ),
    )
    if cand_tbl.num_rows == 0:
        return empty
    gmax = pc.max(cand_tbl["total_revenue_cents"])
    winners = cand_tbl.filter(
        pc.equal(cand_tbl["total_revenue_cents"], gmax)
    )
    wkeys = np.sort(winners["s_suppkey"].to_numpy(zero_copy_only=False))
    wk_ref = ray.put(wkeys)

    def name_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(wk_ref)
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ks, sk)
        hit = (idx < len(ks)) & (ks[np.minimum(idx, len(ks) - 1)] == sk)
        return batch.filter(pa.array(hit)).select(["s_suppkey", "s_name"])

    names = [
        t
        for t in ray.get(
            _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
            .map_batches(name_filter, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not names:
        return empty
    out = winners.join(pa.concat_tables(names), keys="s_suppkey")
    out = out.take(pc.sort_indices(out, sort_keys=[("s_suppkey", "ascending")]))
    return pa.table(
        {
            "s_suppkey": out["s_suppkey"],
            "s_name": out["s_name"],
            "total_revenue_cents": out["total_revenue_cents"],
        }
    )


def q22_inactive_customers(
    sf_dir: str,
    active_since: str = "2000-01-01",
    num_buckets: int = 32,
):
    """TPC-H Q22 shape — "global sales opportunity": customers with an
    ABOVE-AVERAGE positive account balance and NO order since a cutoff
    → (c_mktsegment, numcust, totacctbal_cents).  Composes a scalar
    aggregate subquery, an anti-join, and a groupby.

    Float-free average: the threshold test ``bal > avg(bal)`` runs as
    the integer cross-multiplication ``bal_cents × n_pos >
    sum_pos_cents`` — both sides exact int64, so engine and oracle
    agree bit-for-bit regardless of summation order (the repo's money
    discipline; a float avg would be order-dependent).

    Three passes, all combiner-sized exchanges:
    1. customer → (Σ positive balance cents, count) — two numbers;
    2. orders(date ≥ cutoff) → distinct active custkeys, the build
       side of an ``exchange.join`` anti-join (broadcast: a map-side
       ``searchsorted`` filter, the seen-URL filter shape, J5;
       bucketed above the broadcast budget);
    3. customer → filter (above-avg ∧ inactive) → per-batch
       (segment, count, Σ) partials → driver merge of ≤ tasks ×
       segments rows.
    """
    import ray

    cutoff = np.datetime64(active_since, "us")

    cust = _read(
        sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"]
    )

    def pos_partial(batch: pa.Table) -> pa.Table:
        bal = cents(batch["c_acctbal"])
        t = pc.filter(bal, pc.greater(bal, 0))
        return pa.table(
            {
                "s": pa.array([pc.sum(t).as_py() or 0], pa.int64()),
                "n": pa.array([len(t)], pa.int64()),
            }
        )

    pos_blocks = [
        t
        for t in ray.get(
            cust.map_batches(pos_partial, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    pos_tbl = pa.concat_tables(pos_blocks)
    sum_pos = pc.sum(pos_tbl["s"]).as_py() or 0
    n_pos = pc.sum(pos_tbl["n"]).as_py() or 0

    ords = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def active_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(cutoff.item()))
        )
        return t.group_by("o_custkey").aggregate([]).rename_columns(
            ["c_custkey"]
        )

    def seg_partial(t: pa.Table) -> pa.Table:
        bal = cents(t["c_acctbal"])
        t2 = pa.table({"c_mktsegment": t["c_mktsegment"], "bal": bal})
        agg = t2.group_by("c_mktsegment").aggregate(
            [("bal", "sum"), ("bal", "count")]
        )
        return pa.table(
            {
                "c_mktsegment": agg["c_mktsegment"],
                "numcust": pc.cast(agg["bal_count"], pa.int64()),
                "totacctbal_cents": pc.cast(agg["bal_sum"], pa.int64()),
            }
        )

    def above_avg(batch: pa.Table) -> pa.Table:
        bal = cents(batch["c_acctbal"])
        keep = pc.greater(pc.multiply(bal, n_pos), sum_pos)
        return batch.filter(keep)

    parts = exchange.join(
        cust.map_batches(above_avg, batch_format="pyarrow"),
        ords.map_batches(active_keys, batch_format="pyarrow"),
        on="c_custkey",
        how="left anti",
        combine=seg_partial,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("c_custkey", pa.int64()),
                ("c_mktsegment", pa.string()),
                ("c_acctbal", pa.float64()),
            ]
        ),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    )
    if parts.num_rows == 0:
        return pa.table(
            {
                "c_mktsegment": pa.array([], pa.string()),
                "numcust": pa.array([], pa.int64()),
                "totacctbal_cents": pa.array([], pa.int64()),
            }
        )
    agg = (
        parts.group_by("c_mktsegment")
        .aggregate([("numcust", "sum"), ("totacctbal_cents", "sum")])
    )
    agg = agg.take(
        pc.sort_indices(agg, sort_keys=[("c_mktsegment", "ascending")])
    )
    return pa.table(
        {
            "c_mktsegment": agg["c_mktsegment"],
            "numcust": pc.cast(agg["numcust_sum"], pa.int64()),
            "totacctbal_cents": pc.cast(
                agg["totacctbal_cents_sum"], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------

def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + sum(value) in
    micros.  Window assignment is a per-row truncation (stateless map);
    the groupby is the only shuffle."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def window(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                "event_type": batch["event_type"],
                "value_micros": cents(batch["value"], scale=1_000_000.0),
            }
        )

    def to_us(batch: pa.Table) -> pa.Table:
        # Ray's Aggregate downcasts timestamp keys to [s]; restore [us]
        # so the dtype matches DuckDB date_trunc output exactly
        return batch.set_column(
            batch.schema.get_field_index("window_start"),
            "window_start",
            pc.cast(batch["window_start"], pa.timestamp("us")),
        )

    import ray

    def partial(batch: pa.Table) -> pa.Table:
        t = window(batch)
        agg = t.group_by(["window_start", "event_type"]).aggregate(
            [("value_micros", "count"), ("value_micros", "sum")]
        )
        return agg.rename_columns(
            ["window_start", "event_type", "n_events", "sum_value_micros"]
        )

    pre = ev.map_batches(partial, batch_format="pyarrow").materialize()
    # adaptive finish: partial volume is blocks × (windows × types) —
    # combiner-sized for any realistic span; driver Arrow hash-agg up
    # to exchange.DRIVER_FINISH_MAX partial rows, the Ray groupby
    # shuffle beyond
    if pre.count() <= exchange.DRIVER_FINISH_MAX:
        parts = [t for t in ray.get(pre.to_arrow_refs()) if t.num_rows]
        if not parts:
            return pa.table(
                {
                    "window_start": pa.array([], pa.timestamp("us")),
                    "event_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "sum_value_micros": pa.array([], pa.int64()),
                }
            )
        agg = (
            pa.concat_tables(parts)
            .group_by(["window_start", "event_type"])
            .aggregate([("n_events", "sum"), ("sum_value_micros", "sum")])
        )
        return pa.table(
            {
                "window_start": pc.cast(
                    agg["window_start"], pa.timestamp("us")
                ),
                "event_type": agg["event_type"],
                "n_events": pc.cast(agg["n_events_sum"], pa.int64()),
                "sum_value_micros": pc.cast(
                    agg["sum_value_micros_sum"], pa.int64()
                ),
            }
        )
    return (
        pre.groupby(["window_start", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_micros", alias_name="sum_value_micros"),
        )
        .map_batches(to_us, batch_format="pyarrow")
    )


def events_daily_active(
    sf_dir: str,
    num_buckets: int = 64,
):
    """→ (day, n_active): EXACT daily count-distinct users — the
    canonical big-data distinct aggregation, done as two-level
    distinct so no stage ever sees the raw event stream twice:
    1. per-batch pre-distinct of (day, user_id) pairs (Arrow hash-agg
       combiner — repeat events collapse before any exchange);
    2. one shuffle keyed ``user_id % num_buckets`` (a user's pairs all
       land in one bucket, so the per-bucket distinct is globally
       exact), each bucket emitting per-day partial counts;
    3. ≤ buckets × days partial rows roll up driver-side.

    Adaptive finish (``exchange.bucket_finish``): the shuffled volume
    is DISTINCT (day, user) pairs — users × active-days, far below raw
    events for any realistic corpus.  When the materialized
    pre-distinct measures ≤ ``exchange.DRIVER_FINISH_MAX`` rows
    (block-metadata count, free), one driver-side pass of the same
    per-bucket kernel replaces the bucketed shuffle."""

    ev = _read(sf_dir, "events", columns=["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "day": pc.floor_temporal(batch["ts"], unit="day"),
                "user_id": batch["user_id"],
            }
        )
        g = t.group_by(["day", "user_id"]).aggregate([])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        return g.append_column(
            "bucket",
            pa.array((uid % num_buckets).astype(np.int32), pa.int32()),
        )

    def bucket_counts(group: pa.Table) -> pa.Table:
        g = group.group_by(["day", "user_id"]).aggregate([])
        agg = g.group_by("day").aggregate([("user_id", "count")])
        return pa.table(
            {"day": agg["day"], "n_part": agg["user_id_count"]}
        )

    parts = exchange.bucket_finish(
        ev.map_batches(pairs, batch_format="pyarrow"),
        bucket_counts,
        pa.schema([("day", pa.timestamp("us")), ("n_part", pa.int64())]),
    )
    agg = parts.group_by("day").aggregate([("n_part", "sum")])
    return pa.table(
        {
            "day": pc.cast(agg["day"], pa.timestamp("us")),
            "n_active": pc.cast(agg["n_part_sum"], pa.int64()),
        }
    )


_DAY_US = 86_400_000_000


def events_no_purchase_users(sf_dir: str, num_buckets: int = 32):
    """→ (user_id, day, n_clicks): click activity on (user, day) pairs
    with NO same-day purchase by that user — the distributed ANTI-join
    (the crawl's seen-URL filter, SURVEY §2.5 J5, generalized to
    arbitrary keyed sides).  Both sides pre-reduce per batch (click
    counts per (user, day); distinct purchaser (user, day) pairs), the
    composite key packs into one int64 (``user·2¹⁶ + epoch_day`` —
    day counts fit 16 bits for centuries), one bucketed shuffle
    co-locates a key's rows, and Arrow's ``left anti`` join + rollup
    finish inside each bucket."""
    ev = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def key_of(batch: pa.Table) -> pa.Array:
        day = pc.divide(
            pc.cast(batch["ts"], pa.int64()), _DAY_US
        )
        return pc.add(
            pc.multiply(pc.cast(batch["user_id"], pa.int64()), 65536), day
        )

    def clicks(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "click"))
        k = key_of(t)
        tt = pa.table({"k": k})
        agg = tt.group_by("k").aggregate([("k", "count")])
        return agg.rename_columns(["k", "n_clicks"])

    def purchasers(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return pa.table({"k": key_of(t)}).group_by("k").aggregate([])

    def finish(g: pa.Table) -> pa.Table:
        agg = g.group_by("k").aggregate([("n_clicks", "sum")])
        k = agg["k"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(k // 65536, pa.int64()),
                "day": pc.cast(
                    pa.array((k % 65536) * _DAY_US, pa.int64()),
                    pa.timestamp("us"),
                ),
                "n_clicks": pc.cast(agg["n_clicks_sum"], pa.int64()),
            }
        )

    return hash_bucket_join(
        ev.map_batches(clicks, batch_format="pyarrow"),
        ev.map_batches(purchasers, batch_format="pyarrow"),
        on="k",
        num_buckets=num_buckets,
        join_type="left anti",
        bucket_postprocess=finish,
        left_schema=pa.schema(
            [("k", pa.int64()), ("n_clicks", pa.int64())]
        ),
        right_schema=pa.schema([("k", pa.int64())]),
    )


def events_retention(
    sf_dir: str,
    num_buckets: int = 64,
):
    """→ (cohort_day, day_offset, n_users): classic cohort retention —
    each user is cohorted by their FIRST active day, then counted once
    per later active day, reported as whole-day offsets from the
    cohort day (offset 0 = the cohort's own size).

    Same two-level exact-distinct shape as :func:`events_daily_active`:

    1. per-batch pre-distinct of (user, epoch-day) pairs (Arrow
       hash-agg combiner — repeat events collapse before any exchange;
       days ride as int64 epoch-days, 8 bytes/row in the shuffle);
    2. one shuffle keyed ``user_id % num_buckets`` co-locates every
       pair of a user, so the per-bucket cohort (min day per user,
       via one Arrow C++ hash join back onto the pairs) and the
       per-(cohort, offset) counts are globally exact — users
       partition across buckets, so partial counts SUM;
    3. ≤ buckets × cohorts × offsets partial rows roll up driver-side.

    Adaptive finish (``exchange.bucket_finish``): when the
    materialized pre-distinct measures ≤ ``exchange.DRIVER_FINISH_MAX``
    rows (block-metadata count, free), one driver-side Arrow pass
    replaces the bucketed shuffle."""

    ev = _read(sf_dir, "events", columns=["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()), _DAY_US)
        t = pa.table({"user_id": batch["user_id"], "day": day})
        g = t.group_by(["user_id", "day"]).aggregate([])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        return g.append_column(
            "bucket",
            pa.array((uid % num_buckets).astype(np.int32), pa.int32()),
        )

    def cohort_counts(group: pa.Table) -> pa.Table:
        g = (
            group.select(["user_id", "day"])
            .group_by(["user_id", "day"])
            .aggregate([])
        )
        coh = g.group_by("user_id").aggregate([("day", "min")])
        j = g.join(coh, keys="user_id")  # user_id, day, day_min
        t = pa.table(
            {
                "cohort_day": j["day_min"],
                "day_offset": pc.subtract(j["day"], j["day_min"]),
            }
        )
        agg = t.group_by(["cohort_day", "day_offset"]).aggregate(
            [("day_offset", "count")]
        )
        return agg.rename_columns(["cohort_day", "day_offset", "n_part"])

    agg = exchange.bucket_finish(
        ev.map_batches(pairs, batch_format="pyarrow"),
        cohort_counts,
        pa.schema(
            [
                ("cohort_day", pa.int64()),
                ("day_offset", pa.int64()),
                ("n_part", pa.int64()),
            ]
        ),
    ).group_by(["cohort_day", "day_offset"]).aggregate([("n_part", "sum")])
    return pa.table(
        {
            "cohort_day": pc.cast(
                pc.multiply(pc.cast(agg["cohort_day"], pa.int64()), _DAY_US),
                pa.timestamp("us"),
            ),
            "day_offset": pc.cast(agg["day_offset"], pa.int64()),
            "n_users": pc.cast(agg["n_part_sum"], pa.int64()),
        }
    )


_HLL_P = 12  # 4096 registers; standard error ≈ 1.04/√m ≈ 1.6 %


def _hll_registers(uids: np.ndarray) -> np.ndarray:
    """int64 user ids → 2^p max-rank registers (uint8), via blake2b
    64-bit hashes.  Deterministic: same ids ⇒ same registers."""
    import hashlib

    regs = np.zeros(1 << _HLL_P, dtype=np.uint8)
    for u in uids.tolist():
        h = int.from_bytes(
            hashlib.blake2b(
                int(u).to_bytes(8, "little", signed=True), digest_size=8
            ).digest(),
            "little",
        )
        idx = h & ((1 << _HLL_P) - 1)
        w = h >> _HLL_P
        rank = (52 - w.bit_length()) + 1 if w else 53
        if rank > regs[idx]:
            regs[idx] = rank
    return regs


def _hll_estimate(regs: np.ndarray) -> int:
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    return int(est)


def events_dau_hll(sf_dir: str):
    """→ (day, n_estimate): HyperLogLog daily-active sketch — the
    constant-memory path when exact distinct (``events_daily_active``)
    is too expensive to shuffle.  Registers merge by elementwise max
    (associative + commutative ⇒ the estimate is DETERMINISTIC under
    any partitioning — pinned by test), so per-batch sketches reduce
    driver-side with no shuffle at all; 4 KB per (batch, day).
    DuckDB's approx_count_distinct uses its own incompatible HLL, so
    the oracle is the sequential golden (`oracle/goldens.py`
    ``events_hll.parquet``: one register set per day, no merge step);
    the conformance test additionally pins estimate error ≤ 5 %
    against the exact operator and partition invariance."""
    import ray

    ev = _read(sf_dir, "events", columns=["ts", "user_id"])

    def sketch(batch: pa.Table) -> pa.Table:
        days = pc.floor_temporal(batch["ts"], unit="day")
        t = pa.table({"day": days, "user_id": batch["user_id"]})
        out_day, out_regs = [], []
        for day_val in pc.unique(days).to_pylist():
            mask = pc.equal(t["day"], pa.scalar(day_val, type=days.type))
            uids = (
                t.filter(mask)["user_id"].to_numpy(zero_copy_only=False)
            )
            out_day.append(day_val)
            out_regs.append(_hll_registers(uids).tobytes())
        return pa.table(
            {
                "day": pa.array(out_day, days.type),
                "regs": pa.array(out_regs, pa.binary()),
            }
        )

    merged: dict = {}
    for t in ray.get(
        ev.map_batches(sketch, batch_format="pyarrow").to_arrow_refs()
    ):
        if not t.num_rows:
            continue
        for day_val, rb in zip(t["day"].to_pylist(), t["regs"].to_pylist()):
            r = np.frombuffer(rb, dtype=np.uint8)
            if day_val in merged:
                np.maximum(merged[day_val], r, out=merged[day_val])
            else:
                merged[day_val] = r.copy()
    days = sorted(merged)
    return pa.table(
        {
            "day": pa.array(days, pa.timestamp("us")),
            "n_estimate": pa.array(
                [_hll_estimate(merged[d]) for d in days], pa.int64()
            ),
        }
    )


def events_hopping(sf_dir: str, size_minutes: int = 60,
                   hop_minutes: int = 15):
    """Hopping (sliding) window aggregate: count + value sum per
    (window_start, event_type) for 60-min windows advancing every
    15 min — each event belongs to ``size/hop`` overlapping windows.

    Shape: window assignment is a stateless per-row fan-out
    (``k = size/hop`` copies via vectorized int arithmetic on epoch
    micros — no Python row loop, no state), so the only shuffle is the
    final groupby; the per-batch Arrow combiner keeps the shuffle at
    O(windows × types) rows per block, not O(events × k)."""
    import ray.data
    from ray.data.aggregate import Sum

    assert size_minutes % hop_minutes == 0
    k = size_minutes // hop_minutes
    hop_us = hop_minutes * 60 * 1_000_000

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def window(batch: pa.Table) -> pa.Table:
        tsi = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        base = tsi // hop_us
        etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        vmic = cents(batch["value"], scale=1_000_000.0).to_numpy(
            zero_copy_only=False
        )
        starts = np.concatenate([(base - i) * hop_us for i in range(k)])
        t = pa.table(
            {
                "ws_us": pa.array(starts, pa.int64()),
                "event_type": pa.array(np.tile(etype, k), pa.string()),
                "value_micros": pa.array(np.tile(vmic, k), pa.int64()),
                "n": pa.array(np.ones(len(starts), np.int64), pa.int64()),
            }
        )
        # combiner: pre-aggregate inside the batch before the shuffle
        agg = t.group_by(["ws_us", "event_type"]).aggregate(
            [("n", "sum"), ("value_micros", "sum")]
        )
        return agg.rename_columns(
            ["ws_us", "event_type", "n", "value_micros"]
        )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.cast(
                    pc.multiply(batch["ws_us"], 1), pa.timestamp("us")
                ),
                "event_type": batch["event_type"],
                "n_events": batch["n_events"],
                "sum_value_micros": batch["sum_value_micros"],
            }
        )

    import ray

    pre = ev.map_batches(window, batch_format="pyarrow").materialize()
    # adaptive finish (same rule as events_hourly): combiner partials
    # finish driver-side up to exchange.DRIVER_FINISH_MAX rows, Ray
    # groupby beyond
    if pre.count() <= exchange.DRIVER_FINISH_MAX:
        parts = [t for t in ray.get(pre.to_arrow_refs()) if t.num_rows]
        if not parts:
            return pa.table(
                {
                    "window_start": pa.array([], pa.timestamp("us")),
                    "event_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "sum_value_micros": pa.array([], pa.int64()),
                }
            )
        agg = (
            pa.concat_tables(parts)
            .group_by(["ws_us", "event_type"])
            .aggregate([("n", "sum"), ("value_micros", "sum")])
        )
        return pa.table(
            {
                "window_start": pc.cast(agg["ws_us"], pa.timestamp("us")),
                "event_type": agg["event_type"],
                "n_events": pc.cast(agg["n_sum"], pa.int64()),
                "sum_value_micros": pc.cast(
                    agg["value_micros_sum"], pa.int64()
                ),
            }
        )
    return (
        pre.groupby(["ws_us", "event_type"])
        .aggregate(
            Sum("n", alias_name="n_events"),
            Sum("value_micros", alias_name="sum_value_micros"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


_SESSION_QS = (0.25, 0.5, 0.75, 0.9, 0.99)


def events_session_length_quantiles(sf_dir: str, gap_minutes: int = 30):
    """→ (p, q_value): exact percentiles of session length (events per
    session) — a two-operator composition: `events_sessionize` (the
    user-bucketed windowed stage) feeds a histogram-combiner quantile
    (the `grouped_quantiles` technique, single group).  Session
    lengths are small integers, so each block collapses to a
    (len, count) histogram and percentiles resolve exactly from the
    merged cumulative counts driver-side: q(p) = min len whose rank
    ≥ max(1, ceil(p·n)) — the same rule the oracle's window SQL
    evaluates."""
    import math

    import ray

    sess = events_sessionize(sf_dir, gap_minutes=gap_minutes)

    def hist(batch: pa.Table) -> pa.Table:
        agg = (
            batch.select(["n_events"])
            .group_by("n_events")
            .aggregate([("n_events", "count")])
        )
        return agg.rename_columns(["len", "cnt"])

    parts = [
        t
        for t in ray.get(
            sess.map_batches(hist, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "p": pa.array([], pa.float64()),
                "q_value": pa.array([], pa.int64()),
            }
        )
    agg = (
        pa.concat_tables(parts).group_by("len").aggregate([("cnt", "sum")])
    )
    lens = agg["len"].to_numpy(zero_copy_only=False)
    cnts = agg["cnt_sum"].to_numpy(zero_copy_only=False)
    order = np.argsort(lens)
    lens, cnts = lens[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    qs, vals = [], []
    for p in _SESSION_QS:
        rank = max(1.0, math.ceil(p * n))
        qs.append(p)
        vals.append(int(lens[np.searchsorted(cum, rank)]))
    return pa.table(
        {
            "p": pa.array(qs, pa.float64()),
            "q_value": pa.array(vals, pa.int64()),
        }
    )


def events_top_user_per_day(sf_dir: str, num_buckets: int = 64):
    """→ (day, user_id, sum_value_micros): the highest-value user per
    day (ties → min user_id) — windowed heavy-hitter detection.

    Two-level exact top-1 without a day-keyed shuffle (days skew:
    one hot day can hold most of the corpus): the shuffle key is
    ``user % num_buckets`` so each bucket finishes its users' per-day
    sums exactly, keeps one candidate per (bucket, day), and the
    driver compares ≤ buckets × days candidates."""
    import ray

    ev = _read(sf_dir, "events", columns=["ts", "user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "day_us": pc.cast(
                    pc.floor_temporal(batch["ts"], unit="day"), pa.int64()
                ),
                "user_id": batch["user_id"],
                "v": cents(batch["value"], scale=1_000_000.0),
            }
        )
        agg = t.group_by(["day_us", "user_id"]).aggregate([("v", "sum")])
        return pa.table(
            {
                "day_us": agg["day_us"],
                "user_id": agg["user_id"],
                "v": agg["v_sum"],
                "bucket": exchange.bucket_of(agg["user_id"], num_buckets),
            }
        )

    def bucket_top1(g: pa.Table) -> pa.Table:
        agg = g.group_by(["day_us", "user_id"]).aggregate([("v", "sum")])
        day = agg["day_us"].to_numpy(zero_copy_only=False)
        uid = agg["user_id"].to_numpy(zero_copy_only=False)
        v = agg["v_sum"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -v, day))
        day_s = day[order]
        first = np.empty(len(day_s), dtype=bool)
        if len(day_s):
            first[0] = True
            np.not_equal(day_s[1:], day_s[:-1], out=first[1:])
        keep = order[first]
        return pa.table(
            {
                "day_us": pa.array(day[keep], pa.int64()),
                "user_id": pa.array(uid[keep], pa.int64()),
                "v": pa.array(v[keep], pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            ev.map_batches(partial, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_top1, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "day": pa.array([], pa.timestamp("us")),
                "user_id": pa.array([], pa.int64()),
                "sum_value_micros": pa.array([], pa.int64()),
            }
        )
    cat = pa.concat_tables(parts)
    day = cat["day_us"].to_numpy(zero_copy_only=False)
    uid = cat["user_id"].to_numpy(zero_copy_only=False)
    v = cat["v"].to_numpy(zero_copy_only=False)
    order = np.lexsort((uid, -v, day))
    day_s = day[order]
    first = np.empty(len(day_s), dtype=bool)
    if len(day_s):
        first[0] = True
        np.not_equal(day_s[1:], day_s[:-1], out=first[1:])
    keep = order[first]
    return pa.table(
        {
            "day": pc.cast(
                pa.array(day[keep], pa.int64()), pa.timestamp("us")
            ),
            "user_id": pa.array(uid[keep], pa.int64()),
            "sum_value_micros": pa.array(v[keep], pa.int64()),
        }
    )


_FUNNEL_STAGES = ("view", "click", "purchase")


def events_funnel(sf_dir: str, num_buckets: int = 64):
    """→ one row (n_view, n_view_click, n_view_click_purchase): users
    completing the ORDERED funnel — a first view, then a strictly
    later click, then a strictly later purchase (greedy-earliest
    semantics, the standard funnel definition; mirrored by the
    oracle's chained min-ts CTEs).

    Scale shape: events reduce per batch to skinny (user, stage-code,
    ts) rows — only funnel-typed events survive the projection.  One
    ``user % num_buckets`` shuffle co-locates a user's rows; inside a
    bucket one vectorized sweep per stage computes first-view,
    first-click-after, first-purchase-after; three integers per
    bucket roll up driver-side."""

    ev = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        rows = []
        for code, stage in enumerate(_FUNNEL_STAGES):
            t = batch.filter(pc.equal(batch["event_type"], stage))
            if not t.num_rows:
                continue
            rows.append(
                pa.table(
                    {
                        "user_id": t["user_id"],
                        "stage": pa.array(
                            [code] * t.num_rows, pa.int8()
                        ),
                        "ts_us": pc.cast(t["ts"], pa.int64()),
                    }
                )
            )
        if not rows:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "stage": pa.array([], pa.int8()),
                    "ts_us": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                }
            )
        t = pa.concat_tables(rows)
        # no per-batch min: a later stage's earliest-after anchor
        # depends on earlier stages' global mins, so local mins could
        # discard the true earliest-after candidate — all funnel-typed
        # rows ship (already a skinny 3-ints/event projection)
        return t.append_column(
            "bucket", exchange.bucket_of(t["user_id"], num_buckets)
        )

    def bucket_funnel(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        stage = g["stage"].to_numpy(zero_copy_only=False)
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        n_done = [0, 0, 0]
        if len(uid):
            order = np.lexsort((ts, stage, uid))
            uid, stage, ts = uid[order], stage[order], ts[order]
            users, starts = np.unique(uid, return_index=True)
            bounds = np.append(starts, len(uid))
            for i in range(len(users)):
                s, e = bounds[i], bounds[i + 1]
                st_, t_ = stage[s:e], ts[s:e]
                anchor = None
                for code in (0, 1, 2):
                    cand = t_[(st_ == code)] if anchor is None else t_[
                        (st_ == code) & (t_ > anchor)
                    ]
                    if not len(cand):
                        break
                    anchor = cand.min()
                    n_done[code] += 1
        return pa.table(
            {
                "n_view": pa.array([n_done[0]], pa.int64()),
                "n_view_click": pa.array([n_done[1]], pa.int64()),
                "n_view_click_purchase": pa.array(
                    [n_done[2]], pa.int64()
                ),
            }
        )

    # adaptive finish (exact either way): a small projected-row set
    # sweeps driver-side in one call instead of a bucketed shuffle
    # (same house rule as host_edges)
    cat = exchange.bucket_finish(
        ev.map_batches(prep, batch_format="pyarrow"),
        bucket_funnel,
        pa.schema(
            [
                ("n_view", pa.int64()),
                ("n_view_click", pa.int64()),
                ("n_view_click_purchase", pa.int64()),
            ]
        ),
    )
    return pa.table(
        {
            "n_view": pa.array(
                [pc.sum(cat["n_view"]).as_py() or 0], pa.int64()
            ),
            "n_view_click": pa.array(
                [pc.sum(cat["n_view_click"]).as_py() or 0], pa.int64()
            ),
            "n_view_click_purchase": pa.array(
                [pc.sum(cat["n_view_click_purchase"]).as_py() or 0],
                pa.int64(),
            ),
        }
    )


def events_sessionize(sf_dir: str, gap_minutes: int = 30,
                      num_buckets: int = 64):
    """Per-user sessionization (gap > 30 min starts a new session).

    Scale shape: a user's events must be co-located, but shuffling one
    Ray group PER USER (``groupby(user_id)``) is the high-cardinality
    anti-pattern — at 10^8 users that is 10^8 group tasks.  Instead the
    shuffle key is ``user_id % num_buckets`` (a user lives in exactly
    one bucket), and session boundaries inside each bucket are computed
    in ONE vectorized pass over the (user, ts)-sorted arrays: a session
    starts where the user changes OR the gap exceeds the threshold;
    ``np.flatnonzero`` turns the boundary mask into per-session slice
    indices (no per-session masking loop)."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    gap_us = gap_minutes * 60 * 1_000_000

    def sessions_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        tsi = ts.astype(np.int64)
        order = np.lexsort((tsi, uid))
        uid, ts, tsi = uid[order], ts[order], tsi[order]
        n = len(tsi)
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "session_idx": pa.array([], pa.int64()),
                    "start_ts": pa.array([], pa.timestamp("us")),
                    "end_ts": pa.array([], pa.timestamp("us")),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        new_sess = np.ones(n, dtype=bool)
        new_sess[1:] = (uid[1:] != uid[:-1]) | (
            (tsi[1:] - tsi[:-1]) > gap_us
        )
        starts = np.flatnonzero(new_sess)
        bounds = np.append(starts[1:], n)
        sess_user = uid[starts]
        j = np.arange(len(starts))
        new_user = np.ones(len(starts), dtype=bool)
        new_user[1:] = sess_user[1:] != sess_user[:-1]
        first_of_user = np.where(new_user, j, 0)
        np.maximum.accumulate(first_of_user, out=first_of_user)
        return pa.table(
            {
                "user_id": pa.array(sess_user, pa.int64()),
                "session_idx": pa.array(j - first_of_user, pa.int64()),
                "start_ts": pa.array(ts[starts], pa.timestamp("us")),
                "end_ts": pa.array(ts[bounds - 1], pa.timestamp("us")),
                "n_events": pa.array(bounds - starts, pa.int64()),
            }
        )

    return exchange.bucketed_agg(
        ev,
        "user_id",
        sessions_bucket,
        pa.schema([("user_id", pa.int64()), ("ts", pa.timestamp("us"))]),
        num_buckets=num_buckets,
    )


# ---------------------------------------------------------------------------
# as-of join and range join (custom temporal operators, build-brief list)
# ---------------------------------------------------------------------------

def _events_sides(sf_dir: str, left_type: str, right_type: str,
                  num_buckets: int):
    """events filtered to two event-type streams, tagged with
    ``bucket = user_id % num_buckets`` and a side flag, unioned.  Both
    temporal joins below need (user, time)-co-location only — a user
    lives in exactly one bucket, so the single Ray shuffle has
    ``num_buckets`` groups and each group resolves its users exactly."""
    ev = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.is_in(batch["event_type"], pa.array([left_type, right_type]))
        )
        return pa.table(
            {
                "bucket": exchange.bucket_of(batch["user_id"], num_buckets),
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "value_cents": cents(batch["value"]),
                "is_left": pc.equal(batch["event_type"], left_type),
            }
        )

    return ev.map_batches(tag, batch_format="pyarrow")


def events_asof_join(sf_dir: str, left_type: str = "click",
                     right_type: str = "purchase", num_buckets: int = 64):
    """AS-OF join: each `left_type` event matched to the same user's
    most recent `right_type` event at-or-before its timestamp (inner —
    lefts with no prior right are dropped, matching DuckDB
    ``ASOF JOIN ... ON l.user = r.user AND l.ts >= r.ts``).

    Composition path (a): bucket by user → per-bucket
    ``pandas.merge_asof(by=user_id)`` (a vectorized sorted
    backward-search; (user, ts) pairs are unique in the corpus so the
    match is deterministic).  → (user_id, click_id, click_ts,
    purchase_id, purchase_ts, purchase_cents)."""
    both = _events_sides(sf_dir, left_type, right_type, num_buckets)

    def asof_bucket(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.to_pandas()
        left = df[df["is_left"]].sort_values("ts", kind="mergesort")
        # secondary event_id key: with duplicate (user, ts) right rows,
        # merge_asof matches the LAST equal-ts row in sort order — the
        # stable tie-break keeps that deterministic across block orders
        right = df[~df["is_left"]].sort_values(
            ["ts", "event_id"], kind="mergesort"
        )
        if left.empty or right.empty:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "click_id": pa.array([], pa.int64()),
                    "click_ts": pa.array([], pa.timestamp("us")),
                    "purchase_id": pa.array([], pa.int64()),
                    "purchase_ts": pa.array([], pa.timestamp("us")),
                    "purchase_cents": pa.array([], pa.int64()),
                }
            )
        right = right[["user_id", "event_id", "ts", "value_cents"]].copy()
        right["purchase_ts"] = right["ts"]  # merge_asof drops the right 'on'
        m = pd.merge_asof(
            left[["user_id", "event_id", "ts"]],
            right,
            on="ts",
            by="user_id",
            direction="backward",
            allow_exact_matches=True,
            suffixes=("", "_r"),
        )
        m = m.dropna(subset=["event_id_r"])
        return pa.table(
            {
                "user_id": pa.array(m["user_id"], pa.int64()),
                "click_id": pa.array(m["event_id"], pa.int64()),
                "click_ts": pa.array(m["ts"], pa.timestamp("us")),
                "purchase_id": pa.array(
                    m["event_id_r"].astype("int64"), pa.int64()
                ),
                "purchase_ts": pa.array(m["purchase_ts"], pa.timestamp("us")),
                "purchase_cents": pa.array(
                    m["value_cents"].astype("int64"), pa.int64()
                ),
            }
        )

    # no final sort: row order is an execution detail (driver compare
    # and tests sort client-side); a Ray Dataset.sort here costs ~3.5 s
    # fixed regardless of size (house rule: drop cosmetic sorts)
    return both.groupby("bucket").map_groups(
        asof_bucket, batch_format="pyarrow"
    )


def events_range_join(sf_dir: str, window_minutes: int = 60,
                      left_type: str = "signup", right_type: str = "click",
                      num_buckets: int = 64):
    """RANGE join + aggregate: for each `left_type` event, count the
    same user's `right_type` events with ts in (left.ts, left.ts +
    window] (left-join semantics: zero-match lefts kept with count 0).

    Composition path (a): bucket by user → ONE vectorized pass per
    bucket (the `events_sessionize` treatment — no per-user Python
    loop, which at 10^8 users / 64 buckets would be ~1.5M pandas-group
    iterations per bucket task): rights lexsort by (user, ts) into
    contiguous per-user runs; each left's window bounds become
    composite ``run_idx << 32 | ts_rank`` keys (ranks taken over the
    union of all bound/right timestamps, so the key order is exactly
    the (run, ts) lexicographic order with ~48 bits used), and TWO
    global ``np.searchsorted`` calls count the in-window rights for
    every left at once — O(n log n) per bucket total.
    → (signup_id, user_id, signup_ts, n_clicks)."""
    both = _events_sides(sf_dir, left_type, right_type, num_buckets)
    win_us = window_minutes * 60 * 1_000_000

    def range_bucket(g: pa.Table) -> pa.Table:
        is_left = g["is_left"].to_numpy(zero_copy_only=False).astype(bool)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tsi = (
            g["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        luid, lts = uid[is_left], tsi[is_left]
        lid = (
            g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )[is_left]
        if len(luid) == 0:
            return pa.table(
                {
                    "signup_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "signup_ts": pa.array([], pa.timestamp("us")),
                    "n_clicks": pa.array([], pa.int64()),
                }
            )
        ruid, rts = uid[~is_left], tsi[~is_left]
        if len(ruid) == 0:
            n = np.zeros(len(luid), dtype=np.int64)
        else:
            ro = np.lexsort((rts, ruid))
            ruid_s, rts_s = ruid[ro], rts[ro]
            new_run = np.r_[True, ruid_s[1:] != ruid_s[:-1]]
            r_users = ruid_s[new_run]
            run_id_r = np.cumsum(new_run) - 1  # run index per right row
            # left → its user's right run (invalid lefts count 0)
            u_idx = np.minimum(
                np.searchsorted(r_users, luid), len(r_users) - 1
            )
            valid = r_users[u_idx] == luid
            # rank-compress timestamps over the union so composite keys
            # stay in 64 bits regardless of the raw microsecond values
            hts = lts + win_us
            uniq = np.unique(np.concatenate([rts_s, lts, hts]))
            sh = np.uint64(32)
            rkey = (run_id_r.astype(np.uint64) << sh) | np.searchsorted(
                uniq, rts_s
            ).astype(np.uint64)
            run_l = np.where(valid, u_idx, 0).astype(np.uint64) << sh
            key_lo = run_l | np.searchsorted(uniq, lts).astype(np.uint64)
            key_hi = run_l | np.searchsorted(uniq, hts).astype(np.uint64)
            # window is (left.ts, left.ts + win]: side="right" at both
            # bounds excludes rights <= left.ts, includes == the upper
            lo = np.searchsorted(rkey, key_lo, side="right")
            hi = np.searchsorted(rkey, key_hi, side="right")
            n = np.where(valid, hi - lo, 0).astype(np.int64)
        return pa.table(
            {
                "signup_id": pa.array(lid, pa.int64()),
                "user_id": pa.array(luid, pa.int64()),
                "signup_ts": pa.array(
                    lts.astype("datetime64[us]"), pa.timestamp("us")
                ),
                "n_clicks": pa.array(n, pa.int64()),
            }
        )

    return (
        both.groupby("bucket")
        .map_groups(range_bucket, batch_format="pyarrow")
    )


def events_rollup(
    sf_dir: str,
    num_buckets: int = 32,
):
    """GROUP BY ROLLUP(event_type, day) — the grouping-sets aggregate:
    one result with THREE granularities (per type-day, per type, grand
    total), rolled-up keys reading NULL exactly as SQL's ROLLUP emits
    them.  → (event_type|NULL, day|NULL, n_events, sum_value_cents).

    Rollup needs no extra exchanges: the finest level is bounded by
    |event types| × |days| regardless of event volume, so every
    coarser level derives from it driver-side with plain Arrow
    group_bys.  The event stream itself is touched ONCE by a per-batch
    (type, day) combiner; the adaptive finish / bucketed-shuffle split
    follows `events_daily_active` (the shuffle is keyed on the
    type-day pair's hash so a hot type still spreads across days).
    """

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "day": pc.floor_temporal(batch["ts"], unit="day"),
                "vc": cents(batch["value"]),
            }
        )
        agg = t.group_by(["event_type", "day"]).aggregate(
            [("vc", "sum"), ("vc", "count")]
        )
        import zlib

        day_us = agg["day"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # crc32 is process-independent (unlike str hash()): the same
        # (type, day) pair MUST map to one bucket from every worker
        tkey = np.array(
            [
                zlib.crc32(s.encode())
                for s in agg["event_type"].to_pylist()
            ],
            dtype=np.int64,
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "day": agg["day"],
                "vc": agg["vc_sum"],
                "n": pc.cast(agg["vc_count"], pa.int64()),
                "bucket": pa.array(
                    ((tkey ^ day_us) % num_buckets).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def finest_of(t: pa.Table) -> pa.Table:
        agg = t.group_by(["event_type", "day"]).aggregate(
            [("vc", "sum"), ("n", "sum")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "day": pc.cast(agg["day"], pa.timestamp("us")),
                "vc": pc.cast(agg["vc_sum"], pa.int64()),
                "n": pc.cast(agg["n_sum"], pa.int64()),
            }
        )

    # bucket key == group key pair, so per-bucket outputs are already
    # final; concat (not re-agg) is exact
    fine = exchange.bucket_finish(
        ev.map_batches(partials, batch_format="pyarrow"),
        finest_of,
        pa.schema(
            [
                ("event_type", pa.string()),
                ("day", pa.timestamp("us")),
                ("vc", pa.int64()),
                ("n", pa.int64()),
            ]
        ),
    )

    by_type = fine.group_by("event_type").aggregate(
        [("vc", "sum"), ("n", "sum")]
    )
    lvl1 = pa.table(
        {
            "event_type": by_type["event_type"],
            "day": pa.nulls(by_type.num_rows, pa.timestamp("us")),
            "vc": pc.cast(by_type["vc_sum"], pa.int64()),
            "n": pc.cast(by_type["n_sum"], pa.int64()),
        }
    )
    total_n = pc.sum(fine["n"]).as_py() or 0
    lvl0 = pa.table(
        {
            "event_type": pa.nulls(1, pa.string()),
            "day": pa.nulls(1, pa.timestamp("us")),
            "vc": pa.array([pc.sum(fine["vc"]).as_py() or 0], pa.int64()),
            "n": pa.array([total_n], pa.int64()),
        }
    )
    out = pa.concat_tables([fine, lvl1] + ([lvl0] if total_n else []))
    return pa.table(
        {
            "event_type": out["event_type"],
            "day": out["day"],
            "n_events": out["n"],
            "sum_value_cents": out["vc"],
        }
    )


def events_running_total(
    sf_dir: str, event_type: str = "purchase", num_buckets: int = 64
):
    """Per-user running spend — the classic SQL window function
    ``SUM(x) OVER (PARTITION BY user ORDER BY ts, id)`` distributed:
    → one row per matching event with its cumulative cents so far.

    A user's rows must be totalled in order, so the only exchange is
    ONE shuffle keyed ``user_id % num_buckets`` (same partitioning as
    sessionize / the temporal joins — a user lives in exactly one
    bucket).  Inside a bucket the whole window computation is three
    numpy kernels over the concatenated rows: lexsort by (user, ts,
    event_id), one cumsum, and a per-user offset subtraction at group
    starts (no per-user loop).  Output is event-sized and streams out
    block-per-bucket; nothing is re-ordered globally (the driver
    compare is order-insensitive; a total order would be a cosmetic
    full sort).
    """
    ev = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )
    pow2 = num_buckets & (num_buckets - 1) == 0

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], event_type))
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        bucket = (
            (uid.astype(np.uint64) & np.uint64(num_buckets - 1))
            if pow2
            else (uid.astype(np.uint64) % np.uint64(num_buckets))
        )
        return pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int32), pa.int32()),
                "event_id": t["event_id"],
                "ts": t["ts"],
                "user_id": t["user_id"],
                "vc": cents(t["value"]),
            }
        )

    def window_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "value_cents": pa.array([], pa.int64()),
                    "running_cents": pa.array([], pa.int64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        vc = g["vc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts.view(np.int64), uid))
        u, v = uid[order], vc[order]
        cs = np.cumsum(v)
        new = np.empty(len(u), dtype=bool)
        new[0] = True
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(u)))
        offsets = np.concatenate(([0], cs[starts[1:] - 1]))
        running = cs - np.repeat(offsets, sizes)
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "ts": pa.array(ts[order], pa.timestamp("us")),
                "value_cents": pa.array(v, pa.int64()),
                "running_cents": pa.array(running, pa.int64()),
            }
        )

    return (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(window_bucket, batch_format="pyarrow")
    )


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot(sf_dir: str):
    """→ (day, n_click, n_error, n_purchase, n_signup, n_view, total):
    the crosstab/PIVOT shape — one row per day, one count column per
    event type (the fixed taxonomy is part of the schema, exactly as a
    SQL PIVOT needs static output columns).

    One pass: per-batch (day, type) count combiner (≤ days × 5 rows
    per batch), driver merge, then the pivot itself is a driver-side
    numpy scatter into the (days × types) grid — at any corpus size
    the grid is bounded by the time range, never by event volume."""
    import ray

    ev = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "day": pc.floor_temporal(batch["ts"], unit="day"),
                "event_type": batch["event_type"],
            }
        )
        agg = t.group_by(["day", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "day": agg["day"],
                "event_type": agg["event_type"],
                "n": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            ev.map_batches(partials, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    cols = {f"n_{et}": None for et in _EVENT_TYPES}
    if not parts:
        return pa.table(
            {
                "day": pa.array([], pa.timestamp("us")),
                **{c: pa.array([], pa.int64()) for c in cols},
                "total": pa.array([], pa.int64()),
            }
        )
    agg = (
        pa.concat_tables(parts)
        .group_by(["day", "event_type"])
        .aggregate([("n", "sum")])
    )
    days_us = agg["day"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    types = agg["event_type"].to_numpy(zero_copy_only=False)
    ns = agg["n_sum"].to_numpy(zero_copy_only=False)
    uday = np.sort(np.unique(days_us))
    didx = np.searchsorted(uday, days_us)
    grid = np.zeros((len(uday), len(_EVENT_TYPES)), dtype=np.int64)
    for j, et in enumerate(_EVENT_TYPES):
        m = types == et
        np.add.at(grid[:, j], didx[m], ns[m])
    return pa.table(
        {
            "day": pa.array(uday, pa.int64()).cast(pa.timestamp("us")),
            **{
                f"n_{et}": pa.array(grid[:, j], pa.int64())
                for j, et in enumerate(_EVENT_TYPES)
            },
            "total": pa.array(grid.sum(axis=1), pa.int64()),
        }
    )


_HOUR_US = 3_600_000_000


def events_hourly_dense(sf_dir: str):
    """→ (event_type, hour, n_events) with GAP-FILL: every (type, hour)
    cell in [min hour, max hour] × types appears, zero when silent —
    the time-series scaffold every resampler/monitoring rollup needs
    (a plain groupby silently drops empty windows).

    The event stream is touched once by the (type, hour) count
    combiner; the scaffold itself is generated DRIVER-side from three
    numbers (min hour, max hour, type set) — dense cells are
    range × types, bounded by the time span, never by event volume."""
    import ray

    ev = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "hour": pc.floor_temporal(batch["ts"], unit="hour"),
                "event_type": batch["event_type"],
            }
        )
        agg = t.group_by(["event_type", "hour"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "hour": agg["hour"],
                "n": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            ev.map_batches(partials, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "hour": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
            }
        )
    agg = (
        pa.concat_tables(parts)
        .group_by(["event_type", "hour"])
        .aggregate([("n", "sum")])
    )
    hrs = agg["hour"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    types = agg["event_type"].to_numpy(zero_copy_only=False)
    ns = agg["n_sum"].to_numpy(zero_copy_only=False)
    utypes = np.sort(np.unique(types))
    dense_h = np.arange(hrs.min(), hrs.max() + _HOUR_US, _HOUR_US)
    grid = np.zeros((len(utypes), len(dense_h)), dtype=np.int64)
    ti = np.searchsorted(utypes, types)
    hi = np.searchsorted(dense_h, hrs)
    np.add.at(grid, (ti, hi), ns)
    n_t, n_h = grid.shape
    return pa.table(
        {
            "event_type": pa.array(np.repeat(utypes, n_h), pa.string()),
            "hour": pa.array(np.tile(dense_h, n_t), pa.int64()).cast(
                pa.timestamp("us")
            ),
            "n_events": pa.array(grid.reshape(-1), pa.int64()),
        }
    )


def part_min_price_per_brand(sf_dir: str):
    """→ (p_brand, min_price_cents, p_partkey, p_name): every part
    tied for its brand's minimum retail price — the grouped
    ARGMIN-with-ties / TPC-H-Q2-style correlated ``= (SELECT min(...)
    WHERE same group)`` shape.

    Superset-safety of the one-pass combiner: a batch emits its
    brand-local min AND the rows achieving it; a row at the GLOBAL
    brand min always equals its own batch's local min (global ≤ local
    ≤ row = global forces equality), so the global winners are always
    inside the ≤ batches × brands candidate set the driver filters."""
    import ray

    parts_ds = _read(
        sf_dir,
        "part",
        columns=["p_partkey", "p_name", "p_brand", "p_retailprice"],
    )

    def partials(batch: pa.Table) -> pa.Table:
        price = cents(batch["p_retailprice"])
        t = pa.table(
            {
                "p_brand": batch["p_brand"],
                "price_cents": price,
                "p_partkey": batch["p_partkey"],
                "p_name": batch["p_name"],
            }
        )
        mins = t.group_by("p_brand").aggregate([("price_cents", "min")])
        j = t.join(mins, keys="p_brand")
        return j.filter(
            pc.equal(j["price_cents"], j["price_cents_min"])
        ).select(["p_brand", "price_cents", "p_partkey", "p_name"])

    cand = [
        t
        for t in ray.get(
            parts_ds.map_batches(
                partials, batch_format="pyarrow"
            ).to_arrow_refs()
        )
        if t.num_rows
    ]
    if not cand:
        return pa.table(
            {
                "p_brand": pa.array([], pa.string()),
                "min_price_cents": pa.array([], pa.int64()),
                "p_partkey": pa.array([], pa.int64()),
                "p_name": pa.array([], pa.string()),
            }
        )
    ct = pa.concat_tables(cand)
    gmin = ct.group_by("p_brand").aggregate([("price_cents", "min")])
    j = ct.join(gmin, keys="p_brand")
    win = j.filter(pc.equal(j["price_cents"], j["price_cents_min"]))
    win = win.take(
        pc.sort_indices(
            win,
            sort_keys=[("p_brand", "ascending"), ("p_partkey", "ascending")],
        )
    )
    return pa.table(
        {
            "p_brand": win["p_brand"],
            "min_price_cents": pc.cast(win["price_cents"], pa.int64()),
            "p_partkey": win["p_partkey"],
            "p_name": win["p_name"],
        }
    )


def events_transitions(sf_dir: str, num_buckets: int = 64):
    """→ (from_type, to_type, n): counts of CONSECUTIVE event-type
    pairs per user ordered by (ts, event_id) — the empirical Markov
    transition matrix behavioral analytics fits (SQL: LAG OVER
    (PARTITION BY user ORDER BY ...) then GROUP BY).

    One user-keyed shuffle (a user's sequence lives in one bucket);
    inside a bucket the transitions fall out of one lexsort and a
    shifted compare — the pair (row i, row i+1) counts iff both rows
    belong to the same user — then an Arrow hash-agg emits the
    ≤ types² bucket partial.  Driver merges ≤ buckets × types² rows."""
    import ray

    ev = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )
    pow2 = num_buckets & (num_buckets - 1) == 0

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        bucket = (
            (uid.astype(np.uint64) & np.uint64(num_buckets - 1))
            if pow2
            else (uid.astype(np.uint64) % np.uint64(num_buckets))
        )
        return pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int32), pa.int32()),
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
            }
        )

    def trans_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "from_type": pa.array([], pa.string()),
                "to_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if g.num_rows < 2:
            return empty
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts.view(np.int64), uid))
        u, t = uid[order], et[order]
        same = u[1:] == u[:-1]
        if not same.any():
            return empty
        agg = (
            pa.table(
                {
                    "from_type": pa.array(t[:-1][same]),
                    "to_type": pa.array(t[1:][same]),
                }
            )
            .group_by(["from_type", "to_type"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "from_type": agg["from_type"],
                "to_type": agg["to_type"],
                "n": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    import ray

    parts = [
        t
        for t in ray.get(
            ev.map_batches(prep, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(trans_bucket, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "from_type": pa.array([], pa.string()),
                "to_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    agg = (
        pa.concat_tables(parts)
        .group_by(["from_type", "to_type"])
        .aggregate([("n", "sum")])
    )
    agg = agg.take(
        pc.sort_indices(
            agg,
            sort_keys=[("from_type", "ascending"), ("to_type", "ascending")],
        )
    )
    return pa.table(
        {
            "from_type": agg["from_type"],
            "to_type": agg["to_type"],
            "n": pc.cast(agg["n_sum"], pa.int64()),
        }
    )


def q16_supplier_variety(
    sf_dir: str,
    num_buckets: int = 32,
):
    """TPC-H Q16 shape — parts/supplier relationship variety: how many
    DISTINCT (non-blacklisted) suppliers ship each (brand, type, size)
    part class → (p_brand, p_type, p_size, supplier_cnt), blacklist =
    suppliers with a negative account balance (the complaints NOT-IN
    of Q16, on a deterministic predicate this corpus has).

    Three-way composition with no wide exchange:
    1. the supplier blacklist is tiny by construction — collected,
       sorted, broadcast (NOT-IN as a map-side searchsorted);
    2. lineitem collapses to per-batch DISTINCT (partkey, suppkey)
       pairs (combiner) — the only corpus-scale stream;
    3. part attributes broadcast keyed by partkey (dimension table,
       the supplier_by_region pattern) tag each pair in-map, and the
       partkey is DROPPED — what remains is the distinct
       (class, suppkey) incidence set;
    4. the grouped COUNT-DISTINCT finishes as two-level distinct keyed
       by SUPPKEY (the `events_daily_active` pattern: a supplier's
       rows co-locate, so per-bucket distinct is globally exact and
       per-class bucket counts SUM exactly because a (class, supp)
       pair lives in one bucket); driver finish up to
       ``exchange.DRIVER_FINISH_MAX`` rows.
    """
    import ray

    import pyarrow.parquet as pq

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_acctbal"],
    )
    bal = cents(sup["s_acctbal"])
    bad = np.sort(
        sup.filter(pc.less(bal, 0))["s_suppkey"].to_numpy(
            zero_copy_only=False
        )
    )
    part_tbl = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    )
    pk = part_tbl["p_partkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    part_sorted = part_tbl.take(pa.array(order))
    pkeys = pk[order]
    bad_ref = ray.put(bad)
    part_ref = ray.put((pkeys, part_sorted))

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pairs(batch: pa.Table) -> pa.Table:
        bd = ray.get(bad_ref)
        ks, ptab = ray.get(part_ref)
        g = batch.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        sk = g["l_suppkey"].to_numpy(zero_copy_only=False)
        if len(bd):
            i = np.searchsorted(bd, sk)
            good = ~(
                (i < len(bd)) & (bd[np.minimum(i, len(bd) - 1)] == sk)
            )
            g = g.filter(pa.array(good))
        lk = g["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ks, lk)
        idx = np.minimum(idx, max(len(ks) - 1, 0))
        # FK integrity: every l_partkey exists in part.  partkey is
        # dropped here — only the (class, suppkey) incidence matters,
        # and the per-batch distinct collapses it before the exchange
        t = pa.table(
            {
                "p_brand": ptab["p_brand"].take(pa.array(idx)),
                "p_type": ptab["p_type"].take(pa.array(idx)),
                "p_size": ptab["p_size"].take(pa.array(idx)),
                "l_suppkey": g["l_suppkey"],
            }
        ).group_by(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        ).aggregate([])
        sk3 = t["l_suppkey"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket",
            pa.array((sk3 % num_buckets).astype(np.int32), pa.int32()),
        )

    def finish(t: pa.Table) -> pa.Table:
        d = t.group_by(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        ).aggregate([])
        agg = d.group_by(["p_brand", "p_type", "p_size"]).aggregate(
            [("l_suppkey", "count")]
        )
        return pa.table(
            {
                "p_brand": agg["p_brand"],
                "p_type": agg["p_type"],
                "p_size": agg["p_size"],
                "supplier_cnt": pc.cast(agg["l_suppkey_count"], pa.int64()),
            }
        )

    # suppkey-bucketed: per-bucket distinct (class, suppkey) is
    # globally exact (a supplier lives in one bucket) and the per-class
    # partial counts SUM exactly across buckets
    parts = exchange.bucket_finish(
        li.map_batches(pairs, batch_format="pyarrow"),
        finish,
        pa.schema(
            [
                ("p_brand", pa.string()),
                ("p_type", pa.string()),
                ("p_size", pa.int32()),
                ("supplier_cnt", pa.int64()),
            ]
        ),
    )
    if parts.num_rows == 0:
        return parts
    agg = parts.group_by(["p_brand", "p_type", "p_size"]).aggregate(
        [("supplier_cnt", "sum")]
    )
    out = pa.table(
        {
            "p_brand": agg["p_brand"],
            "p_type": agg["p_type"],
            "p_size": agg["p_size"],
            "supplier_cnt": pc.cast(agg["supplier_cnt_sum"], pa.int64()),
        }
    )
    out = out.take(
        pc.sort_indices(
            out,
            sort_keys=[
                ("p_brand", "ascending"),
                ("p_type", "ascending"),
                ("p_size", "ascending"),
            ],
        )
    )
    return out


def q6_forecast_revenue(
    sf_dir: str,
    date_lo: str = "1997-01-01",
    date_hi: str = "1998-01-01",
    disc_lo_cents: int = 3,
    disc_hi_cents: int = 8,
    max_qty: int = 24,
):
    """TPC-H Q6 shape — revenue-increase forecast: ONE filtered scan,
    ONE scalar sum → a single (revenue_cents) row.  The trivially
    parallel end of the spectrum: per-batch partials are one int64
    each, the driver adds ≤ #batches numbers, nothing shuffles.
    Discount band compared in exact cents (floor(d·100+0.5)) so the
    boundary rows match the oracle bit-for-bit."""
    import ray

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        dc = cents(batch["l_discount"])
        m = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], pa.scalar(lo.item())),
                pc.less(batch["l_shipdate"], pa.scalar(hi.item())),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(dc, disc_lo_cents),
                    pc.less_equal(dc, disc_hi_cents),
                ),
                pc.less(batch["l_quantity"], float(max_qty)),
            ),
        )
        t = batch.filter(m)
        ep = pc.cast(t["l_extendedprice"], pa.float64())
        disc = pc.cast(t["l_discount"], pa.float64())
        rev = cents(pc.multiply(ep, disc))
        return pa.table(
            {"rc": pa.array([pc.sum(rev).as_py() or 0], pa.int64())}
        )

    total = sum(
        t["rc"][0].as_py()
        for t in ray.get(
            li.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    )
    return pa.table({"revenue_cents": pa.array([total], pa.int64())})


def q14_promo_effect(
    sf_dir: str,
    date_lo: str = "1997-09-01",
    date_hi: str = "1997-10-01",
):
    """TPC-H Q14 shape — promotion effect: the share of a month's
    revenue earned by PROMO parts → one row
    (promo_cents, total_cents, promo_ratio_ppm).  The conditional-
    aggregate + exact-ratio composition: the part type resolves
    map-side through a broadcast partkey→is_promo membership array
    (dimension table, never shuffled), each batch emits TWO int64
    partials, and the ratio is a single integer division in ppm — no
    float percentage anywhere, so the oracle matches bit-for-bit."""
    import ray

    import pyarrow.parquet as pq

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    part_tbl = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pk = part_tbl["p_partkey"].to_numpy(zero_copy_only=False)
    promo = pc.equal(part_tbl["p_type"], "PROMO").to_numpy(
        zero_copy_only=False
    )
    order = np.argsort(pk)
    ref = ray.put((pk[order], promo[order]))

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        ks, isp = ray.get(ref)
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"], pa.scalar(lo.item())),
            pc.less(batch["l_shipdate"], pa.scalar(hi.item())),
        )
        t = batch.filter(m)
        ep = pc.cast(t["l_extendedprice"], pa.float64())
        disc = pc.cast(t["l_discount"], pa.float64())
        rev = cents(pc.multiply(ep, pc.subtract(1.0, disc))).to_numpy(
            zero_copy_only=False
        )
        lk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(ks, lk), max(len(ks) - 1, 0))
        is_promo = isp[idx] if len(ks) else np.zeros(len(lk), dtype=bool)
        return pa.table(
            {
                "promo": pa.array(
                    [int(rev[is_promo].sum())], pa.int64()
                ),
                "total": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    promo_c, total_c = 0, 0
    for t in ray.get(
        li.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        if t.num_rows:
            promo_c += t["promo"][0].as_py()
            total_c += t["total"][0].as_py()
    return pa.table(
        {
            "promo_cents": pa.array([promo_c], pa.int64()),
            "total_cents": pa.array([total_c], pa.int64()),
            "promo_ratio_ppm": pa.array(
                [promo_c * 1_000_000 // max(total_c, 1)], pa.int64()
            ),
        }
    )


# --- Count-Min Sketch frequency estimation --------------------------------

_CMS_W = 1024
_CMS_D = 4


def _cms_slot_matrix(uids: np.ndarray) -> np.ndarray:
    """distinct int64 ids → (n, D) slot indices via
    ``md5_number_lower(j || ':' || id) % W`` — the SQL-reproducible
    hash family (one md5 per (id, depth))."""
    import hashlib

    out = np.empty((len(uids), _CMS_D), dtype=np.int64)
    for i, u in enumerate(uids.tolist()):
        for j in range(_CMS_D):
            h = int.from_bytes(
                hashlib.md5(f"{j}:{u}".encode()).digest()[8:], "little"
            )
            out[i, j] = h % _CMS_W
    return out


def events_cms_estimates(sf_dir: str, probe_mod: int = 97):
    """→ (user_id, est_count, true_count) for the deterministic probe
    users (``user_id % probe_mod == 0``): Count-Min Sketch frequency
    estimation (Cormode & Muthukrishnan 2005) — the constant-memory
    heavy-hitter path when exact per-key counts are too wide to
    shuffle.  Counters merge by elementwise ADD, so per-batch (D×W)
    int64 partials reduce driver-side with NO shuffle and the sketch is
    EXACT under any partitioning; estimate = min over the D rows
    (always ≥ the true count — pinned by test).  Hashing is
    ``md5_number_lower(depth || ':' || id) % W``, so the DuckDB oracle
    rebuilds the entire sketch AND every estimate independently.  The
    probe set stands in for the candidate heavy-hitter stream a real
    topk-tracker would maintain; ``true_count`` (exact, probe-sized
    groupby) is carried for error accounting."""
    import ray

    ev = _read(sf_dir, "events", columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        cms = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
        tp: dict[int, int] = {}
        if batch.num_rows:
            uids = batch["user_id"].to_numpy(zero_copy_only=False)
            distinct, counts = np.unique(uids, return_counts=True)
            slots = _cms_slot_matrix(distinct)
            for j in range(_CMS_D):
                np.add.at(cms[j], slots[:, j], counts)
            pmask = distinct % probe_mod == 0
            tp = dict(
                zip(
                    distinct[pmask].tolist(),
                    counts[pmask].astype(int).tolist(),
                )
            )
        return pa.table(
            {
                "cms": pa.array([cms.tobytes()], pa.binary()),
                "probe_ids": pa.array(
                    [list(tp.keys())], pa.list_(pa.int64())
                ),
                "probe_counts": pa.array(
                    [list(tp.values())], pa.list_(pa.int64())
                ),
            }
        )

    cms = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    true_counts: dict[int, int] = {}
    for t in ray.get(
        ev.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        for rb, pids, pcnts in zip(
            t["cms"].to_pylist(),
            t["probe_ids"].to_pylist(),
            t["probe_counts"].to_pylist(),
        ):
            cms += np.frombuffer(rb, dtype=np.int64).reshape(
                _CMS_D, _CMS_W
            )
            for u, c in zip(pids, pcnts):
                true_counts[u] = true_counts.get(u, 0) + c
    users = sorted(true_counts)
    if users:
        slots = _cms_slot_matrix(np.array(users, dtype=np.int64))
        ests = np.min(
            cms[np.arange(_CMS_D)[None, :], slots], axis=1
        ).astype(np.int64)
    else:
        ests = np.zeros(0, dtype=np.int64)
    return pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "est_count": pa.array(ests, pa.int64()),
            "true_count": pa.array(
                [true_counts[u] for u in users], pa.int64()
            ),
        }
    )


def _event_id_span(path: str, num_buckets: int) -> int:
    """Width of the ``event_id`` range buckets that split ids 0..max
    into at most ``num_buckets``.  The max comes from the parquet
    footer's row-group statistics of the column NAMED ``event_id``; a
    file where any row group lacks them pays one read of that column
    instead (a row-count guess would be wrong for sparse ids)."""
    import pyarrow.parquet as _pq

    pf = _pq.ParquetFile(path)
    meta = pf.metadata
    col = meta.schema.names.index("event_id")
    stats = [
        meta.row_group(rg).column(col).statistics
        for rg in range(meta.num_row_groups)
    ]
    if all(st is not None and st.has_min_max for st in stats):
        max_id = max((st.max for st in stats), default=0)
    else:
        max_id = pc.max(pf.read(columns=["event_id"])["event_id"]).as_py() or 0
    return -(-(max_id + 1) // num_buckets)


def events_late_arrivals(
    sf_dir: str,
    allowed_lateness_us: int = 600_000_000,
    num_buckets: int = 32,
):
    """Watermark-based late-data accounting (the Beam/Flink streaming
    model run as a batch audit): events are PROCESSED in arrival order
    (``event_id``), the low watermark after a prefix is
    ``max(event-time ts) − allowed_lateness``, and an event is LATE iff
    its ts is below the watermark of the prefix BEFORE it →
    ``(event_id, late, late_us)`` with ``late_us`` = how far below.

    The global prefix-max over arrival order is a classic two-phase
    distributed scan (Blelloch): ``event_id`` RANGE buckets (contiguous
    — parquet-footer max id, no decode when the file has statistics;
    ``_event_id_span``) → per-bucket max ts (one skinny
    k-row job), driver exclusive prefix-max gives each bucket its
    carry-in, then a second per-bucket pass computes local
    prefix-before maxima + the carry-in.  Two exchanges of 16-byte
    rows; nothing global ever materializes.  Exact: all comparisons in
    int64 microseconds."""
    import ray

    span = _event_id_span(os.path.join(sf_dir, "events.parquet"), num_buckets)
    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "event_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                }
            )
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
        )
        return pa.table(
            {
                "bucket": pa.array(
                    (eid // span).astype(np.int32), pa.int32()
                ),
                "event_id": pa.array(eid, pa.int64()),
                "ts_us": pa.array(ts, pa.int64()),
            }
        )

    pre = ev.map_batches(prep, batch_format="pyarrow").materialize()

    def bucket_max(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "bucket" not in g.column_names:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "max_ts": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "bucket": pa.array([g["bucket"][0].as_py()], pa.int32()),
                "max_ts": pa.array(
                    [int(pc.max(g["ts_us"]).as_py())], pa.int64()
                ),
            }
        )

    summaries = [
        t
        for t in ray.get(
            pre.groupby("bucket")
            .map_groups(bucket_max, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    carry: dict[int, int] = {}
    if summaries:
        s = pa.concat_tables(summaries).sort_by([("bucket", "ascending")])
        run = None
        for b, m in zip(s["bucket"].to_pylist(), s["max_ts"].to_pylist()):
            carry[b] = run if run is not None else -(1 << 62)
            run = m if run is None else max(run, m)

    D = int(allowed_lateness_us)

    def late_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "late": pa.array([], pa.bool_()),
                "late_us": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0 or "bucket" not in g.column_names:
            return empty
        b = int(g["bucket"][0].as_py())
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        order = np.argsort(eid, kind="stable")
        e, t = eid[order], ts[order]
        prefix_before = np.empty(len(t), np.int64)
        cin = carry.get(b, -(1 << 62))
        prefix_before[0] = cin
        if len(t) > 1:
            np.maximum.accumulate(t[:-1], out=prefix_before[1:])
            np.maximum(prefix_before[1:], cin, out=prefix_before[1:])
        wm = prefix_before - D
        late_us = np.maximum(wm - t, 0)
        # no predecessor at all (first bucket, first row): never late
        none_before = prefix_before <= -(1 << 61)
        late_us[none_before] = 0
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "late": pa.array(late_us > 0, pa.bool_()),
                "late_us": pa.array(late_us, pa.int64()),
            }
        )

    return (
        pre.groupby("bucket")
        .map_groups(late_bucket, batch_format="pyarrow")
    )
