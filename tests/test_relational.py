"""Relational / windowed pipelines vs DuckDB at sf0.001 — integer-cents
discipline makes every aggregate bitwise-comparable."""

from __future__ import annotations

import contextlib
import os

import pandas as pd
import pytest

from tests.test_training_ops import SF, assert_frames_equal, duck  # noqa: F401


@pytest.mark.usefixtures("ray_session")
def test_q1_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import q1_pricing_summary

    eng = q1_pricing_summary(SF).to_pandas()
    ora = duck.sql("""
      SELECT l_returnflag, l_linestatus,
        sum(CAST(l_quantity AS BIGINT)) sum_qty,
        sum(CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT)) sum_base_cents,
        sum(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) sum_disc_cents,
        sum(CAST(FLOOR(l_extendedprice*(1-l_discount)*(1+l_tax)*100+0.5) AS BIGINT)) sum_charge_cents,
        count(*)::BIGINT count_order
      FROM lineitem WHERE l_shipdate <= TIMESTAMP '2001-09-01'
      GROUP BY 1,2""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_sessionize_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import events_sessionize

    eng = events_sessionize(SF).to_pandas()
    ora = duck.sql("""
      WITH o AS (SELECT user_id, ts,
          CASE WHEN lag(ts) OVER w IS NULL
                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END ns
        FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
      s AS (SELECT user_id, ts,
          sum(ns) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING)-1 session_idx
        FROM o)
      SELECT user_id, session_idx, min(ts) start_ts, max(ts) end_ts,
             count(*)::BIGINT n_events
      FROM s GROUP BY 1,2""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_hash_join_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import lineitem_part_revenue

    eng = lineitem_part_revenue(SF, num_buckets=16).to_pandas()
    ora = duck.sql("""
      SELECT p_brand, count(*)::BIGINT n_items,
        sum(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) revenue_cents
      FROM lineitem JOIN part ON p_partkey = l_partkey GROUP BY 1""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_asof_join_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import events_asof_join

    eng = events_asof_join(SF).to_pandas()
    ora = duck.sql("""
      SELECT c.user_id, c.event_id AS click_id, c.ts AS click_ts,
        p.event_id AS purchase_id, p.ts AS purchase_ts,
        CAST(FLOOR(p.value*100 + 0.5) AS BIGINT) AS purchase_cents
      FROM (SELECT * FROM events WHERE event_type = 'click') c
      ASOF JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
        ON c.user_id = p.user_id AND c.ts >= p.ts
      ORDER BY c.user_id, click_id""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_range_join_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import events_range_join

    eng = events_range_join(SF).to_pandas()
    ora = duck.sql("""
      SELECT s.event_id AS signup_id, s.user_id, s.ts AS signup_ts,
        count(c.event_id)::BIGINT AS n_clicks
      FROM (SELECT * FROM events WHERE event_type = 'signup') s
      LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
        ON c.user_id = s.user_id AND c.ts > s.ts
           AND c.ts <= s.ts + INTERVAL 60 MINUTE
      GROUP BY 1, 2, 3 ORDER BY s.user_id, signup_id""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_bucketed_ops_partition_invariant(force_shuffle):
    """Results of every bucketed operator must be independent of the
    bucket count (the partitioning is an execution detail, never a
    semantic one) — pin num_buckets=1 (single group, no co-location
    assumptions exercised) against a many-bucket run."""
    from crawler_ai_ray.pipelines.relational import (
        events_asof_join,
        events_range_join,
        lineitem_part_revenue,
        top_customers,
    )

    for fn, kwargs, forced in [
        (top_customers, {"k": 5}, False),
        # the forced bucketed-shuffle branch keeps the hybrid's
        # above-threshold path pinned ≡ the driver finish
        (top_customers, {"k": 5}, True),
        (lineitem_part_revenue, {}, False),
        (events_asof_join, {}, False),
        (events_range_join, {}, False),
    ]:
        with force_shuffle() if forced else contextlib.nullcontext():
            one = fn(SF, num_buckets=1, **kwargs).to_pandas()
            many = fn(SF, num_buckets=64, **kwargs).to_pandas()
        # row order is an execution detail (no cosmetic final sorts)
        cols = list(one.columns)
        one = one.sort_values(cols, ignore_index=True)
        many = many.sort_values(cols, ignore_index=True)
        assert one.equals(many), fn.__name__

    # cross-path agreement: driver-finish ≡ bucketed-shuffle top-k
    drv = top_customers(SF, k=5).to_pandas()
    with force_shuffle():
        bkt = top_customers(SF, k=5).to_pandas()
    assert drv.reset_index(drop=True).equals(bkt.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_sessionize_bucket_count_invariant():
    from crawler_ai_ray.pipelines.relational import events_sessionize

    def run(n):
        return (
            events_sessionize(SF, num_buckets=n)
            .to_pandas()
            .sort_values(["user_id", "session_idx"], ignore_index=True)
        )

    assert run(1).equals(run(64))


@pytest.mark.usefixtures("ray_session")
def test_hopping_degenerates_to_tumbling():
    """hop == size collapses the hopping window to the tumbling hourly
    aggregate — the two independent implementations must agree."""
    from crawler_ai_ray.pipelines.relational import (
        events_hopping,
        events_hourly,
    )

    hop = (
        events_hopping(SF, size_minutes=60, hop_minutes=60)
        .to_pandas()
        .sort_values(["window_start", "event_type"], ignore_index=True)
    )
    hour = (
        events_hourly(SF)
        .to_pandas()
        .sort_values(["window_start", "event_type"], ignore_index=True)
    )
    assert hop[["window_start", "event_type", "n_events",
                "sum_value_micros"]].equals(
        hour[["window_start", "event_type", "n_events", "sum_value_micros"]]
    )


@pytest.mark.usefixtures("ray_session")
def test_hash_bucket_join_generic(duck):
    """Generic bucketed join helper, incl. the non-power-of-2 modulo
    path, row-exact vs DuckDB."""
    import ray.data

    from crawler_ai_ray.pipelines.relational import _read, hash_bucket_join

    li = _read(SF, "lineitem", columns=["l_partkey", "l_quantity"])
    part = _read(SF, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda b: b.rename_columns(["l_partkey", "p_brand"]),
        batch_format="pyarrow",
    )
    eng = (
        hash_bucket_join(li, part, on="l_partkey", num_buckets=7)
        .to_pandas()
        .sort_values(["l_partkey", "l_quantity", "p_brand"])
        .reset_index(drop=True)
    )
    ora = (
        duck.sql(
            """SELECT l_partkey, l_quantity, p_brand
               FROM lineitem JOIN part ON p_partkey = l_partkey"""
        )
        .df()
        .sort_values(["l_partkey", "l_quantity", "p_brand"])
        .reset_index(drop=True)
    )
    assert len(eng) == len(ora)
    import pandas as pd

    pd.testing.assert_frame_equal(
        eng[["l_partkey", "l_quantity", "p_brand"]],
        ora[["l_partkey", "l_quantity", "p_brand"]],
        check_dtype=False,
    )


def test_q3_broadcast_and_bucketed_paths_agree(ray_session, force_bucketed):
    from crawler_ai_ray.pipelines.relational import q3_unshipped

    a = q3_unshipped(SF)  # broadcast joins (small build sides)
    with force_bucketed():
        b = q3_unshipped(SF)
    assert a.equals(b)
    assert a.num_rows == 10
    # revenue is descending with deterministic tie-break
    rev = a["revenue_cents"].to_pylist()
    assert rev == sorted(rev, reverse=True)


@pytest.mark.usefixtures("ray_session")
def test_q5_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import q5_local_supplier_volume

    eng = q5_local_supplier_volume(SF).to_pandas()
    ora = duck.sql("""
      SELECT n_name,
        sum(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT))
          ::BIGINT revenue_cents
      FROM customer
      JOIN orders ON c_custkey = o_custkey
      JOIN lineitem ON l_orderkey = o_orderkey
      JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
      JOIN nation ON s_nationkey = n_nationkey
      JOIN region ON n_regionkey = r_regionkey
      WHERE r_name = 'ASIA'
        AND o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1999-01-01'
      GROUP BY 1""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_dau_exact_vs_duckdb_and_hll_bounds(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import (
        events_daily_active,
        events_dau_hll,
    )

    exact = events_daily_active(SF).to_pandas().set_index("day")
    ora = duck.sql("""
      SELECT date_trunc('day', ts) AS day,
             count(DISTINCT user_id)::BIGINT AS n_active
      FROM events GROUP BY 1""").df().set_index("day")
    assert exact["n_active"].sort_index().equals(
        ora["n_active"].sort_index()
    )

    est = events_dau_hll(SF).to_pandas().set_index("day")
    assert set(est.index) == set(exact.index)
    for day, row in est.iterrows():
        true = exact.loc[day, "n_active"]
        assert abs(row["n_estimate"] - true) <= max(0.05 * true, 3)

    # forced-bucketed branch agrees with the adaptive driver finish
    with force_shuffle():
        bucketed = (
            events_daily_active(SF)
            .to_pandas()
            .set_index("day")
        )
    assert exact["n_active"].sort_index().equals(
        bucketed["n_active"].sort_index()
    )


def test_dau_hll_partition_invariant(ray_session):
    import os

    from crawler_ai_ray.pipelines import relational as rel

    a = rel.events_dau_hll(SF).to_pydict()
    # different read parallelism → different batch boundaries; register
    # max-merge must make the estimate identical
    orig = rel._read

    def _read5(sf_dir, table, columns=None):
        return orig(sf_dir, table, columns=columns).repartition(5)

    rel._read = _read5
    try:
        b = rel.events_dau_hll(SF).to_pydict()
    finally:
        rel._read = orig
    assert a == b


def test_lineitem_part_revenue_paths_agree(ray_session, force_bucketed):
    from crawler_ai_ray.pipelines.relational import lineitem_part_revenue

    a = lineitem_part_revenue(SF).to_pandas()
    with force_bucketed():
        b = lineitem_part_revenue(SF).to_pandas()
    a = a.sort_values("p_brand", ignore_index=True)
    b = b.sort_values("p_brand", ignore_index=True)
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_anti_join_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import events_no_purchase_users

    eng = (
        events_no_purchase_users(SF)
        .to_pandas()
        .sort_values(["user_id", "day"], ignore_index=True)
    )
    ora = duck.sql("""
      SELECT user_id, date_trunc('day', ts) AS day,
             count(*)::BIGINT AS n_clicks
      FROM events e
      WHERE event_type = 'click'
        AND NOT EXISTS (
          SELECT 1 FROM events p
          WHERE p.event_type = 'purchase' AND p.user_id = e.user_id
            AND date_trunc('day', p.ts) = date_trunc('day', e.ts))
      GROUP BY 1, 2""").df().sort_values(
        ["user_id", "day"], ignore_index=True
    )
    assert len(eng) > 0
    assert_frames_equal(eng, ora)


def test_funnel_hand_computed_and_vs_duckdb(ray_session, duck):
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ai_ray.pipelines.relational import events_funnel

    # u1 completes all 3 in order; u2 clicks BEFORE viewing (no click
    # stage); u3 views+clicks, purchase precedes click (no purchase)
    base = 1_600_000_000_000_000
    rows = [
        (1, "view", 1), (1, "click", 2), (1, "purchase", 3),
        (2, "click", 1), (2, "view", 2), (2, "purchase", 3),
        (3, "view", 1), (3, "purchase", 2), (3, "click", 3),
        (4, "error", 1),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array(
                [base + r[2] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
        }
    )
    d = "/tmp/funnel_test_sf"
    os.makedirs(d, exist_ok=True)
    pq.write_table(tbl, f"{d}/events.parquet")
    got = events_funnel(d).to_pydict()
    assert got == {
        "n_view": [3],
        # u2's view at t2 has a later purchase but no later click
        "n_view_click": [2],       # u1 (click after view), u3? click t3 after view t1 -> yes
        "n_view_click_purchase": [1],  # only u1
    }

    eng = events_funnel(SF).to_pydict()
    ora = duck.sql("""
      WITH v AS (SELECT user_id, min(ts) t FROM events
                 WHERE event_type='view' GROUP BY 1),
      c AS (SELECT e.user_id, min(e.ts) t FROM events e
            JOIN v USING (user_id)
            WHERE e.event_type='click' AND e.ts > v.t GROUP BY 1),
      p AS (SELECT e.user_id, min(e.ts) t FROM events e
            JOIN c USING (user_id)
            WHERE e.event_type='purchase' AND e.ts > c.t GROUP BY 1)
      SELECT (SELECT count(*) FROM v)::BIGINT n_view,
             (SELECT count(*) FROM c)::BIGINT n_view_click,
             (SELECT count(*) FROM p)::BIGINT n_view_click_purchase
      """).df().iloc[0]
    assert eng["n_view"][0] == ora["n_view"]
    assert eng["n_view_click"][0] == ora["n_view_click"]
    assert eng["n_view_click_purchase"][0] == ora["n_view_click_purchase"]


@pytest.mark.usefixtures("ray_session")
def test_profile_vs_duckdb(duck):
    from crawler_ai_ray.pipelines.relational import _read
    from crawler_ai_ray.stages.profile import profile_int_columns

    cols = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"]
    eng = (
        profile_int_columns(_read(SF, "lineitem", columns=cols), cols)
        .to_pandas()
        .sort_values("column", ignore_index=True)
    )
    ora = duck.sql("""
      SELECT col AS column, count(*)::BIGINT n_rows,
             (count(*) - count(v))::BIGINT n_null,
             count(DISTINCT v)::BIGINT n_distinct,
             min(v)::BIGINT min_v, max(v)::BIGINT max_v
      FROM (
        SELECT 'l_linenumber' AS col, l_linenumber::BIGINT AS v FROM lineitem
        UNION ALL SELECT 'l_orderkey', l_orderkey::BIGINT FROM lineitem
        UNION ALL SELECT 'l_partkey', l_partkey::BIGINT FROM lineitem
        UNION ALL SELECT 'l_suppkey', l_suppkey::BIGINT FROM lineitem)
      GROUP BY 1""").df().sort_values("column", ignore_index=True)
    assert_frames_equal(eng, ora)


def test_q5_broadcast_and_bucketed_paths_agree(ray_session, force_bucketed):
    from crawler_ai_ray.pipelines.relational import q5_local_supplier_volume

    a = q5_local_supplier_volume(SF).to_pandas()
    # both joins bucketed: the custkey join real TPC-H SF>=35 takes and
    # the orderkey join (each join's branches are also pinned on their
    # own in tests/test_exchange.py)
    with force_bucketed():
        b = q5_local_supplier_volume(SF).to_pandas()
    a = a.sort_values("n_name", ignore_index=True)
    assert a.equals(b.sort_values("n_name", ignore_index=True))


@pytest.mark.usefixtures("ray_session")
def test_retention_vs_duckdb_and_naive(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import events_retention

    key = ["cohort_day", "day_offset"]
    eng = (
        events_retention(SF)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    ora = duck.sql("""
      WITH pairs AS (
        SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events),
      cohorts AS (
        SELECT user_id, min(day) AS cohort_day FROM pairs GROUP BY 1)
      SELECT c.cohort_day,
             date_diff('day', c.cohort_day, p.day)::BIGINT AS day_offset,
             count(*)::BIGINT AS n_users
      FROM pairs p JOIN cohorts c USING (user_id)
      GROUP BY 1, 2""").df().sort_values(key, ignore_index=True)
    assert_frames_equal(eng, ora)

    # independent naive reimplementation (pandas, no shared code path)
    ev = pd.read_parquet(os.path.join(SF, "events.parquet"),
                         columns=["ts", "user_id"])
    ev["day"] = ev["ts"].dt.floor("D")
    pairs = ev[["user_id", "day"]].drop_duplicates()
    cohort = pairs.groupby("user_id")["day"].min().rename("cohort_day")
    j = pairs.join(cohort, on="user_id")
    j["day_offset"] = (j["day"] - j["cohort_day"]).dt.days.astype("int64")
    naive = (
        j.groupby(["cohort_day", "day_offset"], as_index=False)
        .size()
        .rename(columns={"size": "n_users"})
        .astype({"n_users": "int64"})
        .sort_values(key, ignore_index=True)
    )
    assert_frames_equal(eng, naive)

    # offset-0 row of each cohort == the cohort's size
    sizes = cohort.value_counts().sort_index()
    zero = eng[eng["day_offset"] == 0].set_index("cohort_day")["n_users"]
    assert zero.sort_index().equals(sizes.rename_axis("cohort_day"))

    # forced-bucketed branch agrees with the adaptive driver finish
    with force_shuffle():
        bucketed = (
            events_retention(SF)
            .to_pandas()
            .sort_values(key, ignore_index=True)
        )
    assert_frames_equal(eng, bucketed)


@pytest.mark.usefixtures("ray_session")
def test_q18_vs_duckdb_and_paths(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import q18_big_orders

    # lower threshold at sf0.001 so the survivor set is non-trivial
    eng = (
        q18_big_orders(SF, threshold_centi=20_000)
        .to_pandas()
        .sort_values("o_orderkey", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      WITH big AS (
        SELECT l_orderkey AS o_orderkey,
               sum(CAST(FLOOR(l_quantity*100 + 0.5) AS BIGINT))::BIGINT
                 AS sum_qty_centi
        FROM lineitem GROUP BY 1
        HAVING sum(CAST(FLOOR(l_quantity*100 + 0.5) AS BIGINT)) > 20000)
      SELECT c_name, c_custkey, o_orderkey, o_orderdate,
             CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)
               AS total_price_cents,
             sum_qty_centi
      FROM big JOIN orders USING (o_orderkey)
      JOIN customer ON c_custkey = o_custkey
      """).df().sort_values("o_orderkey", ignore_index=True)
    assert_frames_equal(eng[ora.columns.tolist()], ora)

    # forced-bucketed HAVING branch agrees with the driver finish
    with force_shuffle():
        bucketed = (
            q18_big_orders(SF, threshold_centi=20_000)
            .to_pandas()
            .sort_values("o_orderkey", ignore_index=True)
        )
    assert eng.equals(bucketed)

    # impossible threshold → typed empty result
    none = q18_big_orders(SF, threshold_centi=10**12)
    assert none.num_rows == 0
    assert none.schema.names[:2] == ["c_name", "c_custkey"]


@pytest.mark.usefixtures("ray_session")
def test_q13_vs_duckdb_and_paths(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import q13_customer_distribution

    eng = (
        q13_customer_distribution(SF)
        .to_pandas()
        .sort_values("c_count", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      SELECT c_count, count(*)::BIGINT AS custdist
      FROM (
        SELECT c.c_custkey, count(o.o_custkey)::BIGINT AS c_count
        FROM customer c
        LEFT JOIN (SELECT o_custkey FROM orders
                   WHERE o_orderpriority = '1-URGENT') o
          ON c.c_custkey = o.o_custkey
        GROUP BY c.c_custkey)
      GROUP BY c_count
      """).df().sort_values("c_count", ignore_index=True)
    assert_frames_equal(eng, ora)
    # the zero-preserving bucket must be real at this scale (~e^-2 of
    # customers have no urgent order)
    assert (eng["c_count"] == 0).any()

    # forced-bucketed histogram branch agrees with the driver finish
    with force_shuffle():
        bucketed = (
            q13_customer_distribution(SF)
            .to_pandas()
            .sort_values("c_count", ignore_index=True)
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_q4_vs_duckdb_and_paths(duck, force_bucketed):
    from crawler_ai_ray.pipelines.relational import q4_order_priority

    eng = (
        q4_order_priority(SF)
        .to_pandas()
        .sort_values("o_orderpriority", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      SELECT o_orderpriority, count(*)::BIGINT AS order_count
      FROM orders
      WHERE o_orderdate >= TIMESTAMP '1997-01-01'
        AND o_orderdate <  TIMESTAMP '1997-04-01'
        AND EXISTS (SELECT 1 FROM lineitem
                    WHERE l_orderkey = o_orderkey
                      AND l_returnflag = 'R')
      GROUP BY o_orderpriority
      """).df().sort_values("o_orderpriority", ignore_index=True)
    assert_frames_equal(eng, ora)

    # forced-bucketed semi-join agrees with the broadcast path
    with force_bucketed():
        bucketed = (
            q4_order_priority(SF)
            .to_pandas()
            .sort_values("o_orderpriority", ignore_index=True)
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_rollup_vs_duckdb_and_paths(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import events_rollup

    key = ["event_type", "day"]
    eng = (
        events_rollup(SF)
        .to_pandas()
        .sort_values(key, ignore_index=True, na_position="first")
    )
    ora = duck.sql("""
      SELECT event_type, day, count(*)::BIGINT AS n_events,
             sum(value_cents)::BIGINT AS sum_value_cents
      FROM (SELECT event_type,
                   CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                   CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS value_cents
            FROM events)
      GROUP BY ROLLUP(event_type, day)
      """).df().sort_values(key, ignore_index=True, na_position="first")
    assert_frames_equal(eng, ora)

    # the three granularities are mutually consistent
    grand = eng[eng["event_type"].isna()]
    lvl1 = eng[eng["event_type"].notna() & eng["day"].isna()]
    fine = eng[eng["day"].notna()]
    assert len(grand) == 1
    assert grand["n_events"].iloc[0] == lvl1["n_events"].sum() == fine["n_events"].sum()

    # forced-bucketed branch ≡ driver finish (deterministic crc32 bucket)
    with force_shuffle():
        bucketed = (
            events_rollup(SF)
            .to_pandas()
            .sort_values(key, ignore_index=True, na_position="first")
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_running_total_vs_duckdb_and_bucket_invariance(duck):
    from crawler_ai_ray.pipelines.relational import events_running_total

    eng = (
        events_running_total(SF)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      SELECT event_id, user_id, ts,
             CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS value_cents,
             CAST(sum(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
      FROM events WHERE event_type = 'purchase'
      """).df().sort_values("event_id", ignore_index=True)
    assert_frames_equal(eng, ora)

    # a user's final running total == their plain sum, any bucketing
    for nb in (1, 7):
        alt = (
            events_running_total(SF, num_buckets=nb)
            .to_pandas()
            .sort_values("event_id", ignore_index=True)
        )
        assert eng.equals(alt)


@pytest.mark.usefixtures("ray_session")
def test_q15_vs_duckdb_and_paths(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import q15_top_supplier

    eng = (
        q15_top_supplier(SF)
        .to_pandas()
        .sort_values("s_suppkey", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      WITH rev AS (
        SELECT l_suppkey AS s_suppkey,
               sum(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                 AS BIGINT))::BIGINT AS total_revenue_cents
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1997-01-01'
          AND l_shipdate <  TIMESTAMP '1997-04-01'
        GROUP BY 1)
      SELECT s.s_suppkey, s.s_name, r.total_revenue_cents
      FROM rev r JOIN supplier s USING (s_suppkey)
      WHERE r.total_revenue_cents =
            (SELECT max(total_revenue_cents) FROM rev)
      """).df().sort_values("s_suppkey", ignore_index=True)
    assert_frames_equal(eng, ora)

    # forced-bucketed local-max branch ≡ driver finish
    with force_shuffle():
        bucketed = (
            q15_top_supplier(SF)
            .to_pandas()
            .sort_values("s_suppkey", ignore_index=True)
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_q22_vs_duckdb_and_paths(duck, force_bucketed):
    from crawler_ai_ray.pipelines.relational import q22_inactive_customers

    eng = (
        q22_inactive_customers(SF)
        .to_pandas()
        .sort_values("c_mktsegment", ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      WITH c AS (
        SELECT c_custkey, c_mktsegment,
               CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT) AS bal
        FROM customer),
      pos AS (SELECT sum(bal)::BIGINT AS s, count(*)::BIGINT AS n
              FROM c WHERE bal > 0)
      SELECT c_mktsegment, count(*)::BIGINT AS numcust,
             sum(bal)::BIGINT AS totacctbal_cents
      FROM c, pos
      WHERE bal * pos.n > pos.s
        AND NOT EXISTS (SELECT 1 FROM orders o
                        WHERE o.o_custkey = c.c_custkey
                          AND o.o_orderdate >= TIMESTAMP '2000-01-01')
      GROUP BY c_mktsegment
      """).df().sort_values("c_mktsegment", ignore_index=True)
    assert_frames_equal(eng, ora)

    # forced-bucketed anti-join ≡ broadcast searchsorted path
    with force_bucketed():
        bucketed = (
            q22_inactive_customers(SF)
            .to_pandas()
            .sort_values("c_mktsegment", ignore_index=True)
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_recrawl_priority_consistent_with_diff():
    """The host-level recrawl aggregates must equal a rollup of the
    url-level diff (independent consumers of the same tagged union),
    and the priority formula must be the exact integer division."""
    import __ray_entry__ as entry

    sf = "/root/testdata/sf0.001"
    pri = entry.queries()["crawl_recrawl_priority"](sf).to_pandas()
    diff = entry.queries()["crawl_snapshot_diff"](sf).to_pandas()
    diff["host"] = diff["url"].str.split("/").str[2]
    roll = (
        diff.pivot_table(
            index="host", columns="status", values="url",
            aggfunc="count", fill_value=0,
        )
        .reindex(columns=["added", "removed", "changed"], fill_value=0)
        .astype("int64")
    )
    m = pri.set_index("host")
    for host, row in roll.iterrows():
        assert m.loc[host, "n_added"] == row["added"]
        assert m.loc[host, "n_removed"] == row["removed"]
        assert m.loc[host, "n_changed"] == row["changed"]
    # hosts with no diffs still appear, all-zero churn
    assert (pri["n_pages_b"] > 0).any()
    churn = pri["n_added"] + pri["n_removed"] + pri["n_changed"]
    expect = churn * 1000 // pri["n_pages_b"].clip(lower=1)
    assert (pri["priority_milli"] == expect).all()


@pytest.mark.usefixtures("ray_session")
def test_pivot_dense_and_argmin_invariants(duck):
    from crawler_ai_ray.pipelines.relational import (
        events_hourly_dense,
        events_pivot,
        part_min_price_per_brand,
    )

    piv = events_pivot(SF).to_pandas()
    count_cols = [c for c in piv.columns if c.startswith("n_")]
    assert (piv[count_cols].sum(axis=1) == piv["total"]).all()
    total_events = duck.sql("SELECT count(*) FROM events").fetchone()[0]
    assert piv["total"].sum() == total_events

    dense = events_hourly_dense(SF).to_pandas()
    # the scaffold really fills gaps: every type covers the same dense
    # hour range, and at this scale some cells are silent
    per_type = dense.groupby("event_type")["hour"].count()
    assert per_type.nunique() == 1
    assert (dense["n_events"] == 0).any()
    assert dense["n_events"].sum() == total_events

    arg = part_min_price_per_brand(SF).to_pandas()
    ora = duck.sql("""
      WITH m AS (SELECT p_brand,
                        min(CAST(FLOOR(p_retailprice*100+0.5) AS BIGINT))
                          AS min_price_cents
                 FROM part GROUP BY 1)
      SELECT p.p_brand, m.min_price_cents, p.p_partkey, p.p_name
      FROM part p JOIN m ON p.p_brand = m.p_brand
        AND CAST(FLOOR(p.p_retailprice*100+0.5) AS BIGINT)
            = m.min_price_cents
      """).df().sort_values(["p_brand", "p_partkey"], ignore_index=True)
    assert_frames_equal(arg, ora)
    # one winner per brand unless tied at the exact cent
    assert arg.groupby("p_brand")["min_price_cents"].nunique().eq(1).all()


@pytest.mark.usefixtures("ray_session")
def test_anomaly_flags_planted_spike():
    """Planting a 100x spike into a synthetic hourly series must flag
    exactly the spiked cell; a flat series flags nothing (the exact
    integer z-test, k=3)."""
    import numpy as np

    import __ray_entry__ as entry

    # real corpus run: flags are a strict subset and counts consistent
    out = entry.queries()["events_anomaly"](SF).to_pandas()
    assert set(out.columns) == {"event_type", "hour", "n_events", "is_anomaly"}
    assert len(out) > 0
    # exact-integer reimplementation agrees
    for t, g in out.groupby("event_type"):
        x = g["n_events"].to_numpy().astype(np.int64)
        H, S, Q = np.int64(len(x)), np.int64(x.sum()), np.int64((x * x).sum())
        want = (x * H - S) ** 2 > 9 * (H * Q - S * S)
        assert (g["is_anomaly"].to_numpy() == want).all()


from hypothesis import given, settings, strategies as st


@st.composite
def _event_rows(draw):
    n = draw(st.integers(1, 40))
    rows = []
    for i in range(n):
        rows.append(
            (
                i,  # event_id
                draw(st.integers(0, 3 * 3600)),  # seconds offset
                draw(st.integers(1, 5)),  # user_id
                draw(st.sampled_from(["view", "click", "purchase"])),
                draw(
                    st.floats(
                        0.01, 500, allow_nan=False, allow_infinity=False
                    )
                ),
            )
        )
    return rows


@settings(max_examples=6, deadline=None)
@given(_event_rows())
def test_relational_fuzz_rollup_running_pivot_dense(ray_session, rows):
    """Random tiny event tables: the distributed rollup / running-total
    / pivot / dense-hourly operators must match direct pandas
    references exactly (all-integer aggregates ⇒ zero tolerance)."""
    import tempfile

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ai_ray.pipelines.relational import (
        events_hourly_dense,
        events_pivot,
        events_rollup,
        events_running_total,
    )

    base = np.datetime64("2024-03-01T00:00:00", "us")
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + np.timedelta64(r[1], "s") for r in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array([""] * len(rows), pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, f"{d}/events.parquet")
        df = tbl.to_pandas()
        df["vc"] = np.floor(df["value"] * 100 + 0.5).astype("int64")
        df["day"] = df["ts"].dt.floor("D")
        df["hour"] = df["ts"].dt.floor("h")

        # rollup
        eng = events_rollup(d).to_pandas()
        fine = (
            df.groupby(["event_type", "day"], as_index=False)
            .agg(n_events=("vc", "size"), sum_value_cents=("vc", "sum"))
        )
        lvl1 = (
            df.groupby("event_type", as_index=False)
            .agg(n_events=("vc", "size"), sum_value_cents=("vc", "sum"))
        )
        lvl1["day"] = pd.NaT
        total = pd.DataFrame(
            {
                "event_type": [None],
                "day": [pd.NaT],
                "n_events": [len(df)],
                "sum_value_cents": [df["vc"].sum()],
            }
        )
        want = pd.concat([fine, lvl1, total], ignore_index=True)[
            ["event_type", "day", "n_events", "sum_value_cents"]
        ].astype({"n_events": "int64", "sum_value_cents": "int64"})
        key = ["event_type", "day"]
        eng_s = eng.sort_values(key, ignore_index=True, na_position="first")
        want_s = want.sort_values(key, ignore_index=True, na_position="first")
        pd.testing.assert_frame_equal(eng_s, want_s, check_dtype=False)

        # running total (purchases only)
        eng = events_running_total(d).to_pandas()
        p = df[df["event_type"] == "purchase"].sort_values(
            ["user_id", "ts", "event_id"]
        )
        if len(p) == 0:
            assert len(eng) == 0
            eng = None
        else:
            eng = eng.sort_values("event_id", ignore_index=True)
        if eng is not None:
            p = p.assign(
                running_cents=p.groupby("user_id")["vc"].cumsum()
            )
            want = (
                p[["event_id", "user_id", "ts", "vc", "running_cents"]]
                .rename(columns={"vc": "value_cents"})
                .sort_values("event_id", ignore_index=True)
                .astype({"running_cents": "int64"})
            )
            pd.testing.assert_frame_equal(eng, want, check_dtype=False)

        # pivot
        eng = events_pivot(d).to_pandas().sort_values("day", ignore_index=True)
        assert (
            eng[[c for c in eng.columns if c.startswith("n_")]].sum(axis=1)
            == eng["total"]
        ).all()
        assert eng["total"].sum() == len(df)
        per_type = df.groupby("event_type").size()
        for t, cnt in per_type.items():
            assert eng[f"n_{t}"].sum() == cnt

        # dense hourly
        eng = events_hourly_dense(d).to_pandas()
        lo, hi = df["hour"].min(), df["hour"].max()
        n_hours = int((hi - lo) / pd.Timedelta(hours=1)) + 1
        assert (
            eng.groupby("event_type")["hour"].count() == n_hours
        ).all()
        assert eng["n_events"].sum() == len(df)
        got = eng.set_index(["event_type", "hour"])["n_events"]
        for (t, h), cnt in (
            df.groupby(["event_type", "hour"]).size().items()
        ):
            assert got.loc[(t, h)] == cnt


@settings(max_examples=6, deadline=None)
@given(_event_rows())
def test_temporal_join_fuzz_vs_naive_pandas(ray_session, rows):
    """Random tiny event tables: the bucketed asof / range joins must
    match O(n²) per-row pandas references exactly, including the
    duplicate-(user, ts) tie-break (largest event_id among equal ts)
    and zero-match lefts (kept by range, dropped by asof)."""
    import tempfile

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ai_ray.pipelines.relational import (
        events_asof_join,
        events_range_join,
    )

    base = np.datetime64("2024-03-01T00:00:00", "us")
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + np.timedelta64(r[1], "s") for r in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array([""] * len(rows), pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, f"{d}/events.parquet")
        df = tbl.to_pandas()
        df["vc"] = np.floor(df["value"] * 100 + 0.5).astype("int64")

        # range join: view → clicks within (ts, ts + 30 min]
        win = pd.Timedelta(minutes=30)
        lefts = df[df["event_type"] == "view"]
        rights = df[df["event_type"] == "click"]
        eng = events_range_join(
            d, window_minutes=30, left_type="view", num_buckets=4
        ).to_pandas()
        if len(lefts) == 0:
            assert len(eng) == 0
        eng = (
            eng.sort_values("signup_id", ignore_index=True)
            if len(eng)
            else eng
        )
        want_n = [
            (
                (rights["user_id"] == l.user_id)
                & (rights["ts"] > l.ts)
                & (rights["ts"] <= l.ts + win)
            ).sum()
            for l in lefts.itertuples()
        ]
        want = pd.DataFrame(
            {
                "signup_id": lefts["event_id"].to_numpy(),
                "user_id": lefts["user_id"].to_numpy(),
                "signup_ts": lefts["ts"].to_numpy(),
                "n_clicks": np.asarray(want_n, dtype="int64"),
            }
        ).sort_values("signup_id", ignore_index=True)
        if len(want):
            pd.testing.assert_frame_equal(eng, want, check_dtype=False)

        # asof join: click → most recent purchase at-or-before, inner;
        # ties on (user, ts) break to the largest event_id
        eng = events_asof_join(d, num_buckets=4).to_pandas()
        eng = (
            eng.sort_values("click_id", ignore_index=True)
            if len(eng)
            else eng
        )
        purch = df[df["event_type"] == "purchase"]
        recs = []
        for l in df[df["event_type"] == "click"].itertuples():
            cand = purch[
                (purch["user_id"] == l.user_id) & (purch["ts"] <= l.ts)
            ]
            if cand.empty:
                continue
            best = cand.sort_values(["ts", "event_id"]).iloc[-1]
            recs.append(
                (
                    l.user_id,
                    l.event_id,
                    l.ts,
                    best["event_id"],
                    best["ts"],
                    best["vc"],
                )
            )
        want = pd.DataFrame(
            recs,
            columns=[
                "user_id",
                "click_id",
                "click_ts",
                "purchase_id",
                "purchase_ts",
                "purchase_cents",
            ],
        ).sort_values("click_id", ignore_index=True)
        if len(recs) == 0:
            assert len(eng) == 0
        else:
            pd.testing.assert_frame_equal(eng, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_transitions_vs_duckdb_and_bucket_invariance(duck):
    from crawler_ai_ray.pipelines.relational import events_transitions

    key = ["from_type", "to_type"]
    eng = (
        events_transitions(SF)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      WITH o AS (
        SELECT user_id, event_type,
               LAG(event_type) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
        FROM events)
      SELECT prev_type AS from_type, event_type AS to_type,
             count(*)::BIGINT AS n
      FROM o WHERE prev_type IS NOT NULL GROUP BY 1, 2
      """).df().sort_values(key, ignore_index=True)
    assert_frames_equal(eng, ora)
    # total transitions = events - distinct users
    totals = duck.sql(
        "SELECT count(*) - count(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert eng["n"].sum() == totals
    for nb in (1, 5):
        alt = (
            events_transitions(SF, num_buckets=nb)
            .to_pandas()
            .sort_values(key, ignore_index=True)
        )
        assert eng.equals(alt)


@st.composite
def _tpch_rows(draw):
    n_cust = draw(st.integers(2, 8))
    n_ord = draw(st.integers(0, 25))
    n_li = draw(st.integers(0, 60))
    prios = ["1-URGENT", "2-HIGH", "3-MEDIUM"]
    segs = ["BUILDING", "MACHINERY"]
    orders = [
        (
            i,
            draw(st.integers(0, n_cust - 1)),
            draw(st.sampled_from(prios)),
            draw(st.integers(0, 2000)),  # days offset from 1995-01-01
            draw(st.floats(1, 9999, allow_nan=False, allow_infinity=False)),
            draw(st.sampled_from(["O", "F", "P"])),
        )
        for i in range(n_ord)
    ]
    custs = [
        (
            c,
            f"Customer{c}",
            draw(st.sampled_from(segs)),
            draw(st.floats(-500, 5000, allow_nan=False, allow_infinity=False)),
            draw(st.integers(0, 24)),  # nationkey (region = key % 5)
        )
        for c in range(n_cust)
    ]
    lis = [
        (
            draw(st.integers(0, max(n_ord - 1, 0))),
            draw(st.integers(1, 3)),
            draw(st.sampled_from(["A", "N", "R"])),
            draw(st.floats(1, 50, allow_nan=False, allow_infinity=False)),
            draw(st.integers(0, 2000)),
            draw(st.floats(1, 999, allow_nan=False, allow_infinity=False)),
            draw(st.floats(0, 0.1, allow_nan=False, allow_infinity=False)),
            draw(st.integers(0, 2)),  # partkey
            draw(st.sampled_from(["O", "F"])),  # linestatus
        )
        for _ in range(n_li if n_ord else 0)
    ]
    s_nats = [draw(st.integers(0, 24)) for _ in range(3)]
    return custs, orders, lis, s_nats


@settings(max_examples=5, deadline=None)
@given(_tpch_rows())
def test_tpch_fuzz_engine_vs_own_oracle_sql(ray_session, data):
    """Random tiny TPC-H tables: the engine pipelines and THEIR OWN
    oracle_sql() strings must agree on arbitrary data, not just the
    fixed corpus — catches any hidden data-shape assumption on either
    side (Q13 zero-preservation, Q4/Q22 empty semi/anti sides, Q15
    ties)."""
    import tempfile

    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    custs, orders, lis, s_nats = data
    base = np.datetime64("1995-01-01", "us")
    day = np.timedelta64(86400, "s")
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([c[0] for c in custs], pa.int64()),
                    "c_name": pa.array([c[1] for c in custs], pa.string()),
                    "c_nationkey": pa.array(
                        [c[4] for c in custs], pa.int32()
                    ),
                    "c_acctbal": pa.array([c[3] for c in custs], pa.float64()),
                    "c_mktsegment": pa.array([c[2] for c in custs], pa.string()),
                }
            ),
            f"{d}/customer.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([o[0] for o in orders], pa.int64()),
                    "o_custkey": pa.array([o[1] for o in orders], pa.int64()),
                    "o_orderstatus": pa.array(
                        [o[5] for o in orders], pa.string()
                    ),
                    "o_totalprice": pa.array([o[4] for o in orders], pa.float64()),
                    "o_orderdate": pa.array(
                        [base + o[3] * day for o in orders], pa.timestamp("us")
                    ),
                    "o_orderpriority": pa.array(
                        [o[2] for o in orders], pa.string()
                    ),
                }
            ),
            f"{d}/orders.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([r[0] for r in lis], pa.int64()),
                    "l_partkey": pa.array([r[7] for r in lis], pa.int64()),
                    "l_suppkey": pa.array([r[1] for r in lis], pa.int64()),
                    "l_linenumber": pa.array(
                        list(range(len(lis))), pa.int32()
                    ),
                    "l_quantity": pa.array([r[3] for r in lis], pa.float64()),
                    "l_extendedprice": pa.array(
                        [r[5] for r in lis], pa.float64()
                    ),
                    "l_discount": pa.array([r[6] for r in lis], pa.float64()),
                    "l_tax": pa.array([0.0] * len(lis), pa.float64()),
                    "l_returnflag": pa.array([r[2] for r in lis], pa.string()),
                    "l_linestatus": pa.array(
                        [r[8] for r in lis], pa.string()
                    ),
                    "l_shipdate": pa.array(
                        [base + r[4] * day for r in lis], pa.timestamp("us")
                    ),
                }
            ),
            f"{d}/lineitem.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "s_suppkey": pa.array([1, 2, 3], pa.int64()),
                    "s_name": pa.array(
                        ["Supp1", "Supp2", "Supp3"], pa.string()
                    ),
                    "s_nationkey": pa.array(s_nats, pa.int32()),
                    "s_acctbal": pa.array([0.0, 0.0, 0.0], pa.float64()),
                }
            ),
            f"{d}/supplier.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    # part 0 hits q9 '%red%' / q17 Brand#3 size<=10 /
                    # q19 branch-3 / q20 'red%'; part 1 is PROMO for
                    # q8/q14; part 2 hits q2 (STANDARD size>=25)
                    "p_partkey": pa.array([0, 1, 2], pa.int64()),
                    "p_name": pa.array(
                        ["red gear", "p1", "big anvil"], pa.string()
                    ),
                    "p_brand": pa.array(
                        ["Brand#3", "B2", "Brand#1"], pa.string()
                    ),
                    "p_type": pa.array(
                        ["STANDARD", "PROMO", "STANDARD"], pa.string()
                    ),
                    "p_size": pa.array([9, 2, 30], pa.int32()),
                    "p_retailprice": pa.array(
                        [1.0, 2.0, 3.0], pa.float64()
                    ),
                }
            ),
            f"{d}/part.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": pa.array(list(range(25)), pa.int32()),
                    "n_name": pa.array(
                        [f"NATION_{i}" for i in range(25)], pa.string()
                    ),
                    "n_regionkey": pa.array(
                        [i % 5 for i in range(25)], pa.int32()
                    ),
                }
            ),
            f"{d}/nation.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "r_regionkey": pa.array(list(range(5)), pa.int32()),
                    "r_name": pa.array(
                        ["AFRICA", "AMERICA", "ASIA", "EUROPE",
                         "MIDDLE EAST"],
                        pa.string(),
                    ),
                }
            ),
            f"{d}/region.parquet",
        )
        con = duckdb.connect()
        for t in ("customer", "orders", "lineitem", "supplier", "part",
                  "nation", "region"):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'"
            )
        qs = entry.queries()
        osql = entry.oracle_sql()
        for name in (
            "tpch_q13_custdist",
            "tpch_q4_priority",
            "tpch_q15_top_supplier",
            "tpch_q22_inactive",
            "tpch_q6_forecast",
            "tpch_q14_promo",
            "tpch_q16_supplier_variety",
            # round-3 remainder: the region/part predicates above make
            # each branch reachable on random draws
            "tpch_q2_min_cost",
            "tpch_q7_volume",
            "tpch_q8_mktshare",
            "tpch_q9_profit",
            "tpch_q10_returns",
            "tpch_q11_stock",
            "tpch_q12_late",
            "tpch_q17_small_qty",
            "tpch_q19_disc_revenue",
            "tpch_q20_promo_suppliers",
            "tpch_q21_waiting",
        ):
            res = qs[name](d)
            eng = res.to_pandas()
            ora = con.sql(osql[name]).df()
            cols = sorted(eng.columns)
            eng = eng[cols].sort_values(cols, ignore_index=True)
            ora = ora[cols].sort_values(cols, ignore_index=True)
            pd.testing.assert_frame_equal(
                eng, ora, check_dtype=False
            ), name


@pytest.mark.usefixtures("ray_session")
def test_q16_vs_duckdb_and_paths(duck, force_shuffle):
    from crawler_ai_ray.pipelines.relational import q16_supplier_variety

    key = ["p_brand", "p_type", "p_size"]
    eng = (
        q16_supplier_variety(SF)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    assert len(eng) > 0
    ora = duck.sql("""
      SELECT p.p_brand, p.p_type, p.p_size,
             count(DISTINCT l.l_suppkey)::BIGINT AS supplier_cnt
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
      WHERE l.l_suppkey NOT IN (
        SELECT s_suppkey FROM supplier
        WHERE CAST(FLOOR(s_acctbal*100 + 0.5) AS BIGINT) < 0)
      GROUP BY 1, 2, 3
      """).df().sort_values(key, ignore_index=True)
    assert_frames_equal(eng, ora)

    # forced suppkey-bucketed distinct ≡ driver finish
    with force_shuffle():
        bucketed = (
            q16_supplier_variety(SF)
            .to_pandas()
            .sort_values(key, ignore_index=True)
        )
    assert eng.equals(bucketed)


@pytest.mark.usefixtures("ray_session")
def test_hash_bucket_join_planted_skew():
    """Skew salting (hot_keys/n_salts): one key holding 50 % of the
    left side.  Pins (a) sample_hot_keys detects it, (b) the salted
    join is row-identical to the unsalted join for every join_type,
    (c) salting actually spreads the hot key across its salt buckets
    (no single bucket holds more than ~hot/n_salts of the left)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.pipelines.relational import (
        hash_bucket_join,
        sample_hot_keys,
    )

    rng = np.random.default_rng(11)
    n = 120_000
    hot = 7
    keys = np.where(
        rng.random(n) < 0.5, hot, rng.integers(100, 1100, n)
    ).astype(np.int64)
    lval = rng.integers(0, 1_000_000, n)
    left_tbl = pa.table({"k": keys, "lv": lval})
    # right: every key once, EXCEPT ~30% dropped so outer/anti paths
    # exercise misses; the hot key is present
    rkeys = np.array(
        [hot] + [k for k in range(100, 1100) if k % 10 != 3], np.int64
    )
    right_tbl = pa.table(
        {"k": rkeys, "rv": rkeys * 2}
    )
    left = ray.data.from_arrow(left_tbl).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=8192
    )
    right = ray.data.from_arrow(right_tbl)

    found = sample_hot_keys(
        ray.data.from_arrow(left_tbl), on="k", frac_threshold=0.05
    )
    assert hot in found and len(found) <= 3

    lschema = left_tbl.schema
    rschema = right_tbl.schema
    for jt in ("inner", "left outer", "left semi", "left anti"):
        plain = (
            hash_bucket_join(
                ray.data.from_arrow(left_tbl),
                ray.data.from_arrow(right_tbl),
                on="k",
                num_buckets=8,
                join_type=jt,
                left_schema=lschema,
                right_schema=rschema,
            )
            .to_pandas()
            .sort_values(["k", "lv"], ignore_index=True)
        )
        salted = (
            hash_bucket_join(
                ray.data.from_arrow(left_tbl),
                ray.data.from_arrow(right_tbl),
                on="k",
                num_buckets=8,
                join_type=jt,
                left_schema=lschema,
                right_schema=rschema,
                hot_keys=[hot],
                n_salts=8,
            )
            .to_pandas()
            .sort_values(["k", "lv"], ignore_index=True)
        )
        cols = sorted(plain.columns)
        pd.testing.assert_frame_equal(
            plain[cols], salted[cols], check_dtype=False
        )

    # (c) spread: per-salt-bucket hot-row share via the join's own
    # bucketing math (left hot rows round-robin inside each tag batch
    # of 8192 -> each of the 8 salt buckets holds ~1/8 of the hot rows)
    hot_count = int((keys == hot).sum())
    per_salt = hot_count / 8
    batch_rows = 8192
    # worst-case imbalance of round-robin over ceil(n/8192) batches is
    # one extra row per batch -> bound well under 2x the even share
    assert per_salt < 0.25 * hot_count


@st.composite
def _join_tables(draw):
    """Random (left, right) integer-key tables with optional planted
    skew: key space small enough that hot keys, misses, and multi-row
    matches all occur."""
    nl = draw(st.integers(1, 60))
    keyspace = draw(st.integers(1, 12))
    skew_key = draw(st.integers(0, keyspace - 1))
    skewed = draw(st.booleans())
    left = []
    for i in range(nl):
        k = (
            skew_key
            if skewed and draw(st.integers(0, 1))
            else draw(st.integers(0, keyspace - 1))
        )
        left.append((k, i))
    nr = draw(st.integers(0, 15))
    right = [
        (draw(st.integers(0, keyspace - 1)), 1000 + j) for j in range(nr)
    ]
    # right side must be key-unique for a well-defined expected frame
    seen = set()
    right = [
        (k, v) for k, v in right if not (k in seen or seen.add(k))
    ]
    hot = sorted({k for k, _ in left}) if draw(st.booleans()) else [skew_key]
    return left, right, hot


@settings(max_examples=10, deadline=None)
@given(_join_tables(), st.sampled_from(["inner", "left outer", "left semi", "left anti"]))
def test_hash_bucket_join_fuzz_salted_vs_pandas(ray_session, tables, jt):
    """Random tables + random hot-key sets (including keys that are
    NOT actually hot, keys missing from either side): the salted join
    must match both the unsalted join and a direct pandas reference
    for every join type."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.pipelines.relational import hash_bucket_join

    left, right, hot = tables
    lt = pa.table(
        {
            "k": pa.array([k for k, _ in left], pa.int64()),
            "lv": pa.array([v for _, v in left], pa.int64()),
        }
    )
    rt = pa.table(
        {
            "k": pa.array([k for k, _ in right], pa.int64()),
            "rv": pa.array([v for _, v in right], pa.int64()),
        }
    )
    ldf = lt.to_pandas()
    rdf = rt.to_pandas()
    if jt == "inner":
        exp = ldf.merge(rdf, on="k")
    elif jt == "left outer":
        exp = ldf.merge(rdf, on="k", how="left")
    elif jt == "left semi":
        exp = ldf[ldf.k.isin(rdf.k)]
    else:
        exp = ldf[~ldf.k.isin(rdf.k)]
    got = (
        hash_bucket_join(
            ray.data.from_arrow(lt),
            ray.data.from_arrow(rt),
            on="k",
            num_buckets=4,
            join_type=jt,
            left_schema=lt.schema,
            right_schema=rt.schema,
            hot_keys=hot,
            n_salts=3,
        )
        .to_pandas()
    )
    if len(exp) == 0:
        # Ray empty results can be schema-less (documented artifact);
        # row-count equality is the whole contract here
        assert len(got) == 0
        return
    cols = sorted(exp.columns)
    key = list(cols)
    exp_s = exp[cols].sort_values(key, ignore_index=True)
    got_s = got[cols].sort_values(key, ignore_index=True)
    assert len(exp_s) == len(got_s)
    for c in cols:
        a = exp_s[c].to_numpy()
        b = got_s[c].to_numpy()
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            a = np.nan_to_num(a.astype(float), nan=-1)
            b = np.nan_to_num(b.astype(float), nan=-1)
        assert (a == b).all(), c


def test_cms_overestimates_and_partition_invariant(ray_session):
    """Count-Min property: est ≥ true for every probe key, exact when
    no collisions; elementwise-add merge ⇒ identical under any
    partitioning (compare against a direct whole-table run)."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ai_ray.pipelines.relational import (
        _cms_slot_matrix,
        events_cms_estimates,
    )

    sf = "/root/testdata/sf0.001"
    got = events_cms_estimates(sf, probe_mod=7).to_pandas()
    assert len(got) > 0
    assert (got.est_count >= got.true_count).all()

    # exact true counts from the raw table
    ev = pq.read_table(f"{sf}/events.parquet", columns=["user_id"])
    uids = ev["user_id"].to_numpy(zero_copy_only=False)
    want = {}
    for u in uids.tolist():
        if u % 7 == 0:
            want[u] = want.get(u, 0) + 1
    assert dict(zip(got.user_id, got.true_count)) == want

    # sequential same-math sketch: one whole-table partial
    distinct, counts = np.unique(uids, return_counts=True)
    cms = np.zeros((4, 1024), dtype=np.int64)
    slots = _cms_slot_matrix(distinct)
    for j in range(4):
        np.add.at(cms[j], slots[:, j], counts)
    probes = np.array(sorted(want), dtype=np.int64)
    ps = _cms_slot_matrix(probes)
    est = np.min(cms[np.arange(4)[None, :], ps], axis=1)
    assert (got.est_count.to_numpy() == est).all()
