"""TPC-H remainder (Q2/Q7-Q12/Q17/Q19-Q21) vs DuckDB at sf0.001, plus
forced-distributed-path agreement: every ``exchange.join`` and adaptive
finish in ``pipelines/tpch_more.py`` must produce identical rows under
the ``force_bucketed`` and/or ``force_shuffle`` fixtures (the
path-agreement house rule — SURVEY §5)."""

from __future__ import annotations

import contextlib

import pandas as pd
import pytest

import __ray_entry__ as entry
from tests.test_training_ops import SF, duck  # noqa: F401

NEW_TPCH = [
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
]

# forcing markers: run with every adaptive bucket finish on its shuffle
# branch (the ``force_shuffle`` fixture) and/or every join on its
# bucketed branch (the ``force_bucketed`` fixture)
SHUFFLE = {"shuffle": True}
BUCKETED = {"bucketed": True}

# engine fn name + list of marker sets, each forcing a distributed path
FORCED = {
    "tpch_q2_min_cost": (
        "q2_min_cost_supplier", [SHUFFLE]
    ),
    "tpch_q7_volume": ("q7_volume_shipping", [BUCKETED]),
    "tpch_q8_mktshare": ("q8_market_share", [BUCKETED]),
    "tpch_q9_profit": ("q9_product_profit", [BUCKETED]),
    "tpch_q10_returns": (
        "q10_returned_items",
        [BUCKETED, SHUFFLE, {**BUCKETED, **SHUFFLE}],
    ),
    "tpch_q11_stock": (
        "q11_important_stock", [SHUFFLE]
    ),
    "tpch_q12_late": ("q12_late_shipments", [BUCKETED]),
    "tpch_q17_small_qty": (
        "q17_small_qty_revenue", [SHUFFLE]
    ),
    "tpch_q19_disc_revenue": (
        "q19_discounted_revenue", [BUCKETED]
    ),
    "tpch_q20_promo_suppliers": (
        "q20_promotion_suppliers", [SHUFFLE]
    ),
    "tpch_q21_waiting": (
        "q21_waiting_suppliers",
        [BUCKETED, SHUFFLE],
    ),
}


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", NEW_TPCH)
def test_tpch_more_vs_duckdb(duck, name):
    qs = entry.queries()
    osql = entry.oracle_sql()
    eng = _norm(qs[name](SF).to_pandas())
    ora = _norm(duck.sql(osql[name]).df())
    assert len(eng) > 0 or name in ()  # every query non-degenerate here
    assert list(eng.columns) == list(ora.columns)
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(FORCED))
def test_tpch_more_path_agreement(name, force_shuffle, force_bucketed):
    from crawler_ai_ray.pipelines import tpch_more

    fn_name, marker_sets = FORCED[name]
    fn = getattr(tpch_more, fn_name)
    a = _norm(fn(SF).to_pandas())
    for markers in marker_sets:
        with contextlib.ExitStack() as forced:
            if markers.get("shuffle"):
                forced.enter_context(force_shuffle())
            if markers.get("bucketed"):
                forced.enter_context(force_bucketed())
            b = _norm(fn(SF).to_pandas())
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
