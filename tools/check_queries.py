"""Driver-mimic: run every queries() entry and its oracle_sql() side by
side, compare row-count + schema + order-insensitive values.

Each line also prints ``plans=`` (Ray Data executions the query started)
and ``probes=`` (those running under a ``LimitOperator[limit=1]`` schema
probe: a lazy ``to_arrow_refs`` / ``schema()`` re-running the plan).

Usage: python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res):
    import ray.data
    import pyarrow as pa

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    if len(df):
        df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df.reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    a, b = canon(ray_df), canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}"
    for col in a.columns:
        av, bv = a[col], b[col]
        # The driver's value-hash is representation-sensitive across type
        # FAMILIES but not widths: r01 evidence is that int32-vs-int64
        # columns hash-matched, while a DuckDB HUGEINT sum arriving as
        # float64 against Ray's int64 did not (jobs_summary_by_company).
        # Mirror that: flag int-vs-float/bool/object family mismatches
        # and datetime-unit differences, allow width-only differences.
        fam = lambda d: "i" if d.kind in "iu" else d.kind  # noqa: E731
        if fam(av.dtype) != fam(bv.dtype) or (
            av.dtype.kind == "M" and av.dtype != bv.dtype
        ):
            return f"DTYPE MISMATCH col={col} ray={av.dtype} sql={bv.dtype}"
        try:
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                import numpy as np

                if not np.allclose(
                    av.astype(float), bv.astype(float), rtol=0, atol=0,
                    equal_nan=True,
                ):
                    bad = (av.astype(float) != bv.astype(float)).sum()
                    return f"VALUE MISMATCH col={col} ({bad} rows differ)"
            else:
                if not av.astype(str).equals(bv.astype(str)):
                    bad = (av.astype(str) != bv.astype(str)).sum()
                    return f"VALUE MISMATCH col={col} ({bad} rows differ)"
        except Exception as e:  # noqa: BLE001
            return f"COMPARE ERROR col={col}: {e}"
    return "OK"


def count_executions() -> list[int]:
    """Count every Ray Data execution this process starts, and the
    schema probes among them: returns the live ``[plans, probes]``."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    counts = [0, 0]
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        counts[0] += 1
        counts[1] += "LimitOperator[limit=1]" in dag.dag_str
        return execute(self, dag, *args, **kwargs)

    StreamingExecutor.execute = counted
    return counts


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=16, include_dashboard=False,
            ignore_reinit_error=True, log_to_driver=False,
        )
    import __ray_entry__ as e

    executions = count_executions()

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(
                f"CREATE OR REPLACE VIEW {t} AS "
                f"SELECT * FROM read_parquet('{p}')"
            )

    qs = e.queries()
    sqls = e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        before = list(executions)
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"{name:32s} RAY ERROR: {type(ex).__name__}: {ex}")
            failures.append(name)
            continue
        t1 = time.time()
        runs = (
            f"plans={executions[0] - before[0]:<3d} "
            f"probes={executions[1] - before[1]}"
        )
        if name not in sqls:
            print(
                f"{name:32s} rows-only rows={len(ray_df):>7} "
                f"ray={t1-t0:6.1f}s {runs}"
            )
            continue
        try:
            sql_df = con.sql(sqls[name]).df()
        except Exception as ex:  # noqa: BLE001
            print(f"{name:32s} SQL ERROR: {type(ex).__name__}: {ex}")
            failures.append(name)
            continue
        verdict = compare(name, ray_df, sql_df)
        print(
            f"{name:32s} {verdict:12s} rows={len(ray_df):>7} "
            f"ray={t1-t0:6.1f}s {runs} sql={time.time()-t1:5.1f}s"
        )
        if verdict != "OK":
            failures.append(name)
    print("\nFAILURES:", failures or "none")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
