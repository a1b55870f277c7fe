"""The engine's Ray Data execution policy (``crawler_ai_ray/__init__.py``):
Ray's per-operator reservation split is off in every process that
imports the package, whichever of the package and ``ray.data`` loads
first; the crawl's modules still never load ``ray.data``; the text
stages gather Datasets without a schema probe; and a read→map chain
runs its map tasks side by side on the 4-CPU session."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(code: str) -> str:
    # a child must not inherit the setting this process already made
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAY_DATA_")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


RESERVATION = "print(ray.data.DataContext.get_current().op_resource_reservation_enabled)"


def test_policy_set_when_package_loads_before_ray_data():
    assert _run(f"import crawler_ai_ray.stages.dedup, ray.data; {RESERVATION}") == "False"


def test_policy_set_when_ray_data_loads_before_package():
    assert _run(f"import ray.data, crawler_ai_ray.stages.dedup; {RESERVATION}") == "False"


def test_crawl_modules_do_not_load_ray_data():
    code = (
        "import sys, crawler_ai_ray.pipelines.crawl, crawler_ai_ray.state.pagestore, "
        "crawler_ai_ray.state.seen; print('ray.data' in sys.modules)"
    )
    assert _run(code) == "False"



def test_textstats_gathers_through_exchange_blocks():
    """``stages/textstats.py`` gathers Datasets only through
    ``exchange.blocks``: ``to_arrow_refs`` on a lazy Dataset re-runs its
    plan under a ``LimitOperator[limit=1]`` schema probe, the cancel
    path of Ray 2.49's fatal ``task_manager.cc`` check."""
    with open(os.path.join(ROOT, "crawler_ai_ray", "stages", "textstats.py")) as f:
        assert "to_arrow_refs" not in f.read()


@pytest.mark.usefixtures("ray_session")
def test_rowgroup_map_runs_tasks_side_by_side(tmp_path):
    import ray

    from crawler_ai_ray.sources.pqread import read_parquet_rowgroups

    p = os.path.join(tmp_path, "rg.parquet")
    pq.write_table(pa.table({"k": pa.array(range(16 * 64), pa.int64())}), p, row_group_size=64)

    def sleep_batch(batch: pa.Table) -> pa.Table:
        start = time.time()
        time.sleep(0.3)
        return pa.table({"start": [start], "end": [time.time()]})

    def spans():
        ds = read_parquet_rowgroups(p).map_batches(
            sleep_batch, batch_format="pyarrow", batch_size=128, zero_copy_batch=True
        )
        t = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
        return list(zip(t["start"].to_pylist(), t["end"].to_pylist()))

    spans()  # start the workers a measured pass runs on
    got = spans()
    assert len(got) >= 8
    events = sorted([(s, 1) for s, _ in got] + [(e, -1) for _, e in got])
    running = peak = 0
    for _, step in events:
        running += step
        peak = max(peak, running)
    busy = sum(e - s for s, e in got)
    span = max(e for _, e in got) - min(s for s, _ in got)
    # under the reservation split the map ran ~1.5 tasks at a time
    # (peak 2-3); with the whole budget it runs ~3.8
    assert peak >= 3, got
    assert busy / span >= 2.5, (busy / span, got)
