"""The fetch-simulation queries' actor pools leave a CPU for the read
tasks that feed them: on the 4-CPU test session both queries finish
and match their oracle (a pool holding every CPU hung them there)."""

from __future__ import annotations

import os
import threading

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry
from tests.test_training_ops import SF

# the crawl oracles read the sf0.01 golden
SF01 = os.path.join(os.path.dirname(SF), "sf0.01")
# each query takes well under a minute on one core
HANG_S = 300


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["crawl_fetch_results", "crawl_head_check"])
def test_fetch_pool_finishes_and_matches_oracle(name, capsys):
    got: dict = {}

    def run():
        try:
            got["df"] = entry.queries()[name](SF01).to_pandas()
        except BaseException as ex:  # noqa: BLE001 — re-raised below
            got["error"] = ex

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(HANG_S)
    if worker.is_alive():
        # a hung pool keeps its CPUs, so every later test would stall
        # too: end the run here instead (printed first, since the hung
        # thread can take the process down at Ray's shutdown)
        msg = (
            f"{name} did not finish in {HANG_S} s on the 4-CPU session "
            "(an actor pool holding every CPU starves its reads)"
        )
        with capsys.disabled():
            print(f"\nFAILED {msg}", flush=True)
        pytest.exit(msg, returncode=1)
    if "error" in got:
        raise got["error"]
    ora = duckdb.sql(entry.oracle_sql()[name]).df()
    assert len(got["df"]) > 0
    pd.testing.assert_frame_equal(
        _canon(got["df"]), _canon(ora), check_dtype=False
    )
