"""``stages/exchange.py``: the driver and shuffle branches of
``bucket_finish`` agree row for row, hide the bucket column from the
kernel, type their empty results, and record the branch they took."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from crawler_ai_ray.stages import exchange

N_BUCKETS = 6
IN = pa.schema(
    [("k", pa.int64()), ("v", pa.int64()), ("bucket", pa.int64())]
)
OUT = pa.schema(
    [("k", pa.int64()), ("v", pa.int64()), ("saw_key", pa.bool_())]
)


def _make_kernel():
    # built in a function so Ray workers get it by value (this test
    # module is not importable on a worker)
    def kernel(g: pa.Table) -> pa.Table:
        """per-key sum — exact on any union of whole buckets; records
        whether the bucket column reached it."""
        agg = g.group_by("k").aggregate([("v", "sum")])
        return pa.table(
            {
                "k": agg["k"],
                "v": agg["v_sum"],
                "saw_key": pa.array(
                    ["bucket" in g.column_names] * agg.num_rows, pa.bool_()
                ),
            }
        )

    return kernel


_kernel = _make_kernel()


def _dataset(tables):
    import ray
    import ray.data

    return ray.data.from_arrow_refs([ray.put(t) for t in tables])


def _keyed_blocks(seed: int) -> list[pa.Table]:
    """a seeded keyed table cut into uneven blocks, with a typed and a
    schema-less zero-row block among them."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 40, 500)
    v = rng.integers(-1000, 1000, 500)
    t = pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "bucket": exchange.bucket_of(pa.array(k, pa.int64()), N_BUCKETS),
        }
    )
    cuts = np.sort(rng.choice(np.arange(1, 500), 4, replace=False))
    parts = [t.slice(a, b - a) for a, b in zip([0, *cuts], [*cuts, 500])]
    return parts[:2] + [IN.empty_table(), pa.table({})] + parts[2:]


def _rows(t: pa.Table) -> list[tuple]:
    return sorted(zip(*(t[c].to_pylist() for c in t.column_names)))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [0, 1])
def test_branches_agree(monkeypatch, seed):
    parts = _keyed_blocks(seed)
    whole = pa.concat_tables([p for p in parts if p.num_rows])
    want = {}
    for k, v in zip(whole["k"].to_pylist(), whole["v"].to_pylist()):
        want[k] = want.get(k, 0) + v

    before = exchange.PATHS.copy()
    driver = exchange.bucket_finish(_dataset(parts), _kernel, OUT)
    assert exchange.PATHS["driver"] == before["driver"] + 1
    monkeypatch.setattr(exchange, "DRIVER_FINISH_MAX", 0)
    shuffle = exchange.bucket_finish(_dataset(parts), _kernel, OUT)
    assert exchange.PATHS["shuffle"] == before["shuffle"] + 1

    assert _rows(driver) == _rows(shuffle)
    assert dict(zip(driver["k"].to_pylist(), driver["v"].to_pylist())) == want
    assert not any(driver["saw_key"].to_pylist())
    assert not any(shuffle["saw_key"].to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_driver_max_and_lazy():
    parts = _keyed_blocks(2)
    before = exchange.PATHS.copy()
    lazy = exchange.bucket_finish(
        _dataset(parts), _kernel, OUT, driver_max=0, lazy=True
    )
    assert exchange.PATHS["shuffle"] == before["shuffle"] + 1
    eager = exchange.bucket_finish(_dataset(parts), _kernel, OUT)
    assert _rows(pa.concat_tables(exchange.blocks(lazy))) == _rows(eager)
    drv = exchange.bucket_finish(_dataset(parts), _kernel, OUT, lazy=True)
    assert _rows(pa.concat_tables(exchange.blocks(drv))) == _rows(eager)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("driver_max", [None, -1])
def test_all_empty_input_is_typed(driver_max):
    ds = _dataset([IN.empty_table(), pa.table({}), IN.empty_table()])
    out = exchange.bucket_finish(ds, _kernel, OUT, driver_max=driver_max)
    assert out.num_rows == 0
    assert out.schema == OUT


@pytest.mark.usefixtures("ray_session")
def test_bucketed_agg_matches_reference():
    rng = np.random.default_rng(3)
    k = rng.integers(0, 100, 300)
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    t = pa.table(
        {"k": pa.array(k, pa.int64()), "v": pa.array(np.ones(300, np.int64))}
    )
    ds = _dataset([t.slice(0, 120), schema.empty_table(), t.slice(120)])

    def count(g: pa.Table) -> pa.Table:
        agg = g.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": agg["k"], "n": agg["v_sum"]})

    out = pa.concat_tables(
        exchange.blocks(exchange.bucketed_agg(ds, "k", count, schema, 8))
    )
    got = dict(zip(out["k"].to_pylist(), out["n"].to_pylist()))
    keys, counts = np.unique(k, return_counts=True)
    assert got == dict(zip(keys.tolist(), counts.tolist()))


@pytest.mark.parametrize("n", [8, 6, 1])
def test_bucket_of_is_key_mod_n(n):
    k = np.array([0, 1, 5, 7, 8, 13, 2**40 + 3, 2**62], np.int64)
    got = exchange.bucket_of(pa.array(k), n)
    assert got.type == pa.int64()
    assert got.to_pylist() == (k % n).tolist()
