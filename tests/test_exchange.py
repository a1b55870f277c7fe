"""``stages/exchange.py``: the driver and shuffle branches of
``bucket_finish`` agree row for row, hide the bucket column from the
kernel, type their empty results, and record the branch they took;
the broadcast and bucketed branches of ``join`` match a dict
reference for every join type."""

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


@pytest.mark.parametrize("n", [64, 48])
def test_bucket_of_takes_u64_keys_above_2_63(n):
    k = [0, 1, 2**63, 2**64 - 1]
    got = exchange.bucket_of(pa.array(k, pa.uint64()), n)
    assert got.type == pa.int64()
    assert got.to_pylist() == [x % n for x in k]


# --- exchange.join --------------------------------------------------------

LEFT = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
RIGHT = pa.schema([("k", pa.int64()), ("rv", pa.int64())])
HOWS = ["inner", "left outer", "left semi", "left anti"]


def _blocks_of(t: pa.Table, schema: pa.Schema, rng) -> list[pa.Table]:
    """``t`` cut into uneven blocks, with a typed and a schema-less
    zero-row block among them."""
    n = t.num_rows
    cuts = np.sort(rng.choice(np.arange(1, n), min(3, n - 1), replace=False))
    parts = [t.slice(a, b - a) for a, b in zip([0, *cuts], [*cuts, n])]
    return parts[:1] + [schema.empty_table(), pa.table({})] + parts[1:]


def _join_sides(seed: int, unique_right: bool = True):
    """seeded sides: left keys run past the right's largest key (the
    probe's clip) and below its smallest; right keys are unique for
    inner / left outer, repeated for the key-set joins."""
    rng = np.random.default_rng(seed)
    lk = rng.integers(0, 60, 300)
    rk = (
        rng.choice(np.arange(5, 45), 25, replace=False)
        if unique_right
        else rng.integers(5, 45, 40)
    )
    left = pa.table(
        {"k": pa.array(lk, pa.int64()),
         "lv": pa.array(rng.integers(-1000, 1000, lk.size), pa.int64())}
    )
    right = pa.table(
        {"k": pa.array(rk, pa.int64()),
         "rv": pa.array(rng.integers(-1000, 1000, rk.size), pa.int64())}
    )
    return left, right, _blocks_of(left, LEFT, rng), _blocks_of(right, RIGHT, rng)


def _join_reference(left: pa.Table, right: pa.Table, how: str) -> list[tuple]:
    rv = dict(zip(right["k"].to_pylist(), right["rv"].to_pylist()))
    out = []
    for k, lv in zip(left["k"].to_pylist(), left["lv"].to_pylist()):
        if how == "inner" and k in rv:
            out.append((k, lv, rv[k]))
        elif how == "left outer":
            out.append((k, lv, rv.get(k)))
        elif (how == "left semi") == (k in rv) and how != "inner":
            out.append((k, lv))
    return sorted(out)


def _join(left_parts, right_parts, how, **kw):
    return exchange.join(
        _dataset(left_parts), _dataset(right_parts), "k", how,
        left_schema=LEFT, right_schema=RIGHT, num_buckets=4, **kw,
    )


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("seed", [0, 1])
def test_join_branches_match_reference(force_bucketed, how, seed):
    left, right, lparts, rparts = _join_sides(
        seed, unique_right=how in ("inner", "left outer")
    )
    want = _join_reference(left, right, how)
    before = exchange.PATHS.copy()
    broadcast = _join(lparts, rparts, how)
    assert exchange.PATHS["broadcast"] == before["broadcast"] + 1
    with force_bucketed():
        bucketed = _join(lparts, rparts, how)
    assert _rows(broadcast) == want
    assert _rows(bucketed) == want
    lazy = _join(lparts, rparts, how, lazy=True)
    assert _rows(pa.concat_tables(exchange.blocks(lazy))) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", HOWS)
def test_join_empty_sides(force_bucketed, how):
    left, right, lparts, rparts = _join_sides(2)
    empty_l = [LEFT.empty_table(), pa.table({})]
    empty_r = [RIGHT.empty_table(), pa.table({})]
    # an empty left joins to nothing on either branch
    assert _join(empty_l, rparts, how).num_rows == 0
    with force_bucketed():
        assert _join(empty_l, rparts, how).num_rows == 0
    # an empty right keeps every left row for left outer / left anti
    got = _join(lparts, empty_r, how)
    assert _rows(got) == _join_reference(left, right.slice(0, 0), how)
    if how == "left outer":
        assert got.schema == pa.schema([*LEFT, RIGHT.field("rv")])


def _make_join_finish():
    # built in a function so Ray workers get it by value
    def finish(j: pa.Table) -> pa.Table:
        """per-key sum of lv — exact on any union of whole key groups;
        records whether an exchange column reached it."""
        agg = j.group_by("k").aggregate([("lv", "sum")])
        leaked = bool({"bucket", "side"} & set(j.column_names))
        return pa.table(
            {
                "k": agg["k"],
                "lv": agg["lv_sum"],
                "leaked": pa.array([leaked] * agg.num_rows, pa.bool_()),
            }
        )

    return finish


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left semi"])
def test_join_finish_sees_whole_groups_only(force_bucketed, force_shuffle, how):
    left, right, lparts, rparts = _join_sides(3)
    want = {}
    for row in _join_reference(left, right, how):
        want[row[0]] = want.get(row[0], 0) + row[1]
    finish = _make_join_finish()
    outs = [
        _join(lparts, rparts, how, finish=finish),
        _join(lparts, rparts, how, finish=finish, combine=finish),
    ]
    with force_shuffle():  # broadcast probe, finished per bucket
        outs.append(_join(lparts, rparts, how, finish=finish))
    with force_bucketed():
        outs.append(_join(lparts, rparts, how, finish=finish))
        outs.append(_join(lparts, rparts, how, finish=finish, combine=finish))
    for out in outs:
        assert dict(zip(out["k"].to_pylist(), out["lv"].to_pylist())) == want
        assert not any(out["leaked"].to_pylist())


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_join_broadcast_rejects_duplicate_right_keys(how):
    _, _, lparts, rparts = _join_sides(4, unique_right=False)
    with pytest.raises(ValueError, match="unique right keys"):
        _join(lparts, rparts, how)


@pytest.mark.usefixtures("ray_session")
def test_join_salts_hot_keys_when_bucketed(force_bucketed):
    """one key holding half the left rows spreads over its salt
    buckets (several finish calls each see part of it) and the join
    stays exact."""
    left, right, lparts, rparts = _join_sides(5)
    hot = int(right["k"][0].as_py())
    n = left.num_rows
    left = pa.table(
        {"k": pa.array([hot] * n + left["k"].to_pylist(), pa.int64()),
         "lv": pa.array(list(range(n)) + left["lv"].to_pylist(), pa.int64())}
    )
    lparts = _blocks_of(left, LEFT, np.random.default_rng(5))
    want = {}
    for row in _join_reference(left, right, "inner"):
        want[row[0]] = want.get(row[0], 0) + row[1]
    with force_bucketed():
        out = _join(
            lparts, rparts, "inner", finish=_make_join_finish(),
            hot_keys=[hot],
        )
    got = {}
    for k, v in zip(out["k"].to_pylist(), out["lv"].to_pylist()):
        got[k] = got.get(k, 0) + v
    assert got == want
    assert out["k"].to_pylist().count(hot) > 1


@pytest.mark.usefixtures("ray_session")
def test_join_bucketed_on_raw_u64_keys(force_bucketed):
    """64-bit hash keys, half of them ≥ 2^63, join without masking."""
    rng = np.random.default_rng(6)
    rk = np.unique(rng.integers(0, 2**64, 40, dtype=np.uint64))
    lk = np.concatenate([rk[::2], rng.integers(0, 2**64, 30, dtype=np.uint64)])
    assert (rk >= 2**63).any() and (rk < 2**63).any()
    left = pa.table({"k": pa.array(lk, pa.uint64()),
                     "lv": pa.array(np.arange(lk.size), pa.int64())})
    right = pa.table({"k": pa.array(rk, pa.uint64()),
                      "rv": pa.array(np.arange(rk.size) * 7, pa.int64())})
    rv = dict(zip(right["k"].to_pylist(), right["rv"].to_pylist()))
    want = sorted(
        (k, lv, rv[k])
        for k, lv in zip(left["k"].to_pylist(), left["lv"].to_pylist())
        if k in rv
    )
    with force_bucketed():
        got = exchange.join(
            _dataset([left.slice(0, 20), left.slice(20)]), _dataset([right]),
            "k", "inner", left_schema=left.schema, right_schema=right.schema,
            num_buckets=4,
        )
    assert _rows(got) == want
