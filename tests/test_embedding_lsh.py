"""Embedding LSH (random-hyperplane sign sketches) on the banded pair
sweep, against a brute-force reference.

The reference sketches every vector with the same hyperplanes, then
takes every pair that shares at least one band sketch with cos ≥ τ;
``n_bands_hit`` is its count of equal band sketches.  The distributed
path and the sweep's driver branch emit each such pair once with that
count, at the 24×3 geometry ``emb_neardup_lsh`` uses and at the 8×8
default.  Above ``_MAX_CLIQUE_RUN`` identical vectors collapse and the
pair list may shrink, but the closure must not change.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from tests.test_minhash_kernel import SF01, _closure
from tests.test_training_ops import SF

SEED = 11


def _reference_pairs(mat: np.ndarray, ids: np.ndarray, tau: float,
                     n_bands: int, bits: int) -> set:
    planes = np.random.RandomState(SEED).standard_normal(
        (n_bands * bits, mat.shape[1])
    )
    signs = (mat @ planes.T) >= 0
    sketch = [
        [tuple(row[b * bits:(b + 1) * bits]) for b in range(n_bands)]
        for row in signs.tolist()
    ]
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    unit = mat / norms[:, None]
    out = set()
    for i in range(len(ids)):
        cos = unit[i + 1:] @ unit[i]
        for j in np.flatnonzero(cos >= tau) + i + 1:
            hit = sum(p == q for p, q in zip(sketch[i], sketch[j]))
            if hit and ids[i] != ids[j]:
                a, b = sorted((int(ids[i]), int(ids[j])))
                out.add((a, b, hit))
    return out


def _rows(t) -> list:
    if not isinstance(t, pa.Table):
        from crawler_ai_ray.stages import exchange

        blocks = exchange.blocks(t)
        t = pa.concat_tables(blocks) if blocks else pa.table(
            {"anchor_id": [], "vec_id": [], "n_bands_hit": []}
        )
    return list(
        zip(t["anchor_id"].to_pylist(), t["vec_id"].to_pylist(),
            t["n_bands_hit"].to_pylist())
    )


def _table(mat: np.ndarray, ids: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(mat.astype(np.float32)), pa.list_(pa.float32())),
        }
    )


def _both_paths(tab: pa.Table, tau: float, n_bands: int, bits: int):
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _embedding_banding,
        _embedding_items,
        _pairs_from_matrix,
        _sig_matrix,
        embedding_neardup_lsh,
    )

    dist = embedding_neardup_lsh(
        ray.data.from_arrow(tab).repartition(4), threshold=tau,
        n_bands=n_bands, bits_per_band=bits,
    )
    items = _embedding_items(tab, n_bands, bits, SEED, "vec_id", "embedding")
    local = _pairs_from_matrix(
        _sig_matrix(items["sig"]),
        items["doc_id"].to_numpy(),
        _embedding_banding(tau, n_bands),
    )
    return _rows(local), _rows(dist)


def _assert_once(rows: list) -> None:
    keys = [(a, b) for a, b, _ in rows]
    assert len(keys) == len(set(keys)), "a pair was emitted more than once"


def _planted(n: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """random vectors plus near copies (small noise) of a few of them."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim))
    near = base[: n // 4] + 0.05 * rng.standard_normal((n // 4, dim))
    mat = np.concatenate([base, near, np.zeros((1, dim))])
    ids = rng.permutation(np.arange(len(mat), dtype=np.int64) * 5 + 3)
    return mat.astype(np.float32).astype(np.float64), ids


CASES = [
    pytest.param(0.45, 24, 3, id="24x3-cos0.45"),
    pytest.param(0.95, 8, 8, id="8x8-cos0.95"),
    pytest.param(0.45, 8, 8, id="8x8-cos0.45"),
]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("tau,n_bands,bits", CASES)
@pytest.mark.parametrize("sf", [SF, SF01])
def test_pair_paths_match_reference_on_corpus(sf, tau, n_bands, bits):
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.dedup import list_col_to_matrix

    tab = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    mat = list_col_to_matrix(tab["embedding"])
    want = _reference_pairs(mat, tab["vec_id"].to_numpy(), tau, n_bands, bits)
    local, dist = _both_paths(tab, tau, n_bands, bits)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == want
    assert set(dist) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("tau,n_bands,bits", CASES)
def test_pair_paths_match_reference_on_planted_vectors(tau, n_bands, bits):
    mat, ids = _planted(240, 32, seed=n_bands)
    want = _reference_pairs(mat, ids, tau, n_bands, bits)
    assert any(hit > 1 for *_, hit in want)  # pairs sharing several bands
    local, dist = _both_paths(_table(mat, ids), tau, n_bands, bits)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == want
    assert set(dist) == want


@pytest.mark.usefixtures("ray_session")
def test_identical_vectors_above_the_run_cap_keep_the_closure():
    from crawler_ai_ray.stages.dedup import _MAX_CLIQUE_RUN

    mat, ids = _planted(120, 32, seed=3)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(32)
    near = v + 0.05 * rng.standard_normal((3, 32))
    mat = np.concatenate([mat, np.tile(v, (_MAX_CLIQUE_RUN + 44, 1)), near])
    mat = mat.astype(np.float32).astype(np.float64)
    ids = rng.permutation(np.arange(len(mat), dtype=np.int64) * 3 + 1)
    want = _reference_pairs(mat, ids, 0.95, 8, 8)
    local, dist = _both_paths(_table(mat, ids), 0.95, 8, 8)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == set(dist)
    assert set(local) <= want
    assert len(local) < len(want)  # the collapse engaged
    assert _closure(local, ids) == _closure(want, ids)


@pytest.mark.usefixtures("ray_session")
def test_neardup_query_blocks_share_one_schema():
    """``emb_neardup_lsh`` keeps only (anchor_id, vec_id): every output
    block, empty ones included, has that schema, and Ray reports no
    block with a different one."""
    import logging

    import ray

    import __ray_entry__ as m

    seen: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = seen.append
    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    log.addHandler(handler)
    try:
        blocks = ray.get(m._q_emb_neardup_lsh(SF01).materialize().to_arrow_refs())
    finally:
        log.removeHandler(handler)
    want = pa.schema([("anchor_id", pa.int64()), ("vec_id", pa.int64())])
    assert blocks and sum(b.num_rows for b in blocks) > 0
    assert all(b.schema.equals(want) for b in blocks), [b.schema for b in blocks]
    assert not [r for r in seen if "different schema" in r.getMessage()]
