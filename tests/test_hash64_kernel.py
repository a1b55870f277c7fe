"""64-bit Hamming near-dup pairs (simhash, image / audio hashes) on the
banded pair sweep, against a brute-force all-pairs reference.

Both pair paths — ``hash64_neardup_pairs`` (the distributed sweep) and
``hash64_neardup_pairs_local`` (its driver branch) — emit each pair
once, and their pair set is every pair of items that share at least one
of the four 16-bit bands with Hamming ≤ k (for k ≤ 3 that is every pair
within distance k), each with its exact popcount distance.  Hashes
≥ 2^63 travel as negative int64.  Above ``_MAX_CLIQUE_RUN`` the pair
list may shrink but the closure must not change.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from tests.test_minhash_kernel import SF01, _closure
from tests.test_training_ops import SF

K = 3
MASK64 = (1 << 64) - 1


def _bands(h: int) -> list[tuple[int, int]]:
    return [(b, (h >> (16 * b)) & 0xFFFF) for b in range(4)]


def _reference_pairs(hashes: list[int], ids: list[int], k: int = K) -> set:
    """Every pair sharing a 16-bit band with Hamming ≤ k, oriented
    (smaller id, larger id), in plain Python integers."""
    u = [h & MASK64 for h in hashes]
    out = set()
    for i in range(len(u)):
        bi = set(_bands(u[i]))
        for j in range(i + 1, len(u)):
            d = bin(u[i] ^ u[j]).count("1")
            if d <= k and bi & set(_bands(u[j])) and ids[i] != ids[j]:
                a, b = sorted((ids[i], ids[j]))
                out.add((a, b, d))
    return out


def _rows(t) -> list:
    if not isinstance(t, pa.Table):
        from crawler_ai_ray.stages import exchange

        blocks = exchange.blocks(t)
        t = pa.concat_tables(blocks) if blocks else pa.table(
            {"doc_a": [], "doc_b": [], "hamming": []}
        )
    return list(
        zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist(), t["hamming"].to_pylist())
    )


def _table(hashes: list[int], ids: list[int]) -> pa.Table:
    signed = np.array([h & MASK64 for h in hashes], np.uint64).view(np.int64)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "simhash": pa.array(signed, pa.int64())}
    )


def _both_paths(hashes: list[int], ids: list[int]) -> tuple[list, list]:
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        hash64_neardup_pairs,
        hash64_neardup_pairs_local,
    )

    tab = _table(hashes, ids)
    local = hash64_neardup_pairs_local(tab, max_hamming=K)
    assert local.schema.field("hamming").type == pa.int32()
    dist = hash64_neardup_pairs(
        ray.data.from_arrow(tab).repartition(4), max_hamming=K
    )
    return _rows(local), _rows(dist)


def _assert_once(rows: list) -> None:
    keys = [(a, b) for a, b, _ in rows]
    assert len(keys) == len(set(keys)), "a pair was emitted more than once"


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sf", [SF, SF01])
def test_pair_paths_match_reference_on_simhashes(sf):
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.dedup import simhash_batch

    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    sh = simhash_batch(docs)
    hashes = sh["simhash"].to_pylist()
    ids = sh["doc_id"].to_pylist()
    want = _reference_pairs(hashes, ids)
    assert want, "the corpus plants near-duplicate documents"
    local, dist = _both_paths(hashes, ids)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == want
    assert set(dist) == want


def _planted() -> tuple[list[int], list[int], dict]:
    """Random 64-bit hashes, half of them ≥ 2^63, plus pairs sharing
    exactly 1, 2, 3 and 4 bands (one flipped bit in each band they do
    not share, so Hamming 3, 2, 1, 0) and a pair at distance 4."""
    rng = np.random.default_rng(13)
    hashes = [int(h) for h in rng.integers(0, 2**64, 200, dtype=np.uint64)]
    planted = {}
    for shared in (1, 2, 3, 4):
        u = int(rng.integers(0, 2**64, dtype=np.uint64))
        v = u
        for b in range(4 - shared):
            v ^= 1 << (16 * (3 - b) + int(rng.integers(0, 16)))
        planted[shared] = (len(hashes), len(hashes) + 1)
        hashes += [u, v]
    u = int(rng.integers(0, 2**64, dtype=np.uint64))
    planted["d4"] = (len(hashes), len(hashes) + 1)
    hashes += [u, u ^ 0x0001_0001_0001_0001]
    ids = rng.permutation(np.arange(5000, 5000 + len(hashes))).tolist()
    return hashes, ids, planted


@pytest.mark.usefixtures("ray_session")
def test_pair_paths_emit_pairs_sharing_several_bands_once():
    hashes, ids, planted = _planted()
    assert any(h >= 2**63 for h in hashes) and any(h < 2**63 for h in hashes)
    want = _reference_pairs(hashes, ids)
    by_pair = {(a, b): d for a, b, d in want}
    for shared in (1, 2, 3, 4):
        i, j = planted[shared]
        assert len(set(_bands(hashes[i])) & set(_bands(hashes[j]))) == shared
        pair = tuple(sorted((ids[i], ids[j])))
        assert by_pair[pair] == 4 - shared
    i, j = planted["d4"]
    assert tuple(sorted((ids[i], ids[j]))) not in by_pair
    local, dist = _both_paths(hashes, ids)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == want
    assert set(dist) == want


@pytest.mark.usefixtures("ray_session")
def test_degenerate_runs_keep_the_reference_closure():
    """A class of identical hashes above ``_MAX_CLIQUE_RUN`` collapses
    to distance-0 stars; near hashes that share only some bands with
    it still join its cluster, and far ones stay out."""
    from crawler_ai_ray.stages.dedup import _MAX_CLIQUE_RUN

    hashes, ids, _ = _planted()
    rng = np.random.default_rng(17)
    cls = int(rng.integers(0, 2**64, dtype=np.uint64)) | (1 << 63)
    near = [cls ^ 1, cls ^ (1 << 20) ^ (1 << 40), cls ^ (1 << 63) ^ 2 ^ (1 << 17)]
    far = [cls ^ 0x0001_0001_0001_0001]
    extra = [cls] * (_MAX_CLIQUE_RUN + 44) + near + far
    hashes = hashes + extra
    ids = rng.permutation(np.arange(len(hashes)) * 3 + 7).tolist()
    want = _reference_pairs(hashes, ids)
    local, dist = _both_paths(hashes, ids)
    _assert_once(local)
    _assert_once(dist)
    assert set(local) == set(dist)
    assert set(local) <= want
    assert len(local) < len(want)  # the collapse engaged
    assert _closure(local, ids) == _closure(want, ids)
