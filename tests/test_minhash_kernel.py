"""MinHash LSH kernels against test-side references.

* ``minhash_sig_batch`` must equal ``minhash_signature`` stacked over
  the same texts, bit for bit: the per-doc function is the goldens'
  reference and the benchmark's same-code control.
* Both pair paths — the distributed band sweep and the driver-local
  twin — emit each pair once, and their pair set is every pair of docs
  that share at least one band hash with est ≥ τ (computed here with
  plain Python integers).  Above ``_MAX_CLIQUE_RUN`` the pair list may
  shrink but the closure must not change.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

from tests.test_training_ops import SF

SF01 = os.path.join(os.path.dirname(SF), "sf0.01")
TAU = 0.8
MASK64 = (1 << 64) - 1
WORDS = [
    "the", "job", "Apply", "NOW", "senior", "engineer", "Hà", "Nội",
    "Straße", "東京", "テスト", "😀", "İstanbul", "ǅemal", "x", "y",
]
SEPS = [" ", "  ", "\t", "\n", "\xa0", "\u2003", "\x85", "\u3000"]


def _stacked(texts: list, n: int = 3) -> np.ndarray:
    from crawler_ai_ray.stages.dedup import minhash_signature

    if not texts:
        return np.zeros((0, 128), np.int64)
    return np.stack([minhash_signature(t, n) for t in texts]).view(np.int64)


def _batch(texts: list, n: int = 3) -> np.ndarray:
    from crawler_ai_ray.stages.dedup import minhash_sig_batch

    ids = np.arange(len(texts), dtype=np.int64)[::-1].copy()
    out = minhash_sig_batch(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts, pa.string())}),
        n=n,
    )
    assert out.schema == pa.schema(
        [("doc_id", pa.int64()), ("sig", pa.list_(pa.int64(), 128))]
    )
    assert out["doc_id"].to_pylist() == ids.tolist()
    flat = out["sig"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(texts), 128)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_sig_batch_matches_stacked_signature_on_edge_texts(n):
    texts = [
        None,
        "",
        "one",
        "two words",
        "a b c",
        "a b c a b c a b c a b c",  # repeated shingles
        "same same same same same same",
        "Ünïcödé Straße ĐẶNG Việt 東京 テスト 😀 and more",
        "nb\xa0sp em\u2003sp nel\x85x tab\tnew\nline  two  spaces",
        "\u3000ideographic\u3000space words\u3000here ok",
        "UPPER lower Upper lOwEr UPPER lower",
        "İ ı ß ǅ Ω ω",
        "   leading and trailing   ",
    ]
    assert np.array_equal(_batch(texts, n), _stacked(texts, n))


def test_sig_batch_matches_stacked_signature_across_chunks():
    """Docs never split across the 2^17-shingle chunks: one doc above
    the cap is a chunk of its own, between small ones, and three
    60k-shingle docs fill two chunks."""
    big = " ".join(f"t{i}" for i in range((1 << 17) + 100))
    medium = [" ".join(f"m{k}_{i}" for i in range(60_000)) for k in range(3)]
    texts = ["small doc one here", big, "another small doc", *medium, None, big]
    assert np.array_equal(_batch(texts), _stacked(texts))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n_docs", [0, 1, 2, 57])
def test_sig_batch_matches_stacked_signature_on_random_corpora(seed, n_docs):
    rng = np.random.default_rng(seed * 100 + n_docs)
    texts = []
    for _ in range(n_docs):
        k = int(rng.integers(0, 120))
        if k == 0 and rng.random() < 0.5:
            texts.append(None)
            continue
        toks = [WORDS[i] for i in rng.integers(0, len(WORDS), size=k)]
        seps = [SEPS[i] for i in rng.integers(0, len(SEPS), size=k)]
        texts.append("".join(t + s for t, s in zip(toks, seps)))
    n = int(rng.integers(1, 4))
    assert np.array_equal(_batch(texts, n), _stacked(texts, n))


# -- pair sets ---------------------------------------------------------------


def _fnv_state(chunk) -> int:
    """FNV-1a state after folding ``chunk``, in Python integers."""
    h = 0xCBF29CE484222325
    for c in chunk:
        h = ((h ^ (int(c) & MASK64)) * 0x100000001B3) & MASK64
    return h


def _band_hashes_py(row) -> list[int]:
    return [_fnv_state(row[8 * b : 8 * b + 8]) >> 1 for b in range(16)]


def _reference_pairs(sigs: np.ndarray, ids: np.ndarray) -> set:
    """Every pair that shares at least one band hash with est ≥ τ,
    oriented (smaller id, larger id)."""
    buckets: dict = {}
    for r, row in enumerate(sigs):
        for b, h in enumerate(_band_hashes_py(row)):
            buckets.setdefault((b, h), []).append(r)
    cand = set()
    for rows in buckets.values():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                cand.add((rows[i], rows[j]))
    out = set()
    for i, j in cand:
        est = float((sigs[i] == sigs[j]).mean())
        if est >= TAU:
            a, b = sorted((int(ids[i]), int(ids[j])))
            out.add((a, b, est))
    return out


def _rows(t) -> list:
    if not isinstance(t, pa.Table):
        from crawler_ai_ray.stages import exchange

        blocks = exchange.blocks(t)
        t = pa.concat_tables(blocks) if blocks else pa.table(
            {"doc_a": [], "doc_b": [], "est_jaccard": []}
        )
    return list(
        zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist(), t["est_jaccard"].to_pylist())
    )


def _assert_no_duplicate_pairs(rows: list) -> None:
    keys = [(a, b) for a, b, _ in rows]
    assert len(keys) == len(set(keys)), "a pair was emitted more than once"


def _sig_table(sigs: np.ndarray, ids: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1), pa.int64()), 128
            ),
        }
    )


def _both_paths(sigs: np.ndarray, ids: np.ndarray) -> tuple[list, list]:
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _minhash_banding,
        _pairs_from_matrix,
        minhash_pairs_from_sigs,
    )

    local = _rows(_pairs_from_matrix(sigs, ids, _minhash_banding(TAU)))
    dist = _rows(
        minhash_pairs_from_sigs(
            ray.data.from_arrow(_sig_table(sigs, ids)).repartition(4), threshold=TAU
        )
    )
    return local, dist


def _constructed_sigs() -> tuple[np.ndarray, np.ndarray, dict]:
    """Random rows plus planted pairs: one sharing 15 bands, identical
    rows (all 16), a triple sharing different band subsets, a pair
    sharing bands only through a constructed FNV collision, and a
    near pair (est ≥ τ) that shares no band hash at all."""
    rng = np.random.default_rng(11)
    rows = list(rng.integers(0, 1 << 61, size=(40, 128), dtype=np.int64))
    u = rng.integers(0, 1 << 61, size=128, dtype=np.int64)
    planted = {}
    v = u.copy()
    v[3] ^= 1  # differs in band 0 only
    planted["15 bands"] = (len(rows), len(rows) + 1)
    rows += [u, v]
    planted["16 bands"] = (len(rows), len(rows) + 1)
    w = rng.integers(0, 1 << 61, size=128, dtype=np.int64)
    rows += [w, w.copy()]
    t0 = rng.integers(0, 1 << 61, size=128, dtype=np.int64)
    t1, t2 = t0.copy(), t0.copy()
    t1[[0, 9, 18, 27, 36, 45, 54, 63]] ^= 1  # bands 0..7 differ from t0
    t2[[64, 73, 82, 91, 100, 109, 118, 127]] ^= 1  # bands 8..15 differ from t0
    planted["triple"] = (len(rows), len(rows) + 1, len(rows) + 2)
    rows += [t0, t1, t2]
    # collision only: every band differs, band 5's hash collides
    c = rng.integers(0, 1 << 61, size=128, dtype=np.int64)
    d = c.copy()
    d[7::8] ^= 1
    d[47] = c[47]
    d[40] ^= 1
    h7c = _fnv_state(c[40:47])
    h7d = _fnv_state(d[40:47])
    d[47] = np.array((h7c ^ int(c[47]) ^ h7d) & MASK64, np.uint64).view(np.int64)
    planted["collision"] = (len(rows), len(rows) + 1)
    rows += [c, d]
    e = c.copy()
    e[7::8] ^= 2  # 16 differences: est 0.875, no band shared
    e[0] ^= 2
    planted["no band"] = (len(rows) - 2, len(rows))
    rows.append(e)
    sigs = np.stack(rows)
    ids = rng.permutation(np.arange(1000, 1000 + len(sigs), dtype=np.int64))
    return sigs, ids, planted


@pytest.mark.usefixtures("ray_session")
def test_pair_paths_match_reference_on_planted_documents():
    import pyarrow.parquet as pq
    import ray.data

    from crawler_ai_ray.stages.dedup import minhash_lsh_pairs, minhash_lsh_pairs_local

    tab = pq.read_table(f"{SF01}/documents.parquet", columns=["doc_id", "text"])
    ids = tab["doc_id"].to_numpy()
    want = _reference_pairs(_stacked(tab["text"].to_pylist()), ids)
    assert want, "the sf0.01 documents plant near-duplicate pairs"
    local = _rows(minhash_lsh_pairs_local(tab))
    dist = _rows(minhash_lsh_pairs(ray.data.from_arrow(tab).repartition(4)))
    _assert_no_duplicate_pairs(local)
    _assert_no_duplicate_pairs(dist)
    assert set(local) == want
    assert set(dist) == want


@pytest.mark.usefixtures("ray_session")
def test_pair_paths_emit_pairs_sharing_several_bands_once():
    sigs, ids, planted = _constructed_sigs()
    band_sets = [set(enumerate(_band_hashes_py(r))) for r in sigs]
    for name, n_shared in (("15 bands", 15), ("16 bands", 16), ("collision", 1)):
        i, j = planted[name]
        assert len(band_sets[i] & band_sets[j]) == n_shared, name
    i, j = planted["collision"]
    assert not any(
        np.array_equal(sigs[i, 8 * b : 8 * b + 8], sigs[j, 8 * b : 8 * b + 8])
        for b in range(16)
    )
    want = _reference_pairs(sigs, ids)
    got_ids = {(a, b) for a, b, _ in want}
    for name, rows in planted.items():
        pair = tuple(sorted(int(ids[r]) for r in rows[:2]))
        assert (pair in got_ids) == (name != "no band"), name
    local, dist = _both_paths(sigs, ids)
    _assert_no_duplicate_pairs(local)
    _assert_no_duplicate_pairs(dist)
    assert set(local) == want
    assert set(dist) == want


def _closure(pairs, ids) -> dict:
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, *_ in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in parent}


@pytest.mark.usefixtures("ray_session")
def test_degenerate_runs_keep_the_reference_closure():
    """Above ``_MAX_CLIQUE_RUN`` identical rows collapse to stars and
    the pair list shrinks; each pair still comes out once and the
    clusters equal those of the reference pair set."""
    from crawler_ai_ray.stages.dedup import _MAX_CLIQUE_RUN

    sigs, ids, _ = _constructed_sigs()
    rng = np.random.default_rng(5)
    cls = rng.integers(0, 1 << 61, size=128, dtype=np.int64)
    near = cls.copy()
    near[5] ^= 1  # shares bands 1..15 with the class
    far = cls.copy()
    far[[1, 10, 19]] ^= 1  # shares bands 3..15
    extra = np.stack([cls] * (_MAX_CLIQUE_RUN + 44) + [near, far])
    sigs = np.concatenate([sigs, extra])
    ids = rng.permutation(np.arange(len(sigs), dtype=np.int64) * 3 + 7)
    want = _reference_pairs(sigs, ids)
    local, dist = _both_paths(sigs, ids)
    _assert_no_duplicate_pairs(local)
    _assert_no_duplicate_pairs(dist)
    assert set(local) == set(dist)
    assert set(local) <= want
    assert _closure(local, ids) == _closure(want, ids)
