"""Corpus-scale deduplication stages over a ``documents``-style table.

Five dedup families, each expressed Ray-Data-first:

* **exact** — md5(text) hash → ``groupby(hash)`` keep min doc_id.  The
  reference's exact job dedup (job_extraction_service.py:658-673: key =
  lower(title)|lower(company), keep first) generalized to content hash.
* **n-gram Jaccard** — inverted-index join: doc → distinct word-3-grams
  → ``groupby(ngram)`` → co-occurring pairs → shared-count →
  ``jaccard = shared/(|A|+|B|-shared)`` ≥ τ.  Recall-complete (any pair
  sharing ≥1 surviving n-gram is considered), DuckDB-oracle-checkable.
  High-DF n-grams are dropped (df > max_df) — the standard scale guard
  against quadratic pair blowup on boilerplate.
* **MinHash + LSH** — shingle → 128-perm minhash signature → band
  buckets → candidate pairs → estimated Jaccard (matching sig fraction)
  ≥ τ.  The scale path: cost linear in docs + bucket collisions.
* **SimHash** — 64-bit simhash of token hashes; near-dup = Hamming ≤ k
  found via 4×16-bit band blocking (``hash64_neardup_pairs``, shared
  with the image / audio perceptual hashes).
* **embedding cosine** — near-dup pairs by cosine over an embedding
  column; anchors broadcast via ``ray.put``, batch matmul streaming,
  or random-hyperplane sign sketches (``embedding_neardup_lsh``).

The three banded families are one algorithm, and run as one: a
``_Banding`` spec (per-item integer band keys plus a per-run verify)
over the banded pair sweep — band rows sorted on the band key, one
``_bucket_pairs`` sweep per sorted block, each pair emitted once from
the lowest band its items share — or over the sweep's driver branch
``_pairs_from_matrix``.  No pair dedup or aggregate follows.

Plus the document-level **duplicated-span fraction** (``dup_span_stats``):
per-doc share of n-gram positions whose n-gram occurs in ≥2 documents
corpus-wide — the exact-substring duplication signal of Lee et al. 2022
(arXiv:2107.06499) at n-gram granularity.

Shuffle keys: content-hash / ngram-hash / band-hash — uniformly
distributed by construction, so these groupbys don't skew.  Pair
emission inside ``map_groups`` is bounded by max_df / bucket size, and
inside a banded run by ``_MAX_CLIQUE_RUN``.

All numeric verification uses integer counts and single divisions —
deterministic across the Ray engine and the DuckDB oracle.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import exchange

__all__ = [
    "md5_batch",
    "exact_dedup",
    "ngram_rows_batch",
    "ngram_pairs_jaccard",
    "ngram_pairs_containment",
    "bloom_membership",
    "minhash_sig_batch",
    "minhash_lsh_pairs",
    "minhash_pairs_from_sigs",
    "pair_labels",
    "simhash_batch",
    "simhash_neardup_pairs",
    "hash64_neardup_pairs",
    "incremental_dedup",
    "decontaminate",
    "dup_ngram_rows_batch",
    "dup_span_stats",
    "dup_span_removal",
    "winnow_neardup_pairs",
    "dup_span_rows_batch",
    "segment_rows_batch",
    "segment_dedup",
    "embedding_neardup_pairs",
    "embedding_neardup_lsh",
    "boilerplate_keys",
    "boilerplate_removal",
    "boilerplate_stats",
    "cdc_boundaries",
    "cdc_chunk_hashes",
    "cdc_dedup_stats",
    "ngram_novelty",
]


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def md5_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text_md5": pa.array(
                [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts],
                type=pa.string(),
            ),
        }
    )


def exact_dedup(ds):
    """documents → one row per distinct text: (text_md5, keep_doc_id,
    n_dups).  Hash-partitioned groupby; keep = min(doc_id) (the
    reference's keep-first rule with a deterministic total order)."""
    import ray.data

    hashed = ds.map_batches(md5_batch, batch_format="pyarrow")
    return hashed.groupby("text_md5").aggregate(
        ray.data.aggregate.Min("doc_id", alias_name="keep_doc_id"),
        ray.data.aggregate.Count(alias_name="n_dups"),
    )


# ---------------------------------------------------------------------------
# incremental dedup (new batch vs existing corpus)
# ---------------------------------------------------------------------------

_INC_SENTINEL = 1 << 62  # > any real doc_id; Min() ignores existing rows


def incremental_dedup(ds_existing, ds_incoming):
    """The incremental-ingest dedup a continuously-crawled training
    corpus needs: of an INCOMING batch of documents, keep one doc per
    distinct text (keep-first = min doc_id) and only if that text does
    NOT already exist in the EXISTING corpus → (text_md5, keep_doc_id,
    n_new).

    Plan (one shuffle, exact): tag each side, union, md5 the text, and
    hash-partition ``groupby(text_md5)`` with stock combiner aggregates
    — ``Sum(is_existing)`` (anti-join predicate) and ``Min(inc_id)``
    where existing rows carry a sentinel above every real doc_id, so a
    plain Min is the conditional keep-first.  Only 32-byte hashes +
    two ints travel through the shuffle, never text, and the md5 key is
    uniform so the exchange cannot skew.

    100 TB framing: the existing side should be the corpus's persisted
    hash manifest (doc_id, text_md5 — written by a previous
    ``exact_dedup`` run), not re-hashed raw text; when that manifest is
    stored hash-partitioned on ``text_md5`` prefix, the same groupby
    degenerates into per-partition local anti-joins with no re-shuffle
    of the existing side.  Generalizes the reference's seen-URL
    anti-join (SURVEY §2 J5) from URLs to content hashes."""
    import pyarrow.compute as pc
    import ray.data

    def prep(is_new: bool):
        def fn(batch: pa.Table) -> pa.Table:
            h = md5_batch(batch)
            ids = h["doc_id"]
            return pa.table(
                {
                    "text_md5": h["text_md5"],
                    "is_existing": pa.array(
                        np.full(len(ids), 0 if is_new else 1), type=pa.int64()
                    ),
                    "inc_id": ids
                    if is_new
                    else pa.array(
                        np.full(len(ids), _INC_SENTINEL), type=pa.int64()
                    ),
                    "is_new": pa.array(
                        np.full(len(ids), 1 if is_new else 0), type=pa.int64()
                    ),
                }
            )

        return fn

    tagged = ds_existing.map_batches(
        prep(False), batch_format="pyarrow"
    ).union(ds_incoming.map_batches(prep(True), batch_format="pyarrow"))
    agg = tagged.groupby("text_md5").aggregate(
        ray.data.aggregate.Sum("is_existing", alias_name="n_existing"),
        ray.data.aggregate.Min("inc_id", alias_name="keep_doc_id"),
        ray.data.aggregate.Sum("is_new", alias_name="n_new"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["n_existing"], 0),
            pc.less(batch["keep_doc_id"], _INC_SENTINEL),
        )
        return batch.filter(keep).select(["text_md5", "keep_doc_id", "n_new"])

    return agg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-filter membership (constant-memory seen-set sketch)
# ---------------------------------------------------------------------------

_BLOOM_DT = np.dtype([("a", "<u8"), ("b", "<u8")])


def _bloom_md5_u64s(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """md5(text) as two u64s: (upper = digest[0:8] LE, lower =
    digest[8:16] LE) — DuckDB ``md5_number_upper`` / ``md5_number_lower``
    semantics, so the oracle recomputes every bit position in SQL."""
    up = np.empty(len(texts), np.uint64)
    lo = np.empty(len(texts), np.uint64)
    for i, t in enumerate(texts):
        d = hashlib.md5((t or "").encode("utf-8")).digest()
        up[i] = int.from_bytes(d[:8], "little")
        lo[i] = int.from_bytes(d[8:], "little")
    return up, lo


def _bloom_positions(up: np.ndarray, lo: np.ndarray, m: int) -> np.ndarray:
    """k=4 bit positions per doc from the md5 halves: the four 32-bit
    words of the digest, each mod m — (n, 4) int64."""
    mask = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    mm = np.uint64(m)
    return np.stack(
        [
            ((up & mask) % mm).astype(np.int64),
            ((up >> s32) % mm).astype(np.int64),
            ((lo & mask) % mm).astype(np.int64),
            ((lo >> s32) % mm).astype(np.int64),
        ],
        axis=1,
    )


def bloom_membership(
    ds_ref,
    ds_probe,
    m_bits: int = 1 << 20,
    num_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Probe docs against a Bloom filter built from a reference corpus
    → (doc_id, in_bloom, exact_dup, false_positive) per probe doc.

    The constant-memory seen-set for incremental ingestion: an exact
    content-hash seen set costs O(corpus) state, the Bloom costs
    ``m_bits`` REGARDLESS of corpus size (Bloom 1970; k = 4 hash
    functions = the four 32-bit md5 words, deterministic and
    SQL-recomputable via ``md5_number_upper/lower``).

    Scale shape: the build is one streaming pass emitting one
    m/8-byte partial bitmap PER BLOCK (128 KiB at the default m —
    sketch-sized, NOT corpus-sized), OR-merged driver-side and
    broadcast once via ``ray.put``; the probe pass reads it zero-copy
    per task.  The ``exact_dup`` ground-truth column (what makes
    ``false_positive`` measurable) is the only shuffle: 16-byte md5
    keys — never text — exchange through md5-derived buckets and each
    bucket runs a vectorized structured-searchsorted membership.
    At 100 TB you'd drop the exact column and keep the zero-shuffle
    sketch path; it is included because false-positive accounting IS
    the operator's acceptance test.  Generalizes the reference's
    seen-URL set (SURVEY §2 ST1/J5) to constant memory.  SQL twin:
    ``oracle_sql()['doc_membership_bloom']``."""
    import ray

    m = int(m_bits)
    nbytes = (m + 7) // 8

    def ref_partial(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, np.uint8)
        if batch.num_rows:
            up, lo = _bloom_md5_u64s(batch[text_col].to_pylist())
            pos = _bloom_positions(up, lo, m).ravel()
            np.bitwise_or.at(
                bm,
                pos >> 3,
                (np.uint8(1) << (pos & 7).astype(np.uint8)),
            )
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    parts = exchange.blocks(
        ds_ref.map_batches(ref_partial, batch_format="pyarrow")
    )
    merged = np.zeros(nbytes, np.uint8)
    for t in parts:
        for raw in t["bm"].to_pylist():
            merged |= np.frombuffer(raw, np.uint8)
    bloom_ref = ray.put(merged)

    def ref_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            up = np.empty(0, np.uint64)
            lo = np.empty(0, np.uint64)
        else:
            up, lo = _bloom_md5_u64s(batch[text_col].to_pylist())
        return pa.table(
            {
                "doc_id": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "up": pa.array(up, pa.uint64()),
                "lo": pa.array(lo, pa.uint64()),
                "in_bloom": pa.array(np.zeros(n, bool), pa.bool_()),
                "kind": pa.array(np.zeros(n, np.int8), pa.int8()),
                "bucket": pa.array(
                    (up % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def probe_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "up": pa.array([], pa.uint64()),
                    "lo": pa.array([], pa.uint64()),
                    "in_bloom": pa.array([], pa.bool_()),
                    "kind": pa.array([], pa.int8()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        bm = ray.get(bloom_ref)
        up, lo = _bloom_md5_u64s(batch[text_col].to_pylist())
        pos = _bloom_positions(up, lo, m)
        bits = (bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & np.uint8(1)
        hit = bits.all(axis=1)
        return pa.table(
            {
                "doc_id": pc.cast(batch[id_col], pa.int64()),
                "up": pa.array(up, pa.uint64()),
                "lo": pa.array(lo, pa.uint64()),
                "in_bloom": pa.array(hit, pa.bool_()),
                "kind": pa.array(np.ones(n, np.int8), pa.int8()),
                "bucket": pa.array(
                    (up % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def mark(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        up = group["up"].to_numpy(zero_copy_only=False)
        lo = group["lo"].to_numpy(zero_copy_only=False)
        rmask = kind == 0
        pmask = ~rmask
        rkeys = np.empty(int(rmask.sum()), dtype=_BLOOM_DT)
        rkeys["a"], rkeys["b"] = up[rmask], lo[rmask]
        rkeys = np.sort(rkeys)
        pkeys = np.empty(int(pmask.sum()), dtype=_BLOOM_DT)
        pkeys["a"], pkeys["b"] = up[pmask], lo[pmask]
        exact = np.zeros(len(pkeys), bool)
        if len(rkeys) and len(pkeys):
            idx = np.searchsorted(rkeys, pkeys)
            ok = idx < len(rkeys)
            exact[ok] = (
                rkeys[np.minimum(idx[ok], len(rkeys) - 1)] == pkeys[ok]
            )
        in_bloom = group["in_bloom"].to_numpy(zero_copy_only=False)[pmask]
        return pa.table(
            {
                "doc_id": pa.array(
                    group["doc_id"].to_numpy(zero_copy_only=False)[pmask],
                    pa.int64(),
                ),
                "in_bloom": pa.array(in_bloom, pa.bool_()),
                "exact_dup": pa.array(exact, pa.bool_()),
                "false_positive": pa.array(in_bloom & ~exact, pa.bool_()),
            }
        )

    tagged = ds_ref.map_batches(ref_rows, batch_format="pyarrow").union(
        ds_probe.map_batches(probe_rows, batch_format="pyarrow")
    )
    return tagged.groupby("bucket").map_groups(mark, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# n-gram Jaccard (inverted-index join)
# ---------------------------------------------------------------------------

def md5_lower64(data: bytes) -> int:
    """md5 digest[8:16] little-endian unsigned int64 — EXACTLY DuckDB's
    ``md5_number_lower``.  The single pinned spelling of the SQL-parity
    hash convention; every operator whose oracle groups/compares by
    ``md5_number_lower(x)`` must hash through this helper (a divergent
    inline copy would only be caught downstream by a driver hash
    mismatch)."""
    return int.from_bytes(
        hashlib.md5(data).digest()[8:], "little", signed=False
    )


def _doc_ngrams(text: str, n: int) -> set[str]:
    # TOKENIZATION CONVENTION (shared with every SQL oracle that uses
    # RE2 ``\S+``): Python ``str.split()`` splits on Unicode whitespace
    # while DuckDB/RE2 ``\S`` only treats ``[\t\n\f\r ]`` as whitespace
    # (measured on this box: U+00A0/U+2028/U+3000/\x0b/\x1c all split
    # Python-side only).  The two agree exactly BECAUSE the corpus
    # contains none of those divergent characters — an invariant pinned
    # by tests/test_corpus_invariants.py::test_no_divergent_whitespace;
    # a corpus change that introduces them must bump CORPUS_VERSION and
    # normalize here.
    toks = (text or "").lower().split()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_rows_batch(batch: pa.Table, n: int = 3, text_col: str = "text") -> pa.Table:
    """doc → distinct (doc_id, ngram) rows + per-doc set size."""
    ids = batch["doc_id"].to_pylist()
    texts = batch[text_col].to_pylist()
    out_id, out_ng, out_sz = [], [], []
    for i, t in zip(ids, texts):
        ngs = _doc_ngrams(t, n)
        out_id.extend([i] * len(ngs))
        out_ng.extend(sorted(ngs))  # sorted → deterministic row order
        out_sz.extend([len(ngs)] * len(ngs))
    return pa.table(
        {
            "doc_id": pa.array(out_id, type=pa.int64()),
            "ngram": pa.array(out_ng, type=pa.string()),
            "set_size": pa.array(out_sz, type=pa.int64()),
        }
    )


def decontaminate(docs_ds, eval_ds, n: int = 3, text_col: str = "text"):
    """Benchmark decontamination — the pre-training hygiene pass that
    flags corpus docs overlapping an evaluation set: → (doc_id,
    n_ngrams, n_shared, contaminated) for every NON-eval doc with ≥1
    n-gram, where ``contaminated ⇔ 2·n_shared > n_ngrams`` (integer-
    exact majority-overlap rule).

    Scale shape: an eval/benchmark set is small BY NATURE (thousands of
    docs), so its distinct n-gram set is collected once and broadcast
    via ``ray.put`` (zero-copy plasma share); the corpus side is one
    streaming ``map_batches`` doing a C-speed set intersection per doc
    — no shuffle at all.  Strings (not hashes) are compared so the
    DuckDB oracle's string-equality join reproduces counts exactly.
    Generalizes the seen-URL anti-join (SURVEY §2 J5) to n-gram
    evidence against a reference set."""
    import ray

    def eval_ngrams(batch: pa.Table) -> pa.Table:
        ngs: set[str] = set()
        for t in batch[text_col].to_pylist():
            ngs |= _doc_ngrams(t, n)
        return pa.table({"ngram": pa.array(sorted(ngs), pa.string())})

    ev_parts = exchange.blocks(
        eval_ds.map_batches(eval_ngrams, batch_format="pyarrow")
    )
    ev_set = frozenset(
        x for t in ev_parts for x in t["ngram"].to_pylist()
    )
    ev_ref = ray.put(ev_set)

    def flag(batch: pa.Table) -> pa.Table:
        ev = ray.get(ev_ref)
        ids, sizes, shared = [], [], []
        for i, t in zip(
            batch["doc_id"].to_pylist(), batch[text_col].to_pylist()
        ):
            ngs = _doc_ngrams(t, n)
            if not ngs:
                continue  # no n-grams → outside the comparison domain
            ids.append(i)
            sizes.append(len(ngs))
            shared.append(len(ngs & ev))
        sz = np.array(sizes, dtype=np.int64)
        sh = np.array(shared, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_ngrams": pa.array(sz, pa.int64()),
                "n_shared": pa.array(sh, pa.int64()),
                "contaminated": pa.array(2 * sh > sz, pa.bool_()),
            }
        )

    return docs_ds.map_batches(flag, batch_format="pyarrow")


def _ngram_shared_counts(
    ds,
    n: int = 3,
    max_df: int = 50,
    text_col: str = "text",
):
    """documents → per-pair shared-n-gram counts (doc_a, doc_b, shared,
    size_a, size_b) — the inverted-index core shared by the Jaccard and
    containment near-dup operators (only the final score differs)."""
    import ray.data
    import pyarrow.compute as pc

    # coalesce BEFORE the ~2000× ngram row explosion: the doc rows are
    # tiny, and Ray's sort cost grows with input block count (measured
    # 0.35 s for 1 block vs 3 s for 64 blocks on the same 2.5M rows) —
    # so bound the expanded block count at the cheap side of the map
    rows = ds.repartition(32).map_batches(
        lambda b: ngram_rows_batch(b, n=n, text_col=text_col),
        batch_format="pyarrow",
    )

    # Two shuffle-volume tricks (measured 17.7 s → ~3 s at sf0.1):
    # * per-ngram map_groups would make one Python call per distinct
    #   ngram (millions) — key on a HASH BUCKET instead, so each call
    #   sweeps thousands of posting lists locally;
    # * the ngram STRING never enters the shuffle — rows carry only its
    #   64-bit polynomial hash (ints sort ~7× faster here; a cross-doc
    #   hash collision merging two distinct ngrams has probability
    #   ~1e-7 at 10^6 ngrams and would only perturb one `shared` count).
    n_buckets = 512

    def add_bucket(batch: pa.Table) -> pa.Table:
        hashes = np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(
                        g.encode("utf-8"), digest_size=8
                    ).digest(),
                    "little",
                )
                for g in batch["ngram"].to_pylist()
            ],
            dtype=np.uint64,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "set_size": batch["set_size"],
                "ngram_h": pa.array(hashes, pa.uint64()),
                "bucket": pa.array(
                    (hashes % n_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def bucket_to_pairs(group: pa.Table) -> pa.Table:
        rows_l = sorted(
            zip(
                group["ngram_h"].to_pylist(),
                group["doc_id"].to_pylist(),
                group["set_size"].to_pylist(),
            )
        )
        a_ids, b_ids, a_sz, b_sz = [], [], [], []
        i = 0
        while i < len(rows_l):
            j = i
            while j < len(rows_l) and rows_l[j][0] == rows_l[i][0]:
                j += 1
            if j - i <= max_df:  # df cap: drop boilerplate n-grams
                for x in range(i, j):
                    for y in range(x + 1, j):
                        a_ids.append(rows_l[x][1])
                        b_ids.append(rows_l[y][1])
                        a_sz.append(rows_l[x][2])
                        b_sz.append(rows_l[y][2])
            i = j
        return pa.table(
            {
                "doc_a": pa.array(a_ids, type=pa.int64()),
                "doc_b": pa.array(b_ids, type=pa.int64()),
                "size_a": pa.array(a_sz, type=pa.int64()),
                "size_b": pa.array(b_sz, type=pa.int64()),
            }
        )

    pairs = (
        rows.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_to_pairs, batch_format="pyarrow")
    )

    # shared-count per (doc_a, doc_b).  Ray's groupby().aggregate() does
    # per-group Python work — ~21 s for 1.1M distinct pairs at sf0.1 —
    # so group by a pair-hash bucket and run Arrow's C++ hash aggregate
    # inside each group (same result, ~20× faster).
    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (a * np.uint64(1000003)) ^ b
        return batch.append_column(
            "pbucket",
            pa.array((h % np.uint64(n_buckets)).astype(np.int32), pa.int32()),
        )

    def combine_pairs(group: pa.Table) -> pa.Table:
        agg = group.group_by(["doc_a", "doc_b"]).aggregate(
            [("doc_a", "count"), ("size_a", "min"), ("size_b", "min")]
        )
        return pa.table(
            {
                "doc_a": agg["doc_a"],
                "doc_b": agg["doc_b"],
                "shared": pc.cast(agg["doc_a_count"], pa.int64()),
                "size_a": agg["size_a_min"],
                "size_b": agg["size_b_min"],
            }
        )

    return (
        pairs.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(combine_pairs, batch_format="pyarrow")
    )


def ngram_pairs_jaccard(
    ds,
    n: int = 3,
    threshold: float = 0.8,
    max_df: int = 50,
    text_col: str = "text",
):
    """documents → near-dup pairs (doc_a, doc_b, shared, jaccard ≥ τ).

    Plan: ngram rows → groupby(ngram) postings → df-cap → pair emission
    → groupby(pair) shared-count → jaccard filter.  Equivalent SQL in
    ``__ray_entry__.oracle_sql()['doc_neardup_ngram']``."""
    import pyarrow.compute as pc

    shared = _ngram_shared_counts(ds, n=n, max_df=max_df, text_col=text_col)

    def finish(batch: pa.Table) -> pa.Table:
        union = pc.subtract(
            pc.add(batch["size_a"], batch["size_b"]), batch["shared"]
        )
        j = pc.divide(
            pc.cast(batch["shared"], pa.float64()),
            pc.cast(union, pa.float64()),
        )
        batch = batch.append_column("jaccard", j)
        return batch.filter(pc.greater_equal(j, threshold)).select(
            ["doc_a", "doc_b", "shared", "jaccard"]
        )

    return shared.map_batches(finish, batch_format="pyarrow")


def ngram_pairs_containment(
    ds,
    n: int = 3,
    threshold: float = 0.9,
    max_df: int = 50,
    text_col: str = "text",
):
    """documents → containment pairs (doc_a, doc_b, shared,
    containment ≥ τ): ASYMMETRIC near-dup detection — containment =
    shared / min(|A|, |B|) flags a short doc embedded in a longer one
    (quotes, partial mirrors, article + wrapper pages) that symmetric
    Jaccard misses because the union is dominated by the longer side
    (Broder 1997's containment coefficient, max over both directions).

    Shares the full inverted-index plan with ``ngram_pairs_jaccard``
    (ngram rows → hash-bucket postings → df-cap → pair emission →
    pair-bucket shared counts); only the final single-division score
    differs.  SQL twin in ``oracle_sql()['doc_neardup_contain']``."""
    import pyarrow.compute as pc

    shared = _ngram_shared_counts(ds, n=n, max_df=max_df, text_col=text_col)

    def finish(batch: pa.Table) -> pa.Table:
        smaller = pc.min_element_wise(batch["size_a"], batch["size_b"])
        c = pc.divide(
            pc.cast(batch["shared"], pa.float64()),
            pc.cast(smaller, pa.float64()),
        )
        batch = batch.append_column("containment", c)
        return batch.filter(pc.greater_equal(c, threshold)).select(
            ["doc_a", "doc_b", "shared", "containment"]
        )

    return shared.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)
_N_PERM = 128
_N_BANDS = 16          # 16 bands × 8 rows
_ROWS_PER_BAND = _N_PERM // _N_BANDS


def _perm_params(seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=_N_PERM, dtype=np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=_N_PERM, dtype=np.uint64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


def _mod_m61_inplace(x: np.ndarray) -> np.ndarray:
    """``x % _MERSENNE`` for uint64 ``x`` via Mersenne shift-add fold —
    bit-identical to the hardware ``%`` (both compute x mod 2⁶¹−1) but
    ~5× faster: uint64 division is ~30 cycles/elem, the fold is 4 cheap
    ops.  ``x < 2⁶⁴`` ⇒ ``(x>>61) + (x&M) < M + 8`` ⇒ one conditional
    subtract completes the reduction.  Mutates and returns ``x``."""
    hi = x >> np.uint64(61)
    x &= _MERSENNE
    x += hi
    x -= _MERSENNE * (x >= _MERSENNE).astype(np.uint64)
    return x


def _shingle_hashes(text: str, n: int) -> np.ndarray:
    toks = (text or "").lower().split()
    if len(toks) < n:
        return np.zeros(0, dtype=np.uint64)
    hs = {
        int.from_bytes(
            hashlib.blake2b(
                " ".join(toks[i : i + n]).encode("utf-8"), digest_size=8
            ).digest(),
            "little",
        )
        for i in range(len(toks) - n + 1)
    }
    return np.fromiter(hs, dtype=np.uint64, count=len(hs))


def minhash_signature(text: str, n: int = 3) -> np.ndarray:
    """128-component minhash signature (uint64)."""
    base = _shingle_hashes(text, n)
    if base.size == 0:
        return np.full(_N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # (perm, shingle): (a*x + b) mod M61 — wraparound mul then mod
        prod = _PERM_A[:, None] * base[None, :] + _PERM_B[:, None]
        vals = _mod_m61_inplace(prod)
    return vals.min(axis=1)


def minhash_sig_batch(
    batch: pa.Table, n: int = 3, text_col: str = "text"
) -> pa.Table:
    """Batch ``minhash_signature``, bit-identical to stacking it per doc
    (for shingle length ``n`` ≥ 1).

    Each doc's distinct shingle strings go through one C-level
    pipeline (``set`` of joined token windows → ``encode`` → 8-byte
    blake2b → ``digest``, then ``b"".join``), so a doc costs a few
    Python calls however many shingles it has; the little-endian bytes
    read back as the same uint64 values ``_shingle_hashes`` builds with
    ``int.from_bytes`` (hashing distinct strings instead of keeping
    distinct hashes can only repeat a value, which a minimum ignores).

    Then, per chunk of docs, the permutations run one at a time over
    the chunk's concatenated shingle vector: the wraparound
    ``a·x + b``, the M61 fold, the last conditional subtract as
    ``min(v, v − M)`` (``v − M`` wraps above ``v`` when ``v < M``) and
    ``np.minimum.reduceat`` at the doc starts — the same per-element
    math as ``minhash_signature``.  A chunk holds at most 2^17 shingles
    (docs never split; one larger doc is a chunk of its own), so the
    two reused scratch vectors are 1 MiB each and stay cache-resident.
    Broadcasting all 128 permutations as one (128, chunk) matrix
    streams that matrix through memory once per operation: on a
    160-page block (4-vCPU VM, one process) the arithmetic took
    ~0.14 s that way and ~0.03 s as this row loop, and the 8-byte
    blake2b calls (~0.1 s) are now most of the kernel.
    """
    ids = batch["doc_id"].to_pylist()
    texts = batch[text_col].to_pylist()
    blake = functools.partial(hashlib.blake2b, digest_size=8)
    digest = operator.methodcaller("digest")
    hashed = []
    for t in texts:
        toks = (t or "").lower().split()
        grams = set(map(" ".join, zip(*[toks[k:] for k in range(n)])))
        hashed.append(b"".join(map(digest, map(blake, map(str.encode, grams)))))
    sizes = np.array([len(h) >> 3 for h in hashed], dtype=np.int64)
    sig_mat = np.full(
        (len(texts), _N_PERM), np.iinfo(np.uint64).max, dtype=np.uint64
    )
    nz = np.flatnonzero(sizes)
    chunk_cap = 1 << 17
    v = np.empty(min(chunk_cap, int(sizes.sum())), dtype=np.uint64)
    w = np.empty_like(v)
    pos = 0
    while pos < nz.size:
        end, tot = pos, 0
        while end < nz.size and (tot == 0 or tot + sizes[nz[end]] <= chunk_cap):
            tot += sizes[nz[end]]
            end += 1
        sel = nz[pos:end]
        x = np.frombuffer(b"".join([hashed[i] for i in sel]), dtype="<u8")
        if x.size > v.size:  # one doc above the cap
            v = np.empty(x.size, dtype=np.uint64)
            w = np.empty_like(v)
        vv, ww = v[: x.size], w[: x.size]
        starts = np.zeros(sel.size, dtype=np.int64)
        np.cumsum(sizes[sel[:-1]], out=starts[1:])
        out = np.empty((_N_PERM, sel.size), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(_N_PERM):
                np.multiply(x, _PERM_A[p], out=vv)
                vv += _PERM_B[p]
                np.right_shift(vv, np.uint64(61), out=ww)
                vv &= _MERSENNE
                vv += ww
                np.subtract(vv, _MERSENNE, out=ww)
                np.minimum(vv, ww, out=vv)
                np.minimum.reduceat(vv, starts, out=out[p])
        sig_mat[sel] = out.T
        pos = end
    sig_col = pa.FixedSizeListArray.from_arrays(
        pa.array(sig_mat.view(np.int64).reshape(-1), pa.int64()), _N_PERM
    )
    return pa.table(
        {"doc_id": pa.array(ids, type=pa.int64()), "sig": sig_col}
    )


def _band_hashes(mat: np.ndarray) -> np.ndarray:
    """(n, 8·k) signature matrix → (n, k) int64 hashes of its k bands:
    an FNV-1a fold over each band's 8 components (numpy wraparound
    mul/xor across all n×k bands at once), shifted into int64's
    non-negative range.  The hash function choice is free: equal
    chunks collide under ANY hash (no true candidate is ever lost),
    unequal chunks collide with p≈2⁻⁶³ and a false candidate must
    still pass the est≥τ verify."""
    n, width = mat.shape
    chunks = np.ascontiguousarray(mat).view(np.uint64).reshape(
        n, width // _ROWS_PER_BAND, _ROWS_PER_BAND
    )
    with np.errstate(over="ignore"):
        h = np.full(chunks.shape[:2], np.uint64(0xCBF29CE484222325), np.uint64)
        for r in range(_ROWS_PER_BAND):
            h = (h ^ chunks[:, :, r]) * np.uint64(0x100000001B3)
    return (h >> np.uint64(1)).astype(np.int64)


def _jaccard_verify(mat, x, y, threshold: float):
    est = (mat[x] == mat[y]).mean(axis=1)
    return est >= threshold, est


_JACCARD_OUT = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("est_jaccard", pa.float64())]
)


def _minhash_banding(threshold: float) -> _Banding:
    """MinHash on the banded sweep: 16 FNV band hashes of the 128-wide
    signature, verified by the matching-component fraction ≥ τ."""
    return _Banding(
        _band_hashes,
        functools.partial(_jaccard_verify, threshold=threshold),
        _JACCARD_OUT,
    )


def minhash_lsh_pairs(ds, n: int = 3, threshold: float = 0.8, text_col: str = "text"):
    """documents → near-dup pairs (doc_a, doc_b, est_jaccard ≥ τ).

    est_jaccard = fraction of matching signature components — verified
    inside the band sweep (sigs travel with the band rows, so no second
    pass over text).  Each pair is emitted once, from the lowest band
    its two docs share (``_run_pairs``), so no pair dedup follows."""
    sigs = ds.map_batches(
        lambda b: minhash_sig_batch(b, n=n, text_col=text_col),
        batch_format="pyarrow",
    )
    return minhash_pairs_from_sigs(sigs, threshold=threshold)


def minhash_lsh_pairs_local(
    tab: pa.Table, n: int = 3, threshold: float = 0.8,
    text_col: str = "text",
) -> pa.Table:
    """Driver-local ``minhash_lsh_pairs`` over an in-memory table — the
    same signature kernel (``minhash_sig_batch``) and the driver branch
    of the banded sweep (``_pairs_from_matrix``), so the output matches
    the distributed path exactly (pinned by the path-agreement test).
    Small-input branch of the adaptive split (house rule: a Ray
    pipeline costs ~1-2 s fixed in shuffle/startup constants; below
    ~20k docs the whole input is a couple of MB and real compute is
    ~0.3 s, so ANY distributed plan is pure overhead)."""
    sigs = minhash_sig_batch(tab, n=n, text_col=text_col)
    return _pairs_from_matrix(
        _sig_matrix(sigs["sig"]),
        sigs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        _minhash_banding(threshold),
    )


def minhash_pairs_from_sigs(sigs, threshold: float = 0.8):
    """(doc_id, sig) dataset → lazy near-dup pairs dataset.  Split out
    of ``minhash_lsh_pairs`` so pipelines that already carry signatures
    (e.g. the curation chain's stage-1 checkpoint) skip re-shingling
    the text."""
    return _banded_pairs(sigs, _minhash_banding(threshold))


# ---------------------------------------------------------------------------
# The banded pair sweep: MinHash, 64-bit Hamming and embedding LSH
# ---------------------------------------------------------------------------

class _Banding(NamedTuple):
    """One near-dup family on the banded pair sweep.

    Items travel as ``(doc_id, sig)`` rows, ``sig`` a fixed-width int64
    payload: a MinHash signature, a 64-bit hash, or an embedding's
    band sketches followed by its unit vector's float64 bits.

    * ``keys(mat)``: payload rows ``(n, w)`` → ``(n, n_bands)`` int64
      band keys, integer-exact functions of the payload, so the
      lowest-shared-band check sees exactly the keys that routed a row.
    * ``verify(mat, x, y)``: a run's payload rows (sorted by doc_id)
      and its candidate pairs ``x < y`` → (keep mask, output value).
    * ``out``: the (id a, id b, value) output schema."""

    keys: Callable[[np.ndarray], np.ndarray]
    verify: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    out: pa.Schema


def _sig_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """FixedSizeList<int64>[w] column → (n, w) int64 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), col.type.list_size)


def _fsl(mat: np.ndarray) -> pa.FixedSizeListArray:
    """(n, w) int64 matrix → FixedSizeList<int64>[w] column."""
    return pa.FixedSizeListArray.from_arrays(
        pa.array(mat.reshape(-1), pa.int64()), mat.shape[1]
    )


def _items(ids: np.ndarray, mat: np.ndarray) -> pa.Table:
    """ids and their (n, w) int64 payload rows → ``(doc_id, sig)``."""
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "sig": _fsl(mat)})


def _band_rows(batch: pa.Table, spec: _Banding) -> pa.Table:
    """``(doc_id, sig)`` items → (band, band_hash, doc_id, sig) LSH
    rows, one per band: keys from ``spec.keys`` and the payload
    repeated per band (the shuffle carries it to the verify), all as
    whole-matrix numpy ops."""
    mat = _sig_matrix(batch["sig"])
    keys = spec.keys(mat)
    n, n_bands = keys.shape
    return pa.table(
        {
            "band": pa.array(
                np.tile(np.arange(n_bands, dtype=np.int32), n), pa.int32()
            ),
            "band_hash": pa.array(keys.reshape(-1), pa.int64()),
            "doc_id": pa.array(
                np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), n_bands),
                pa.int64(),
            ),
            "sig": _fsl(np.repeat(mat, n_bands, axis=0)),
        }
    )


# A (band, band_hash) run of k identical items is a k² triu sweep in ONE
# task — at 100 TB a boilerplate page class makes k huge.  Above this
# run length the sweep collapses identical-payload classes (see
# ``_run_pairs``); the cap sits above any oracle-compared corpus and
# dedicated fuzz tests pin the degenerate path.
_MAX_CLIQUE_RUN = 256


def _clique_pairs(
    did: np.ndarray, mat: np.ndarray, band: int, spec: _Banding
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verified triu over one run's rows (sorted by doc_id) in ``band``,
    keeping a pair only if ``band`` is the lowest band whose key its
    two items share.  Lower keys are recomputed from the payloads, not
    compared as chunks, so a pair whose only shared band is a hash
    collision still comes out exactly once."""
    x, y = np.triu_indices(len(did), k=1)
    keep = did[x] != did[y]
    x, y = x[keep], y[keep]
    hit, val = spec.verify(mat, x, y)
    x, y, val = x[hit], y[hit], val[hit]
    if band and x.size:
        lower = spec.keys(mat)[:, :band]
        own = (lower[x] != lower[y]).all(axis=1)
        x, y, val = x[own], y[own], val[own]
    return did[x], did[y], val


def _run_pairs(
    run_did: np.ndarray, run_mat: np.ndarray, band: int, spec: _Banding
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (band, band_hash) run (rows sorted by doc_id) → verified
    (id a, id b, value) arrays, each pair only from the lowest band its
    items share, so a pair sharing several bands is emitted once.  Full
    triu clique up to ``_MAX_CLIQUE_RUN`` rows.

    Above it, identical-payload classes collapse: star edges (min-id
    canonical → member, valued as a pair of identical payloads) inside
    each class plus a verified triu over the class REPRESENTATIVES.
    Identical payloads share every band key, so stars come from band 0
    only.  The pair LIST shrinks (no full cliques) but the CLOSURE (the
    union-find clusters) stays that of every verified pair sharing a
    band key.  A class shares every band key, so a run holding an item
    holds its whole class, and the class minimum is its representative
    in every run.  Take a verified pair (u, v) and its lowest shared
    band b*: in b* it is a clique pair, or the run emits the pair of
    u's and v's representatives — the same value, since the verify
    depends only on the two payloads, and the same lowest shared band —
    while u and v reach their representatives through their class's
    band-0 clique or stars."""
    r = len(run_did)
    if r <= _MAX_CLIQUE_RUN:
        return _clique_pairs(run_did, run_mat, band, spec)
    # degenerate run: O(r log r) class grouping instead of O(r²) pairs
    uniq, inv = np.unique(run_mat, axis=0, return_inverse=True)
    cls = np.arange(len(uniq))
    same, same_val = spec.verify(uniq, cls, cls)
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    order = np.lexsort((run_did, inv))
    inv_s, did_s = inv[order], run_did[order]
    new = np.empty(r, dtype=bool)
    new[0] = True
    np.not_equal(inv_s[1:], inv_s[:-1], out=new[1:])
    starts = np.append(np.flatnonzero(new), r)
    rep_did = np.empty(len(uniq), dtype=np.int64)
    for p, q in zip(starts[:-1], starts[1:]):
        c = inv_s[p]
        members = np.unique(did_s[p:q])
        rep_did[c] = members[0]
        if band == 0 and len(members) > 1 and same[c]:
            a_parts.append(np.full(len(members) - 1, members[0], np.int64))
            b_parts.append(members[1:].astype(np.int64))
            v_parts.append(np.repeat(same_val[c : c + 1], len(members) - 1))
    # verified sweep over class representatives (if even the DISTINCT-
    # payload count is oversized the collapse has done all it can)
    ro = np.argsort(rep_did)
    ra, rb, rv = _clique_pairs(rep_did[ro], uniq[ro], band, spec)
    return (
        np.concatenate(a_parts + [ra]),
        np.concatenate(b_parts + [rb]),
        np.concatenate(v_parts + [rv]),
    )


def _sweep_runs(
    band: np.ndarray, bh: np.ndarray, did: np.ndarray, row: np.ndarray,
    mat: np.ndarray, spec: _Banding,
) -> pa.Table:
    """Band rows (band, band_hash, doc_id, row of the item's payload in
    ``mat``) → verified near-dup pairs, one ``_run_pairs`` per sorted
    (band, band_hash) run of two or more rows.  Exact on any set of
    rows that holds each of its runs whole."""
    order = np.lexsort((did, bh, band))
    band, bh, did, row = band[order], bh[order], did[order], row[order]
    new = np.ones(len(band), dtype=bool)
    new[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    starts = np.append(np.flatnonzero(new), len(band))
    vt = spec.out.field(2).type
    z = np.zeros(0, np.int64)
    parts = [(z, z, np.zeros(0, vt.to_pandas_dtype()))]
    for k in np.flatnonzero(np.diff(starts) > 1):
        i, j = starts[k], starts[k + 1]
        parts.append(_run_pairs(did[i:j], mat[row[i:j]], int(band[i]), spec))
    a, b, v = (np.concatenate(c) for c in zip(*parts))
    names = spec.out.names
    return pa.table(
        {
            names[0]: pa.array(a, pa.int64()),
            names[1]: pa.array(b, pa.int64()),
            names[2]: pa.array(v, vt),
        }
    )


def _bucket_pairs(group: pa.Table, spec: _Banding) -> pa.Table:
    """(band, band_hash, doc_id, sig) rows → verified near-dup pairs:
    one call per sorted block of the distributed sweep, which holds
    every run whose band_hash it holds."""
    if group.num_rows == 0:  # Ray's schema-less empty blocks
        return spec.out.empty_table()
    return _sweep_runs(
        group["band"].to_numpy(zero_copy_only=False),
        group["band_hash"].to_numpy(zero_copy_only=False),
        group["doc_id"].to_numpy(zero_copy_only=False),
        np.arange(group.num_rows),
        _sig_matrix(group["sig"]),
        spec,
    )


def _banded_pairs(items, spec: _Banding):
    """``(doc_id, sig)`` items dataset → lazy verified pairs dataset,
    the distributed branch of the sweep.

    The band rows sort on ``band_hash``: Ray's sort range-partitions on
    the key, so all rows of a (band, band_hash) run land in one sorted
    block (the property ``groupby().map_groups`` itself rests on), and
    ``_bucket_pairs`` sweeps each block in ONE call.  Each pair comes
    out of one band only, so no pair dedup or aggregate follows."""
    return (
        items.map_batches(
            functools.partial(_band_rows, spec=spec), batch_format="pyarrow"
        )
        .sort("band_hash")
        .map_batches(
            functools.partial(_bucket_pairs, spec=spec),
            batch_size=None,
            batch_format="pyarrow",
        )
    )


def _pairs_from_matrix(
    mat: np.ndarray, did: np.ndarray, spec: _Banding
) -> pa.Table:
    """(n, w) payload matrix → verified near-dup pairs, the driver
    branch of the sweep: the distributed path must carry a payload copy
    in every band row (the shuffle needs it), but here the runs index
    the ORIGINAL matrix through each band row's item index.  Same keys,
    same runs, same ``_run_pairs`` and so the same pairs, each once, as
    ``_banded_pairs`` — the path-agreement tests pin it."""
    keys = spec.keys(mat)
    n, n_bands = keys.shape
    idx = np.repeat(np.arange(n, dtype=np.int64), n_bands)
    return _sweep_runs(
        np.tile(np.arange(n_bands, dtype=np.int32), n),
        keys.reshape(-1),  # item-major, like idx
        did[idx],
        idx,
        mat,
        spec,
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit simhash over whitespace tokens (blake2b token hashes)."""
    toks = (text or "").lower().split()
    if not toks:
        return 0
    hs = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            for t in toks
        ),
        dtype=np.uint64,
        count=len(toks),
    )
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    votes = bits.sum(axis=0) * 2 - len(toks)
    return int(
        np.bitwise_or.reduce(
            (votes >= 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
        )
    )


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(
                [np.uint64(simhash64(t)).astype(np.int64).item() for t in texts],
                type=pa.int64(),
            ),
        }
    )


def simhash_neardup_pairs(ds, max_hamming: int = 3, text_col: str = "text"):
    """documents → pairs with simhash Hamming distance ≤ k, blocked on
    4×16-bit bands (any pair within distance 3 shares ≥1 exact band)."""
    hashed = ds.map_batches(
        lambda b: simhash_batch(b, text_col=text_col), batch_format="pyarrow"
    )
    return hash64_neardup_pairs(hashed, max_hamming=max_hamming)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy 1.x has no
    ``bitwise_count``): unpack the bytes, sum bits."""
    return np.unpackbits(
        x.view(np.uint8).reshape(-1, 8), axis=1
    ).sum(axis=1, dtype=np.int32)


_HASH64_SHIFTS = np.arange(0, 64, 16, dtype=np.uint64)
_HASH64_BANDS = np.arange(4, dtype=np.int64) << 16


def _hash64_keys(mat: np.ndarray) -> np.ndarray:
    """(n, 1) 64-bit hashes → (n, 4) keys ``band·2¹⁶ + 16-bit chunk``."""
    u = mat[:, :1].view(np.uint64)
    return ((u >> _HASH64_SHIFTS) & np.uint64(0xFFFF)).astype(np.int64) | _HASH64_BANDS


def _hamming_verify(mat, x, y, max_hamming: int):
    u = mat[:, 0].view(np.uint64)
    d = _popcount64(u[x] ^ u[y])
    return d <= max_hamming, d


def _hash64_banding(max_hamming: int) -> _Banding:
    """64-bit hashes on the banded sweep: 4×16-bit bands, verified by
    popcount Hamming ≤ k."""
    return _Banding(
        _hash64_keys,
        functools.partial(_hamming_verify, max_hamming=max_hamming),
        pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int32())]
        ),
    )


def _hash64_items(batch: pa.Table, id_col: str, hash_col: str) -> pa.Table:
    return _items(
        batch[id_col].to_numpy(zero_copy_only=False),
        batch[hash_col].to_numpy(zero_copy_only=False).astype(np.int64).reshape(-1, 1),
    )


def hash64_neardup_pairs(
    hashed,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    hash_col: str = "simhash",
):
    """(id, 64-bit hash) rows → (doc_a, doc_b, hamming ≤ k) pairs via
    4×16-bit band blocking — pigeonhole-exact for k ≤ 3 (any pair
    within distance 3 agrees on ≥1 band).  Hash-agnostic: text simhash
    and the image / audio perceptual hashes share this distributed
    path, the banded sweep (``_banded_pairs``) with a popcount verify.
    Hamming depends only on the two hashes, so the one emission from a
    pair's lowest shared band carries the same value every band would."""
    items = hashed.map_batches(
        functools.partial(_hash64_items, id_col=id_col, hash_col=hash_col),
        batch_format="pyarrow",
    )
    return _banded_pairs(items, _hash64_banding(max_hamming))


def hash64_neardup_pairs_local(
    tab: pa.Table,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    hash_col: str = "simhash",
) -> pa.Table:
    """Driver-local ``hash64_neardup_pairs`` over an in-memory (id,
    hash) table: the driver branch of the same banded sweep
    (``_pairs_from_matrix``), so the pair set is the distributed one
    (path-agreement tests pin it).  Small-input branch of the adaptive
    split: a 64-bit hash per item is a few KB even at 100k items, where
    the distributed plan's fixed shuffle constants (~2 s) dwarf the
    ~10 ms sweep."""
    items = _hash64_items(tab, id_col, hash_col)
    return _pairs_from_matrix(
        _sig_matrix(items["sig"]),
        items["doc_id"].to_numpy(zero_copy_only=False),
        _hash64_banding(max_hamming),
    )


def simhash_neardup_pairs_local(
    tab: pa.Table, max_hamming: int = 3, text_col: str = "text"
) -> pa.Table:
    """Driver-local ``simhash_neardup_pairs``: same per-doc
    ``simhash64`` kernel, then the local banded sweep."""
    sigs = simhash_batch(tab, text_col=text_col)
    return hash64_neardup_pairs_local(sigs, max_hamming=max_hamming)


# ---------------------------------------------------------------------------
# embedding cosine near-dup (anchors broadcast, batches streamed)
# ---------------------------------------------------------------------------

def list_col_to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float>[N] (uniform length) → float64 matrix (N, dim), zero-
    copy flatten through Arrow."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def embedding_neardup_pairs(
    ds,
    anchors: np.ndarray,
    anchor_ids: np.ndarray,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """pairs (anchor_id, vec_id, cos ≥ τ, anchor_id < vec_id).

    ``anchors`` (A, dim) is the broadcast small side (``ray.put`` once —
    Ray serializes closure captures through the object store, so every
    task reads the same copy); the big side streams through
    ``map_batches`` as zero-copy Arrow, one matmul per batch."""
    import ray

    norm = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    anchors_ref = ray.put((norm, anchor_ids.astype(np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        a_norm, a_ids = ray.get(anchors_ref)
        mat = list_col_to_matrix(batch[emb_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (mat / norms) @ a_norm.T          # (N, A)
        bi, ai = np.nonzero(sims >= threshold)
        keep = a_ids[ai] < ids[bi]
        return pa.table(
            {
                "anchor_id": pa.array(a_ids[ai][keep], type=pa.int64()),
                "vec_id": pa.array(ids[bi][keep], type=pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


@functools.lru_cache(maxsize=None)
def _hyperplanes(seed: int, k: int, dim: int) -> np.ndarray:
    return np.random.RandomState(seed).standard_normal((k, dim))


def _embedding_items(
    batch: pa.Table, n_bands: int, bits_per_band: int, seed: int,
    id_col: str, emb_col: str,
) -> pa.Table:
    """embedding rows → ``(doc_id, sig)`` items: the ``n_bands`` sign
    sketches as keys ``band·2^bits + sketch``, then the unit vector's
    float64 bits.  The sketches are computed here, once per batch, and
    travel with the item: recomputing them from floats in the sweep (a
    BLAS call over another shape) could flip a sign near 0."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if not len(ids):
        return _items(ids, np.zeros((0, n_bands), np.int64))
    mat = list_col_to_matrix(batch[emb_col])
    planes = _hyperplanes(seed, n_bands * bits_per_band, mat.shape[1])
    signs = (mat @ planes.T) >= 0            # (N, bands*bits)
    weights = 1 << np.arange(bits_per_band, dtype=np.int64)
    sketch = signs.reshape(len(ids), n_bands, bits_per_band).astype(np.int64) @ weights
    keys = sketch | (np.arange(n_bands, dtype=np.int64) << bits_per_band)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return _items(ids, np.concatenate([keys, (mat / norms).view(np.int64)], axis=1))


def _sketch_keys(mat: np.ndarray, n_bands: int) -> np.ndarray:
    return mat[:, :n_bands]


def _cosine_verify(mat, x, y, threshold: float, n_bands: int):
    """cos ≥ τ by one matmul of the run's unit vectors; the value is
    the number of bands whose sketches the pair shares."""
    unit = np.ascontiguousarray(mat[:, n_bands:]).view(np.float64)
    sims = unit @ unit.T
    keys = mat[:, :n_bands]
    return sims[x, y] >= threshold, (keys[x] == keys[y]).sum(axis=1)


def _embedding_banding(threshold: float, n_bands: int) -> _Banding:
    """Embedding items on the banded sweep: the carried sketch keys,
    verified by cosine ≥ τ."""
    return _Banding(
        functools.partial(_sketch_keys, n_bands=n_bands),
        functools.partial(_cosine_verify, threshold=threshold, n_bands=n_bands),
        pa.schema(
            [
                ("anchor_id", pa.int64()),
                ("vec_id", pa.int64()),
                ("n_bands_hit", pa.int64()),
            ]
        ),
    )


def embedding_neardup_lsh(
    ds,
    threshold: float = 0.95,
    n_bands: int = 8,
    bits_per_band: int = 8,
    seed: int = 11,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """Scale path for embedding near-dup: random-hyperplane LSH.

    The brute-force variant scores every vector against a broadcast
    anchor matrix — exact, but the anchor side is O(N) so the work is
    O(N²·dim).  Here each vector gets ``n_bands`` sign-sketches
    (``bits_per_band`` hyperplanes each); vectors sharing ANY band
    sketch meet in one run of the banded sweep (``_banded_pairs``) and
    are cosine-verified there, so the work is O(N·bands + Σ run²) and
    the only exchange is the sort on the band key.  Each pair comes out
    once, from its lowest shared band, with ``n_bands_hit`` = the
    number of bands whose sketches it shares.  Approximate: a pair is
    missed iff it collides in NO band —
    P(miss) = (1-(1-θ/π)^bits)^bands, so pick the band geometry from the
    threshold (defaults suit cos ≥ 0.95; loose thresholds want
    more/narrower bands, e.g. 24×3 for cos ≥ 0.45).
    Same (anchor_id, vec_id) columns as :func:`embedding_neardup_pairs`;
    recall is pinned in tests against the exact variant.
    """
    if (n_bands - 1).bit_length() + bits_per_band > 63:
        raise ValueError("band keys band·2^bits_per_band must fit in int64")
    items = ds.map_batches(
        functools.partial(
            _embedding_items, n_bands=n_bands, bits_per_band=bits_per_band,
            seed=seed, id_col=id_col, emb_col=emb_col,
        ),
        batch_format="pyarrow",
    )
    return _banded_pairs(items, _embedding_banding(threshold, n_bands))


# ---------------------------------------------------------------------------
# near-dup clustering: LSH pairs → connected components → canonical labels
# ---------------------------------------------------------------------------

def _forest64(*tables: pa.Table) -> pa.Table:
    """int64-edge union-find sparsification: (a, b) pair edges in →
    spanning-forest edges out (≤ |vertices|−1 rows).  Every input
    vertex survives: a vertex's FIRST edge always joins two distinct
    roots (doc_a ≠ doc_b is guaranteed upstream), so it is emitted.
    The `linkgraph._forest` reduction specialized to doc-id pairs."""
    parent: dict[int, int] = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    ea: list = []
    eb: list = []
    for t in tables:
        if not t.num_rows:  # Ray emits schema-less empty blocks
            continue
        for a, b in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            if a not in parent:
                parent[a] = a
            if b not in parent:
                parent[b] = b
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                ea.append(a)
                eb.append(b)
    return pa.table(
        {"a": pa.array(ea, pa.int64()), "b": pa.array(eb, pa.int64())}
    )


def pair_labels(pairs_ds) -> tuple[np.ndarray, np.ndarray]:
    """near-dup pairs dataset → (sorted doc_ids, canonical labels),
    canonical = MIN doc_id in the pair graph's connected component.

    Scale shape — spanning-forest sparsification (the
    `linkgraph.connected_components` reduction applied to the LSH pair
    graph): each pair block collapses to its spanning forest (≤
    vertices−1 edges) inside ``map_batches``, forests tree-merge 8 at
    a time with plain Ray tasks (re-sparsifying at every step, so no
    merge input exceeds vertex-state size), and only the final
    VERTEX-sized forest reaches the driver — the pair set itself never
    does, so a pair graph larger than driver memory is fine as long as
    its duplicated-vertex universe fits (the same vertex-state boundary
    the link-graph ops declare).  Only docs appearing in ≥1 pair get an
    entry; everything else is its own canonical by default."""
    import ray

    def batch_forest(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
            )
        return _forest64(
            pa.table({"a": batch["doc_a"], "b": batch["doc_b"]})
        )

    merge_task = ray.remote(num_cpus=1)(_forest64)
    # materialized first: to_arrow_refs on a lazy Dataset re-runs the
    # whole pair plan under a limit-1 schema probe
    refs = pairs_ds.map_batches(
        batch_forest, batch_format="pyarrow"
    ).materialize().to_arrow_refs()
    while len(refs) > 1:
        refs = [
            merge_task.remote(*refs[i : i + 8])
            for i in range(0, len(refs), 8)
        ]
    final = (
        ray.get(refs[0])
        if refs
        else pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
    )
    return _labels_from_forest(final)


def _labels_from_forest(final: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """edge table → (sorted doc_ids, canonical labels) via union-find;
    canonical = MIN doc_id per connected component."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(final["a"].to_pylist(), final["b"].to_pylist()):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    # canonical = min id per component (min over members, so the union
    # order inside the forest passes is irrelevant)
    cmin: dict[int, int] = {}
    for x in parent:
        r = find(x)
        if r not in cmin or x < cmin[r]:
            cmin[r] = x
    lk = np.fromiter(sorted(parent), dtype=np.int64, count=len(parent))
    lv = np.fromiter((cmin[find(int(k))] for k in lk), dtype=np.int64,
                     count=len(lk))
    return lk, lv


def minhash_cluster_labels_local(
    tab: pa.Table, n: int = 3, threshold: float = 0.8,
    text_col: str = "text",
) -> pa.Table:
    """Driver-local ``minhash_cluster_labels`` over an in-memory table:
    local pair generation (same kernels) + the same min-label
    union-find, one vectorized tag pass.  Small-input branch of the
    adaptive split — see ``minhash_lsh_pairs_local``."""
    pairs = minhash_lsh_pairs_local(
        tab, n=n, threshold=threshold, text_col=text_col
    )
    lk, lv = _labels_from_forest(
        pa.table({"a": pairs["doc_a"], "b": pairs["doc_b"]})
    )
    ids = tab["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(lk):
        pos = np.clip(np.searchsorted(lk, ids), 0, len(lk) - 1)
        hit = lk[pos] == ids
        canon = np.where(hit, lv[pos], ids)
    else:
        canon = ids
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "canonical_id": pa.array(canon, pa.int64()),
            "is_canonical": pa.array(canon == ids, pa.bool_()),
        }
    )


def minhash_cluster_labels(ds, docs_ds, n: int = 3, threshold: float = 0.8,
                           text_col: str = "text"):
    """documents → (doc_id, canonical_id, is_canonical): group near-dups
    into clusters (connected components of the MinHash-LSH pair graph)
    and elect the smallest doc_id as each cluster's canonical — the
    keep-one near-dup DEDUP step a training pipeline runs after pair
    generation.

    Scale shape: pairs sparsify to spanning forests inside map_batches
    and tree-merge before the driver ever sees them (`pair_labels`), so
    driver state is bounded by the DUPLICATED-vertex universe, not the
    pair count.  The label map (only docs that appear in ≥1 pair)
    broadcasts via ``ray.put`` and every document is tagged in one
    streaming ``map_batches`` pass — unpaired docs are their own
    canonical."""
    import ray

    lk, lv = pair_labels(
        minhash_lsh_pairs(ds, n=n, threshold=threshold, text_col=text_col)
    )
    # broadcast as two sorted numpy arrays: plasma stores them zero-copy,
    # so every task's ray.get is a pointer share, and the per-batch
    # lookup is one vectorized searchsorted (no actor pool, no Python
    # dict probe per row)
    labels_ref = ray.put((lk, lv))

    def tag(batch: pa.Table) -> pa.Table:
        k, v = ray.get(labels_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(k):
            pos = np.clip(np.searchsorted(k, ids), 0, len(k) - 1)
            hit = k[pos] == ids
            canon = np.where(hit, v[pos], ids)
        else:
            canon = ids
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "canonical_id": pa.array(canon, pa.int64()),
                "is_canonical": pa.array(canon == ids, pa.bool_()),
            }
        )

    return docs_ds.map_batches(tag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# duplicated-span fraction (corpus-wide substring duplication signal)
# ---------------------------------------------------------------------------

def dup_ngram_rows_batch(
    batch: pa.Table, n: int = 5, text_col: str = "text"
) -> pa.Table:
    """doc → distinct (doc_id, ngram_h, cnt) rows, where cnt is how many
    of the doc's n-gram POSITIONS carry this n-gram.  Positions — not
    the distinct set — are what span-level duplication measures: a doc
    that repeats a corpus-shared 5-gram ten times is 10 positions deep
    in duplicated text, not 1.  Only the 64-bit blake2b hash of the
    n-gram leaves the task (same collision argument as
    ``ngram_pairs_jaccard``: ~1e-7 at 10^6 distinct n-grams, and a
    collision only perturbs one doc-frequency count)."""
    if batch.num_rows == 0:  # schema-less empty blocks (CLAUDE.md rule)
        ids, texts = [], []
    else:
        ids = batch["doc_id"].to_pylist()
        texts = batch[text_col].to_pylist()
    out_id: list[int] = []
    out_h: list[int] = []
    out_c: list[int] = []
    for i, t in zip(ids, texts):
        toks = (t or "").lower().split()
        counts: dict[int, int] = {}
        for p in range(len(toks) - n + 1):
            g = " ".join(toks[p : p + n])
            h = int.from_bytes(
                hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            counts[h] = counts.get(h, 0) + 1
        for h in sorted(counts):
            out_id.append(i)
            out_h.append(h)
            out_c.append(counts[h])
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "ngram_h": pa.array(
                np.array(out_h, dtype=np.uint64), pa.uint64()
            ),
            "cnt": pa.array(out_c, pa.int64()),
        }
    )


def _probe_hot_u64(
    rows,
    col: str,
    frac_threshold: float = 0.02,
    per_batch_top: int = 20,
) -> np.ndarray:
    """``relational.sample_hot_keys`` for uint64 hash columns (that one
    casts keys to int64, which overflows on blake2b hashes): each batch
    reports its top-``per_batch_top`` key counts plus a total-rows
    marker; keys holding ≥ ``frac_threshold`` of all rows are hot.
    Approximate on purpose — a missed hot key only costs one heavy
    bucket (the status quo), never correctness; any key at ≥2 % of a
    uniformly-blocked dataset is top-20 in essentially every batch.
    Returns a SORTED uint64 array (possibly empty)."""
    import pyarrow.compute as pc

    def topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "h": pa.array([], pa.uint64()),
                    "c": pa.array([], pa.int64()),
                    "tot": pa.array([], pa.int64()),
                }
            )
        h = batch[col].to_numpy(zero_copy_only=False)
        u, c = np.unique(h, return_counts=True)
        if len(u) > per_batch_top:
            sel = np.argpartition(c, len(c) - per_batch_top)[
                len(c) - per_batch_top :
            ]
            u, c = u[sel], c[sel]
        return pa.table(
            {
                "h": pa.array(
                    np.append(u, np.uint64(0)), pa.uint64()
                ),
                "c": pa.array(
                    np.append(c.astype(np.int64), 0), pa.int64()
                ),
                "tot": pa.array(
                    np.append(
                        np.zeros(len(u), np.int64), batch.num_rows
                    ),
                    pa.int64(),
                ),
            }
        )

    parts = exchange.blocks(rows.map_batches(topk, batch_format="pyarrow"))
    if not parts:
        return np.zeros(0, np.uint64)
    allp = pa.concat_tables(parts)
    total = int(pc.sum(allp["tot"]).as_py() or 0)
    agg = (
        allp.filter(pc.equal(allp["tot"], 0))
        .group_by("h")
        .aggregate([("c", "sum")])
    )
    hh = agg["h"].to_numpy(zero_copy_only=False)
    cc = agg["c_sum"].to_numpy(zero_copy_only=False)
    hot = hh[cc >= max(1, frac_threshold * total)]
    return np.sort(hot.astype(np.uint64))


def dup_span_stats(
    ds,
    n: int = 5,
    min_df: int = 2,
    text_col: str = "text",
    num_buckets: int = 512,
    doc_buckets: int = 64,
    hot_frac: float = 0.02,
):
    """documents → (doc_id, n_positions, n_dup_positions, dup_fraction):
    the fraction of each document's word n-gram positions whose n-gram
    occurs in ≥ ``min_df`` distinct documents corpus-wide — the
    document-level signal of exact-substring train-set duplication
    (Lee et al. 2022, "Deduplicating Training Data Makes Language
    Models Better", arXiv:2107.06499, at n-gram granularity).  Distinct
    from ``textstats.repetition_batch`` (WITHIN-doc Gopher repetition)
    and from ``ngram_pairs_jaccard`` (pairwise whole-doc similarity):
    this measures how much of a doc is text the corpus already has.

    Scale shape: three stages, no strings in any shuffle.
    1. ``map_batches`` doc → (ngram_h u64, per-doc position count).
    2. doc-frequency inside ``hash(ngram) % num_buckets`` groups — each
       n-gram's rows land wholly in one bucket, so DF is exact; the
       sweep is one numpy sort + run-length count, and it emits ≤1
       partial row per (doc, bucket): (doc_id, dup_positions,
       total_positions).
    3. per-doc rollup inside ``doc_id % doc_buckets`` groups (Arrow C++
       hash-agg, never a high-cardinality Ray groupby), fraction as one
       float64 division — bitwise-equal to the DuckDB oracle's
       ``BIGINT::DOUBLE / count(*)``.
    Docs shorter than n tokens have no positions and are outside the
    output domain (mirrored by the oracle's ``len(t) >= n`` guard).

    Hot-key safety (r03 VERDICT audit): an n-gram in ≥ ``hot_frac`` of
    all posting rows (a ubiquitous boilerplate 5-gram) would land its
    whole posting list in ONE bucket task.  A combiner probe
    (`_probe_hot_u64`) finds such keys; their rows are EXCLUDED from
    the bucket shuffle — a hot key's DF is its global row count (rows
    are distinct per (doc, n-gram)), reduced to |hot| driver scalars,
    and its per-doc contribution is then computed map-side (the
    `top_customers` targeted-attach pattern) and unioned into the
    same per-doc rollup.  Exact either way; a missed hot key only
    costs one heavy bucket (the status quo)."""
    import pyarrow.compute as pc

    rows = ds.map_batches(
        lambda b: dup_ngram_rows_batch(b, n=n, text_col=text_col),
        batch_format="pyarrow",
    ).materialize()
    hot = _probe_hot_u64(rows, "ngram_h", frac_threshold=hot_frac)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = batch["ngram_h"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket",
            pa.array((h % num_buckets).astype(np.int32), pa.int32()),
        )

    def bucket_partials(group: pa.Table) -> pa.Table:
        h = group["ngram_h"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs = h[order]
        new = np.empty(len(hs), dtype=bool)
        if len(hs):
            new[0] = True
            np.not_equal(hs[1:], hs[:-1], out=new[1:])
        gid = np.cumsum(new) - 1
        # rows are distinct per (doc, ngram) → run length == doc frequency
        df = np.bincount(gid) if len(gid) else np.zeros(0, dtype=np.int64)
        dup = df[gid] >= min_df
        c_ord = cnt[order].astype(np.int64)
        tbl = pa.table(
            {
                "doc_id": pa.array(doc[order], pa.int64()),
                "dup_part": pa.array(
                    np.where(dup, c_ord, 0).astype(np.int64), pa.int64()
                ),
                "tot_part": pa.array(c_ord, pa.int64()),
            }
        )
        agg = tbl.group_by("doc_id").aggregate(
            [("dup_part", "sum"), ("tot_part", "sum")]
        )
        dids = agg["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "dup_part": agg["dup_part_sum"],
                "tot_part": agg["tot_part_sum"],
                "dbucket": pa.array(
                    (dids % doc_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        agg = group.group_by("doc_id").aggregate(
            [("dup_part", "sum"), ("tot_part", "sum")]
        )
        dupn = pc.cast(agg["dup_part_sum"], pa.int64())
        totn = pc.cast(agg["tot_part_sum"], pa.int64())
        frac = pc.divide(
            pc.cast(dupn, pa.float64()), pc.cast(totn, pa.float64())
        )
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "n_positions": totn,
                "n_dup_positions": dupn,
                "dup_fraction": frac,
            }
        )

    if len(hot) == 0:
        partials = (
            rows.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_partials, batch_format="pyarrow")
        )
        return partials.groupby("dbucket").map_groups(
            finalize, batch_format="pyarrow"
        )

    def _hot_mask(h: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(hot, h)
        return (idx < len(hot)) & (
            hot[np.minimum(idx, len(hot) - 1)] == h
        ), idx

    # exact hot DF: rows are distinct per (doc, n-gram) → DF = global
    # row count per hot key, reduced as |hot| integer scalars
    def hot_df_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        h = batch["ngram_h"].to_numpy(zero_copy_only=False)
        m, idx = _hot_mask(h)
        cnt = np.bincount(idx[m], minlength=len(hot))
        return pa.table(
            {
                "i": pa.array(np.arange(len(hot)), pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    hot_df = np.zeros(len(hot), dtype=np.int64)
    for t in exchange.blocks(
        rows.map_batches(hot_df_partial, batch_format="pyarrow")
    ):
        if t.num_rows:
            hot_df[t["i"].to_numpy(zero_copy_only=False)] += t[
                "c"
            ].to_numpy(zero_copy_only=False)
    hot_dup = hot_df >= min_df

    empty_partial = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "dup_part": pa.array([], pa.int64()),
            "tot_part": pa.array([], pa.int64()),
            "dbucket": pa.array([], pa.int32()),
        }
    )

    def nonhot_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return add_bucket(batch)
        h = batch["ngram_h"].to_numpy(zero_copy_only=False)
        m, _ = _hot_mask(h)
        return add_bucket(batch.filter(pa.array(~m)))

    def hot_partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty_partial
        h = batch["ngram_h"].to_numpy(zero_copy_only=False)
        m, idx = _hot_mask(h)
        if not m.any():
            return empty_partial
        cnt = (
            batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
        )
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)[m]
        dup = np.where(hot_dup[idx[m]], cnt, 0)
        t = pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "dup_part": pa.array(dup, pa.int64()),
                "tot_part": pa.array(cnt, pa.int64()),
            }
        )
        agg = t.group_by("doc_id").aggregate(
            [("dup_part", "sum"), ("tot_part", "sum")]
        )
        dids = agg["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "dup_part": agg["dup_part_sum"],
                "tot_part": agg["tot_part_sum"],
                "dbucket": pa.array(
                    (dids % doc_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    partials = (
        rows.map_batches(nonhot_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_partials, batch_format="pyarrow")
        .union(rows.map_batches(hot_partials, batch_format="pyarrow"))
    )
    return partials.groupby("dbucket").map_groups(
        finalize, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# segment-level (paragraph) dedup — CCNet-style
# ---------------------------------------------------------------------------

_SEG_SHIFT = 21  # seg_idx < 2^21 per doc; doc_id < 2^42 → key fits int64


def segment_rows_batch(
    batch: pa.Table, seg_words: int = 20, text_col: str = "text"
) -> pa.Table:
    """doc → one skinny row per fixed ``seg_words``-word segment:
    (doc_id, seg_idx, seg_h u64).  Segmentation is ``text.split(' ')``
    chunked non-overlapping — deterministic and exactly reproducible by
    SQL ``string_split(text, ' ')`` + ``(i-1)//seg_words`` (CCNet,
    arXiv:1911.00359, dedups paragraphs; the synthetic corpus has no
    newlines, so fixed word windows stand in for paragraph boundaries).
    Only the 64-bit blake2b hash of the segment leaves the task."""
    if batch.num_rows == 0:  # schema-less empty blocks (CLAUDE.md rule)
        ids, texts = [], []
    else:
        ids = batch["doc_id"].to_pylist()
        texts = batch[text_col].to_pylist()
    out_id: list[int] = []
    out_idx: list[int] = []
    out_h: list[int] = []
    for i, t in zip(ids, texts):
        words = (t or "").split(" ")
        for s in range(0, len(words), seg_words):
            out_id.append(i)
            out_idx.append(s // seg_words)
            out_h.append(_seg_h64(" ".join(words[s : s + seg_words])))
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "seg_idx": pa.array(out_idx, pa.int32()),
            "seg_h": pa.array(
                np.array(out_h, dtype=np.uint64), pa.uint64()
            ),
        }
    )


def _seg_h64(s: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
    )


def segment_dedup(
    ds,
    seg_words: int = 20,
    num_buckets: int = 512,
    text_col: str = "text",
    hot_frac: float = 0.02,
):
    """documents → (doc_id, clean_text, n_segments, n_dropped): remove
    every segment occurrence that duplicates an EARLIER occurrence
    (first = min (doc_id, seg_idx)) of the same segment text anywhere
    in the corpus, and reassemble each doc from its surviving segments
    — CCNet-style paragraph-level dedup (arXiv:1911.00359 §3) at fixed
    word-window granularity.

    Scale shape — the corpus text is never shuffled:
    1. ``map_batches`` doc → skinny (doc_id, seg_idx, seg_h) rows.
    2. first-occurrence per segment inside ``seg_h % num_buckets``
       groups (a segment's rows all land in one bucket, so the global
       min key is exact); each bucket emits only its DROP keys
       (non-first occurrences), packed as ``doc_id<<21 | seg_idx``.
    3. the drop-key set is tree-collected and broadcast via ``ray.put``
       (sorted u64 array), and one more streaming pass over the docs
       anti-filters segments by ``searchsorted`` membership and rejoins
       the survivors in order.
    The broadcast boundary: drop keys are 8 B per DUPLICATED segment
    occurrence — ~10⁹ dropped segments ≈ 8 GB plasma, fine; a far
    dirtier corpus should instead shuffle (doc_id-bucketed) the skinny
    drop rows against a doc_id-bucketed text pass, trading one
    corpus-wide text exchange for the broadcast.  Hash collisions can
    only FALSELY drop a segment (P ≈ n²/2⁶⁵ — ~1e-10 at 10⁶ distinct
    segments, the `ngram_pairs_jaccard` argument); the DuckDB oracle
    compares segment STRINGS, so the correctness gate would catch one.
    """
    import ray

    rows = ds.map_batches(
        lambda b: segment_rows_batch(b, seg_words, text_col),
        batch_format="pyarrow",
    ).materialize()
    # hot-key safety (r03 VERDICT audit): a boilerplate segment in
    # ≥ hot_frac of all rows would land its whole posting list in ONE
    # bucket task.  Hot keys skip the shuffle: their global min key
    # reduces to |hot| driver scalars via per-batch partial mins, and
    # their drops are computed map-side against that tiny broadcast.
    hot = _probe_hot_u64(rows, "seg_h", frac_threshold=hot_frac)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = batch["seg_h"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket",
            pa.array((h % num_buckets).astype(np.int32), pa.int32()),
        )

    def drop_keys(group: pa.Table) -> pa.Table:
        h = group["seg_h"].to_numpy(zero_copy_only=False)
        key = (
            group["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            << np.uint64(_SEG_SHIFT)
        ) | group["seg_idx"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((key, h))
        hs, ks = h[order], key[order]
        first = np.empty(len(hs), dtype=bool)
        if len(hs):
            first[0] = True
            np.not_equal(hs[1:], hs[:-1], out=first[1:])
        return pa.table({"k": pa.array(ks[~first], pa.uint64())})

    def _row_keys(batch: pa.Table) -> np.ndarray:
        return (
            batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            << np.uint64(_SEG_SHIFT)
        ) | batch["seg_idx"].to_numpy(zero_copy_only=False).astype(
            np.uint64
        )

    if len(hot):

        def _hot_mask(h: np.ndarray):
            idx = np.searchsorted(hot, h)
            return (idx < len(hot)) & (
                hot[np.minimum(idx, len(hot) - 1)] == h
            ), idx

        def hot_min_partial(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "i": pa.array([], pa.int64()),
                        "kmin": pa.array([], pa.uint64()),
                    }
                )
            h = batch["seg_h"].to_numpy(zero_copy_only=False)
            m, idx = _hot_mask(h)
            if not m.any():
                return pa.table(
                    {
                        "i": pa.array([], pa.int64()),
                        "kmin": pa.array([], pa.uint64()),
                    }
                )
            keys = _row_keys(batch)[m]
            hi = idx[m]
            order = np.lexsort((keys, hi))
            hi_s, k_s = hi[order], keys[order]
            first = np.empty(len(hi_s), dtype=bool)
            first[0] = True
            np.not_equal(hi_s[1:], hi_s[:-1], out=first[1:])
            return pa.table(
                {
                    "i": pa.array(hi_s[first].astype(np.int64), pa.int64()),
                    "kmin": pa.array(k_s[first], pa.uint64()),
                }
            )

        hot_min = np.full(len(hot), np.iinfo(np.uint64).max, np.uint64)
        for t in exchange.blocks(
            rows.map_batches(hot_min_partial, batch_format="pyarrow")
        ):
            if t.num_rows:
                ii = t["i"].to_numpy(zero_copy_only=False)
                kk = t["kmin"].to_numpy(zero_copy_only=False)
                np.minimum.at(hot_min, ii, kk)

        def nonhot_rows(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return add_bucket(batch)
            h = batch["seg_h"].to_numpy(zero_copy_only=False)
            m, _ = _hot_mask(h)
            return add_bucket(batch.filter(pa.array(~m)))

        def hot_drops(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"k": pa.array([], pa.uint64())})
            h = batch["seg_h"].to_numpy(zero_copy_only=False)
            m, idx = _hot_mask(h)
            keys = _row_keys(batch)[m]
            drop = keys[keys != hot_min[idx[m]]]
            return pa.table({"k": pa.array(drop, pa.uint64())})

        dropped = (
            rows.map_batches(nonhot_rows, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(drop_keys, batch_format="pyarrow")
            .union(rows.map_batches(hot_drops, batch_format="pyarrow"))
        )
    else:
        dropped = (
            rows.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(drop_keys, batch_format="pyarrow")
        )
    parts = [
        t["k"].to_numpy(zero_copy_only=False)
        for t in exchange.blocks(dropped)
    ]
    drop = np.sort(np.concatenate(parts)) if parts else np.zeros(
        0, dtype=np.uint64
    )
    d_ref = ray.put(drop)

    def rebuild(batch: pa.Table) -> pa.Table:
        dk = ray.get(d_ref)
        if batch.num_rows == 0:
            ids, texts = [], []
        else:
            ids = batch["doc_id"].to_pylist()
            texts = batch[text_col].to_pylist()
        clean: list[str] = []
        nseg: list[int] = []
        ndrop: list[int] = []
        for i, t in zip(ids, texts):
            words = (t or "").split(" ")
            segs = [
                " ".join(words[s : s + seg_words])
                for s in range(0, len(words), seg_words)
            ]
            keys = (np.uint64(i) << np.uint64(_SEG_SHIFT)) | np.arange(
                len(segs), dtype=np.uint64
            )
            idx = np.searchsorted(dk, keys)
            hit = (idx < len(dk)) & (dk[np.minimum(idx, len(dk) - 1)] == keys) if len(dk) else np.zeros(len(segs), dtype=bool)
            clean.append(" ".join(s for s, d in zip(segs, hit) if not d))
            nseg.append(len(segs))
            ndrop.append(int(hit.sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "clean_text": pa.array(clean, pa.string()),
                "n_segments": pa.array(nseg, pa.int64()),
                "n_dropped": pa.array(ndrop, pa.int64()),
            }
        )

    return ds.map_batches(rebuild, batch_format="pyarrow")


def dup_span_rows_batch(
    batch: pa.Table, n: int = 5, text_col: str = "text"
) -> pa.Table:
    """doc → distinct (doc_id, ngram_h) rows for the REMOVAL pass.
    Tokenization is split-then-lower (``text.split()`` on the original,
    n-gram lowered as one string) so the rebuild stage can emit the
    surviving ORIGINAL-case tokens while hashing stays case-folded —
    mirrored exactly by the oracle's ``lower(t[i] || ' ' || …)``."""
    if batch.num_rows == 0:  # schema-less empty blocks (CLAUDE.md rule)
        ids, texts = [], []
    else:
        ids = batch["doc_id"].to_pylist()
        texts = batch[text_col].to_pylist()
    out_id: list[int] = []
    out_h: list[int] = []
    for i, t in zip(ids, texts):
        toks = (t or "").split()
        seen: set[int] = set()
        for p in range(len(toks) - n + 1):
            g = " ".join(toks[p : p + n]).lower()
            seen.add(_seg_h64(g))
        for h in sorted(seen):
            out_id.append(i)
            out_h.append(h)
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "ngram_h": pa.array(np.array(out_h, dtype=np.uint64), pa.uint64()),
        }
    )


def dup_span_removal(
    ds,
    n: int = 5,
    min_df: int = 2,
    text_col: str = "text",
    num_buckets: int = 512,
):
    """documents → (doc_id, clean_text, n_tokens, n_removed): drop every
    token covered by at least one DUPLICATED n-gram window (one whose
    n-gram occurs in ≥ ``min_df`` distinct documents corpus-wide) and
    reassemble the survivors in order — the removal half of
    exact-substring train-set dedup (Lee et al. 2022, arXiv:2107.06499;
    ``dup_span_stats`` is the measurement half).

    Scale shape — corpus text never shuffles:
    1. ``map_batches`` doc → skinny distinct (doc_id, ngram_h) rows.
    2. doc-frequency inside ``ngram_h % num_buckets`` groups (an
       n-gram's rows land wholly in one bucket ⇒ DF exact); each bucket
       emits only its DUPLICATED hashes.
    3. the dup-hash set is collected, sorted and broadcast once
       (``ray.put``; 8 B per duplicated DISTINCT n-gram — the
       boilerplate boundary shared with ``segment_dedup``: a dirtier
       corpus should doc_id-bucket-shuffle drop rows against a
       doc-bucketed text pass instead), and one more streaming pass
       recomputes window hashes per doc, marks covered tokens with a
       diff/cumsum interval overlay, and rejoins the survivors.
    Hash collisions can only FALSELY remove a window (~1e-10; the
    oracle compares n-gram STRINGS, so the gate would catch one)."""
    import ray

    rows = ds.map_batches(
        lambda b: dup_span_rows_batch(b, n=n, text_col=text_col),
        batch_format="pyarrow",
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = batch["ngram_h"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket",
            pa.array((h % num_buckets).astype(np.int32), pa.int32()),
        )

    def dup_hashes(group: pa.Table) -> pa.Table:
        h = np.sort(group["ngram_h"].to_numpy(zero_copy_only=False))
        new = np.empty(len(h), dtype=bool)
        if len(h):
            new[0] = True
            np.not_equal(h[1:], h[:-1], out=new[1:])
        gid = np.cumsum(new) - 1
        df = np.bincount(gid) if len(gid) else np.zeros(0, dtype=np.int64)
        return pa.table(
            {"h": pa.array(h[new][df >= min_df], pa.uint64())}
        )

    dupped = (
        rows.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(dup_hashes, batch_format="pyarrow")
    )
    parts = [
        t["h"].to_numpy(zero_copy_only=False)
        for t in exchange.blocks(dupped)
    ]
    dup = (
        np.sort(np.concatenate(parts))
        if parts
        else np.zeros(0, dtype=np.uint64)
    )
    d_ref = ray.put(dup)

    def rebuild(batch: pa.Table) -> pa.Table:
        dk = ray.get(d_ref)
        if batch.num_rows == 0:
            ids, texts = [], []
        else:
            ids = batch["doc_id"].to_pylist()
            texts = batch[text_col].to_pylist()
        clean: list[str] = []
        ntok: list[int] = []
        nrem: list[int] = []
        for i, t in zip(ids, texts):
            toks = (t or "").split()
            npos = len(toks) - n + 1
            hs = np.fromiter(
                (
                    _seg_h64(" ".join(toks[p : p + n]).lower())
                    for p in range(max(npos, 0))
                ),
                dtype=np.uint64,
                count=max(npos, 0),
            )
            if len(dk) and len(hs):
                idx = np.searchsorted(dk, hs)
                hit = (idx < len(dk)) & (
                    dk[np.minimum(idx, len(dk) - 1)] == hs
                )
            else:
                hit = np.zeros(len(hs), dtype=bool)
            # interval overlay: window p covers tokens [p, p+n)
            delta = np.zeros(len(toks) + 1, dtype=np.int64)
            starts = np.flatnonzero(hit)
            np.add.at(delta, starts, 1)
            np.add.at(delta, starts + n, -1)
            covered = np.cumsum(delta[:-1]) > 0
            clean.append(
                " ".join(w for w, c in zip(toks, covered) if not c)
            )
            ntok.append(len(toks))
            nrem.append(int(covered.sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "clean_text": pa.array(clean, pa.string()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "n_removed": pa.array(nrem, pa.int64()),
            }
        )

    return ds.map_batches(rebuild, batch_format="pyarrow")


def _winnow_bucket_pairs(group: pa.Table, max_df: int) -> pa.Table:
    """One fp-hash bucket's (doc_id, fp_h) rows → candidate doc pairs
    per fingerprint run (DF-capped).  Module-level for the duplicate-row
    unit test.  Starts with a global (fp_h, doc_id) re-dedup:
    ``distinct_rows`` dedups only within its batch, and Ray's dynamic
    block splitting can spread one doc's rows for the same fingerprint
    across blocks — a surviving duplicate would inflate ``shared`` and
    emit doc_a == doc_b self-pairs.  The per-fp group here IS global
    (fp_h → one bucket), so the dedup is exact."""
    h = group["fp_h"].to_numpy(zero_copy_only=False)
    doc = group["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, h))
    h, doc = h[order], doc[order]
    if len(h):
        uniq = np.empty(len(h), dtype=bool)
        uniq[0] = True
        uniq[1:] = (h[1:] != h[:-1]) | (doc[1:] != doc[:-1])
        h, doc = h[uniq], doc[uniq]
    if len(h):
        new_run = np.empty(len(h), dtype=bool)
        new_run[0] = True
        np.not_equal(h[1:], h[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
    else:
        starts = np.zeros(0, np.int64)
    a_ids: list[int] = []
    b_ids: list[int] = []
    bounds = list(starts) + [len(h)]
    for si in range(len(bounds) - 1):
        i, j = bounds[si], bounds[si + 1]
        if j - i <= max_df:
            ds_run = doc[i:j]
            for x in range(len(ds_run)):
                for y in range(x + 1, len(ds_run)):
                    a_ids.append(int(ds_run[x]))
                    b_ids.append(int(ds_run[y]))
    return pa.table(
        {
            "doc_a": pa.array(a_ids, pa.int64()),
            "doc_b": pa.array(b_ids, pa.int64()),
        }
    )


def winnow_neardup_pairs(
    ds,
    k: int = 5,
    w: int = 4,
    min_shared: int = 2,
    max_df: int = 50,
    text_col: str = "text",
    num_buckets: int = 512,
):
    """documents → (doc_a, doc_b, shared): pairs sharing ≥ ``min_shared``
    DISTINCT winnowing fingerprints — the MOSS match step on top of
    `textstats.winnow_fingerprints` (any shared ≥ w+k-1 token run
    guarantees a shared fingerprint, so long plagiarised spans cannot
    be missed).  Same shape as `ngram_pairs_jaccard`: only the 64-bit
    fingerprint hash shuffles, postings sweep inside fp-hash buckets
    with a DF cap dropping boilerplate fingerprints, pair counting via
    Arrow hash-agg inside pair-hash buckets."""
    from .textstats import winnow_fingerprints

    fps = winnow_fingerprints(ds, k=k, w=w, text_col=text_col)

    def distinct_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "fp_h": pa.array([], pa.uint64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = np.array(
            [
                int.from_bytes(bytes.fromhex(s)[8:], "little")
                for s in batch["fp_md5"].to_pylist()
            ],
            dtype=np.uint64,
        )
        order = np.lexsort((h, doc))
        d, hh = doc[order], h[order]
        keep = np.empty(len(d), dtype=bool)
        if len(d):
            keep[0] = True
            keep[1:] = (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])
        return pa.table(
            {
                "doc_id": pa.array(d[keep], pa.int64()),
                "fp_h": pa.array(hh[keep], pa.uint64()),
                "bucket": pa.array(
                    (hh[keep] % num_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def bucket_to_pairs(group: pa.Table) -> pa.Table:
        return _winnow_bucket_pairs(group, max_df)

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (a * np.uint64(1000003)) ^ b
        return batch.append_column(
            "pbucket",
            pa.array(
                (h % np.uint64(num_buckets)).astype(np.int32), pa.int32()
            ),
        )

    def combine_pairs(group: pa.Table) -> pa.Table:
        agg = group.group_by(["doc_a", "doc_b"]).aggregate(
            [("doc_a", "count")]
        )
        shared = agg["doc_a_count"]
        t = pa.table(
            {
                "doc_a": agg["doc_a"],
                "doc_b": agg["doc_b"],
                "shared": pa.Array.from_pandas(
                    shared.to_numpy(zero_copy_only=False).astype("int64")
                ),
            }
        )
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t["shared"], min_shared))

    return (
        fps.map_batches(distinct_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_to_pairs, batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(combine_pairs, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# within-group boilerplate removal (host-template text)
# ---------------------------------------------------------------------------

def _mirror_metrics(
    a: list, b: list, shared: np.ndarray, n_by_host: dict
) -> pa.Table:
    """pair counts + per-host distinct-segment totals → the public
    mirror-candidate table (all-integer overlap coefficients)."""
    na = np.array([n_by_host[x] for x in a], np.int64)
    nb = np.array([n_by_host[x] for x in b], np.int64)
    sh = shared.astype(np.int64)
    return pa.table(
        {
            "host_a": pa.array(a, pa.string()),
            "host_b": pa.array(b, pa.string()),
            "shared": pa.array(sh, pa.int64()),
            "a_segments": pa.array(na, pa.int64()),
            "b_segments": pa.array(nb, pa.int64()),
            "jaccard_micros": pa.array(
                sh * 1_000_000 // (na + nb - sh), pa.int64()
            ),
            "containment_micros": pa.array(
                sh * 1_000_000 // np.minimum(na, nb), pa.int64()
            ),
        }
    )


def mirror_host_pairs(
    ds,
    group_col: str = "host",
    text_col: str = "text",
    seg_words: int = 10,
    max_df_hosts: int = 64,
    min_shared: int = 2,
    num_buckets: int = 512,
):
    """(host, text) pages → (host_a, host_b, shared, a_segments,
    b_segments, jaccard_micros, containment_micros): CROSS-host
    content-overlap candidates — mirror / replicated-collection
    detection (Bharat & Broder, WWW 1999 "A comparison of techniques
    to find mirrored hosts"; Cho, Shivakumar & Garcia-Molina, VLDB
    2000 "Finding replicated web collections").  A crawl operator
    reads this to collapse mirrors before spending fetch budget and
    to pick one canonical host per replica group.

    Unit: the SAME non-overlapping ``seg_words``-word window as the
    within-host boilerplate family (`_boiler_segs` — SQL-reproducible
    via string_split + range), but keyed host-level and compared
    ACROSS hosts: ``shared`` = distinct segments present on both
    hosts, among segments on 2..``max_df_hosts`` hosts (the DF cap is
    the hot-key rule — a web-wide boilerplate segment would emit k²
    pairs; the oracle applies the identical cap).  Overlap
    coefficients are exact integer micros over per-host distinct
    segment totals (Jaccard and containment).

    Scale shape: text never shuffles — one streaming pass emits
    per-page-distinct (host, seg_h) 64-bit rows; pair sweep inside
    ``seg_h % num_buckets`` groups (a segment's rows meet in exactly
    one bucket), per-bucket Arrow pre-agg of pair counts and per-host
    partial totals; the driver merges pair partials (bounded by the
    DF cap) and host totals (host-sized — the module's declared
    vertex boundary).  Adaptive: up to ``exchange.DRIVER_FINISH_MAX``
    distinct rows finish driver-local with the same sweep (forced-path
    test)."""

    def rows(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "seg_h": pa.array([], pa.uint64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        hosts: list[str] = []
        segs: list[str] = []
        for h, txt in zip(
            batch[group_col].to_pylist(), batch[text_col].to_pylist()
        ):
            for s in set(_boiler_segs(txt or "", seg_words)):
                hosts.append(h)
                segs.append(s)
        sh = np.array([_seg_h64(s) for s in segs], dtype=np.uint64)
        t = pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "seg_h": pa.array(sh, pa.uint64()),
                "bucket": pa.array(
                    (sh % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )
        return t.group_by(["host", "seg_h", "bucket"]).aggregate([])

    def bucket_sweep(group: pa.Table) -> pa.Table:
        """whole seg-hash buckets: global per-segment host runs → pair
        partial rows (kind 0) + per-host distinct-segment partials
        (kind 1)."""
        hosts = np.array(group["host"].to_pylist(), dtype=object)
        segh = group["seg_h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((hosts, segh))
        hh, ss = hosts[order], segh[order]
        keep = np.empty(len(ss), bool)
        if len(ss):
            keep[0] = True
            keep[1:] = (ss[1:] != ss[:-1]) | (hh[1:] != hh[:-1])
        hh, ss = hh[keep], ss[keep]
        uh, cnt = np.unique(hh, return_counts=True)
        starts = np.flatnonzero(
            np.concatenate([[True], ss[1:] != ss[:-1]])
        ) if len(ss) else np.zeros(0, np.int64)
        bounds = list(starts) + [len(ss)]
        pair_n: dict = {}
        for si in range(len(bounds) - 1):
            i, j = bounds[si], bounds[si + 1]
            if 2 <= j - i <= max_df_hosts:
                run = hh[i:j]
                for x in range(len(run)):
                    for y in range(x + 1, len(run)):
                        key = (run[x], run[y])
                        pair_n[key] = pair_n.get(key, 0) + 1
        pa_, pb_, pn_ = [], [], []
        for (ha, hb), n in pair_n.items():
            pa_.append(ha)
            pb_.append(hb)
            pn_.append(n)
        return pa.table(
            {
                "a": pa.array(
                    pa_ + uh.tolist(), pa.string()
                ),
                "b": pa.array(
                    pb_ + [""] * len(uh), pa.string()
                ),
                "n": pa.array(
                    pn_ + cnt.astype(np.int64).tolist(), pa.int64()
                ),
                "kind": pa.array(
                    [0] * len(pa_) + [1] * len(uh), pa.int8()
                ),
            }
        )

    cat = exchange.bucket_finish(
        ds.map_batches(rows, batch_format="pyarrow"),
        bucket_sweep,
        pa.schema(
            [
                ("a", pa.string()),
                ("b", pa.string()),
                ("n", pa.int64()),
                ("kind", pa.int8()),
            ]
        ),
    )
    kind = cat["kind"].to_numpy(zero_copy_only=False)
    hosts_t = cat.filter(pa.array(kind == 1)).group_by("a").aggregate(
        [("n", "sum")]
    )
    n_by_host = dict(
        zip(
            hosts_t["a"].to_pylist(),
            (int(v) for v in hosts_t["n_sum"].to_pylist()),
        )
    )
    pairs_t = (
        cat.filter(pa.array(kind == 0))
        .group_by(["a", "b"])
        .aggregate([("n", "sum")])
    )
    sh = pairs_t["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    ok = sh >= min_shared
    return _mirror_metrics(
        [
            h
            for h, k in zip(pairs_t["a"].to_pylist(), ok)
            if k
        ],
        [
            h
            for h, k in zip(pairs_t["b"].to_pylist(), ok)
            if k
        ],
        sh[ok],
        n_by_host,
    )


_BOILER_ROW_SCHEMA = pa.schema(
    [
        ("group_h", pa.uint64()),
        ("key_h", pa.uint64()),
        ("n", pa.int64()),
        ("bucket", pa.int32()),
    ]
)


def _boiler_segs(text: str, seg_words: int) -> list[str]:
    """Non-overlapping ``seg_words``-word windows of ``text.split(' ')``
    — the ``segment_rows_batch`` unit, reproduced exactly by SQL
    ``string_split`` + ``range(0, len(w), W)`` (empty text → one empty
    segment on both sides)."""
    words = (text or "").split(" ")
    return [
        " ".join(words[s : s + seg_words])
        for s in range(0, len(words), seg_words)
    ]


def _boiler_finish(group: pa.Table, min_df: int) -> pa.Table:
    """Exact per-key document frequency from associative partials (a
    page's rows are emitted once, so ``sum(n)`` IS count-distinct-url),
    then per-group rollup.  Emits a union table: ``kind 0`` = one row
    per boilerplate key (df ≥ min_df), ``kind 1`` = one row per group
    carrying its distinct-segment count in ``n``."""
    agg = group.group_by(["group_h", "key_h"]).aggregate([("n", "sum")])
    gh = agg["group_h"].to_numpy(zero_copy_only=False)
    kh = agg["key_h"].to_numpy(zero_copy_only=False)
    df = agg["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    hot = df >= min_df
    g_u, g_cnt = np.unique(gh, return_counts=True)
    return pa.table(
        {
            "group_h": pa.array(
                np.concatenate([gh[hot], g_u]), pa.uint64()
            ),
            "key_h": pa.array(
                np.concatenate(
                    [kh[hot], np.zeros(len(g_u), dtype=np.uint64)]
                ),
                pa.uint64(),
            ),
            "n": pa.array(
                np.concatenate([df[hot], g_cnt.astype(np.int64)]),
                pa.int64(),
            ),
            "kind": pa.array(
                np.concatenate(
                    [
                        np.zeros(int(hot.sum()), dtype=np.int8),
                        np.ones(len(g_u), dtype=np.int8),
                    ]
                ),
                pa.int8(),
            ),
        }
    )


_BOILER_PART_SCHEMA = pa.schema(
    [
        ("group_h", pa.uint64()),
        ("key_h", pa.uint64()),
        ("n", pa.int64()),
        ("kind", pa.int8()),
    ]
)


def boilerplate_keys(
    ds,
    group_col: str = "host",
    text_col: str = "text",
    seg_words: int = 10,
    min_df: int = 3,
    num_buckets: int = 512,
):
    """(group, text) rows → (sorted u64 boilerplate-key array, per-group
    stats table (group_h, n_distinct_segments, n_boiler_segments)).

    CCNet-flavoured template detection (arXiv:1911.00359 dedups repeated
    paragraphs; here the repetition scope is WITHIN a group — a host's
    nav/footer template): a segment (fixed ``seg_words``-word window) is
    boilerplate in its group when it occurs in ≥ ``min_df`` distinct
    pages of that group.

    Scale shape — page text never shuffles:
    1. one streaming pass emits skinny per-page DISTINCT segment rows
       (group_h, key_h = h64(group + '\\n' + seg), n=1), pre-summed per
       batch (a page's rows live in one batch, so partial ``sum(n)`` is
       exactly count-distinct-url — the DF reduce is associative and
       needs no distinct shuffle);
    2. DF + per-group rollup finish inside ``key_h % num_buckets``
       groups (a key's partials all land in one bucket), or driver-local
       up to ``exchange.DRIVER_FINISH_MAX`` partial rows (same
       ``_boiler_finish`` kernel — the adaptive tiny-input rule).
    The returned key set is boilerplate-sized (df ≥ min_df segments
    only).  Hash collisions can only FALSELY drop a segment
    (P ≈ n²/2⁶⁵); the DuckDB oracle compares segment STRINGS, so the
    correctness gate would catch one.
    """

    def rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _BOILER_ROW_SCHEMA.empty_table()
        groups = batch[group_col].to_pylist()
        texts = batch[text_col].to_pylist()
        gh_l: list[int] = []
        kh_l: list[int] = []
        for g, t in zip(groups, texts):
            gh = _seg_h64(g or "")
            for seg in set(_boiler_segs(t, seg_words)):
                gh_l.append(gh)
                kh_l.append(_seg_h64((g or "") + "\n" + seg))
        kh = np.array(kh_l, dtype=np.uint64)
        t_ = pa.table(
            {
                "group_h": pa.array(
                    np.array(gh_l, dtype=np.uint64), pa.uint64()
                ),
                "key_h": pa.array(kh, pa.uint64()),
            }
        )
        agg = t_.group_by(["group_h", "key_h"]).aggregate(
            [([], "count_all")]
        )
        kh2 = agg["key_h"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "group_h": agg["group_h"],
                "key_h": agg["key_h"],
                "n": pc.cast(agg["count_all"], pa.int64()),
                "bucket": pa.array(
                    (kh2 % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    cat = exchange.bucket_finish(
        ds.map_batches(rows, batch_format="pyarrow"),
        lambda g: _boiler_finish(g, min_df),
        _BOILER_PART_SCHEMA,
    )
    kind = cat["kind"].to_numpy(zero_copy_only=False)
    keys = np.sort(
        cat["key_h"].to_numpy(zero_copy_only=False)[kind == 0]
    )
    bgh = cat["group_h"].to_numpy(zero_copy_only=False)
    # per-group distinct counts (kind 1 partials sum exactly: a key's
    # rows live in one bucket) and boilerplate counts (kind 0 rows)
    s_gh = bgh[kind == 1]
    s_n = cat["n"].to_numpy(zero_copy_only=False)[kind == 1]
    g_u = np.unique(s_gh)
    dist = np.zeros(len(g_u), dtype=np.int64)
    np.add.at(dist, np.searchsorted(g_u, s_gh), s_n)
    nboil = np.zeros(len(g_u), dtype=np.int64)
    b_gh = bgh[kind == 0]
    if len(b_gh):
        np.add.at(nboil, np.searchsorted(g_u, b_gh), 1)
    stats = pa.table(
        {
            "group_h": pa.array(g_u, pa.uint64()),
            "n_distinct_segments": pa.array(dist, pa.int64()),
            "n_boiler_segments": pa.array(nboil, pa.int64()),
        }
    )
    return keys, stats


def _boiler_rebuild_row(
    g: str, t: str, seg_words: int, dk: np.ndarray
) -> tuple[str, int, int]:
    segs = _boiler_segs(t, seg_words)
    kh = np.array(
        [_seg_h64((g or "") + "\n" + s) for s in segs], dtype=np.uint64
    )
    if len(dk):
        idx = np.searchsorted(dk, kh)
        hit = (idx < len(dk)) & (dk[np.minimum(idx, len(dk) - 1)] == kh)
    else:
        hit = np.zeros(len(segs), dtype=bool)
    clean = " ".join(s for s, d in zip(segs, hit) if not d)
    return clean, len(segs), int(hit.sum())


def boilerplate_removal(
    ds,
    group_col: str = "host",
    id_col: str = "url",
    text_col: str = "text",
    seg_words: int = 10,
    min_df: int = 3,
    num_buckets: int = 512,
    keys_gstats=None,
):
    """(id, group, text) → (id, group, clean_text, n_segments,
    n_dropped): every occurrence of a within-group boilerplate segment
    (see ``boilerplate_keys``) removed, survivors rejoined in order.

    The boilerplate-key set broadcasts once via ``ray.put`` (8 B per
    boilerplate segment — template-sized, NOT corpus-sized; a corpus
    whose template set outgrows plasma would instead bucket-join the
    keys against an id-bucketed rebuild pass, the ``segment_dedup``
    alternative).  ``keys_gstats`` accepts a precomputed
    ``boilerplate_keys(...)`` result (the per-snapshot shared key pass
    — same args) so co-resident queries don't repeat it."""
    import ray

    keys, _ = keys_gstats if keys_gstats is not None else boilerplate_keys(
        ds, group_col, text_col, seg_words, min_df, num_buckets
    )
    k_ref = ray.put(keys)
    out_schema = pa.schema(
        [
            (id_col, pa.string()),
            (group_col, pa.string()),
            ("clean_text", pa.string()),
            ("n_segments", pa.int64()),
            ("n_dropped", pa.int64()),
        ]
    )

    def rebuild(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        dk = ray.get(k_ref)
        ids = batch[id_col].to_pylist()
        groups = batch[group_col].to_pylist()
        texts = batch[text_col].to_pylist()
        clean: list[str] = []
        nseg: list[int] = []
        ndrop: list[int] = []
        for g, t in zip(groups, texts):
            c, ns, nd = _boiler_rebuild_row(g, t, seg_words, dk)
            clean.append(c)
            nseg.append(ns)
            ndrop.append(nd)
        return pa.table(
            {
                id_col: pa.array(ids, pa.string()),
                group_col: pa.array(groups, pa.string()),
                "clean_text": pa.array(clean, pa.string()),
                "n_segments": pa.array(nseg, pa.int64()),
                "n_dropped": pa.array(ndrop, pa.int64()),
            },
            schema=out_schema,
        )

    return ds.map_batches(rebuild, batch_format="pyarrow")


def boilerplate_stats(
    ds,
    group_col: str = "host",
    id_col: str = "url",
    text_col: str = "text",
    seg_words: int = 10,
    min_df: int = 3,
    num_buckets: int = 512,
    keys_gstats=None,
) -> pa.Table:
    """Per-group boilerplate profile: (group, n_pages, n_segments,
    n_distinct_segments, n_boiler_segments, n_dropped).  One extra
    streaming pass over the text emits per-batch per-group partials
    (group-sized — the combiner rule); the driver merges ≤ groups ×
    blocks rows with one Arrow hash-agg.  ``keys_gstats`` accepts a
    precomputed ``boilerplate_keys(...)`` result (same args) so
    co-resident queries share one key pass."""
    import ray

    keys, gstats = (
        keys_gstats
        if keys_gstats is not None
        else boilerplate_keys(
            ds, group_col, text_col, seg_words, min_df, num_buckets
        )
    )
    k_ref = ray.put(keys)
    part_schema = pa.schema(
        [
            ("group", pa.string()),
            ("group_h", pa.uint64()),
            ("n_pages", pa.int64()),
            ("n_segments", pa.int64()),
            ("n_dropped", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_schema.empty_table()
        dk = ray.get(k_ref)
        groups = batch[group_col].to_pylist()
        texts = batch[text_col].to_pylist()
        acc: dict[str, list[int]] = {}
        for g, t in zip(groups, texts):
            _, ns, nd = _boiler_rebuild_row(g, t, seg_words, dk)
            a = acc.setdefault(g or "", [0, 0, 0])
            a[0] += 1
            a[1] += ns
            a[2] += nd
        gs = sorted(acc)
        return pa.table(
            {
                "group": pa.array(gs, pa.string()),
                "group_h": pa.array(
                    np.array([_seg_h64(g) for g in gs], dtype=np.uint64),
                    pa.uint64(),
                ),
                "n_pages": pa.array([acc[g][0] for g in gs], pa.int64()),
                "n_segments": pa.array(
                    [acc[g][1] for g in gs], pa.int64()
                ),
                "n_dropped": pa.array(
                    [acc[g][2] for g in gs], pa.int64()
                ),
            },
            schema=part_schema,
        )

    parts = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    if not parts:
        cat = part_schema.empty_table()
    else:
        cat = pa.concat_tables(parts)
    agg = cat.group_by(["group", "group_h"]).aggregate(
        [("n_pages", "sum"), ("n_segments", "sum"), ("n_dropped", "sum")]
    )
    # join the bucket-derived distinct/boiler counts by group hash
    g_u = gstats["group_h"].to_numpy(zero_copy_only=False)
    agh = agg["group_h"].to_numpy(zero_copy_only=False)
    idx = np.searchsorted(g_u, agh) if len(g_u) else np.zeros(0, np.int64)
    found = (
        (idx < len(g_u)) & (g_u[np.minimum(idx, max(len(g_u) - 1, 0))] == agh)
        if len(g_u)
        else np.zeros(len(agh), dtype=bool)
    )
    dist = np.zeros(len(agh), dtype=np.int64)
    nboil = np.zeros(len(agh), dtype=np.int64)
    if len(g_u):
        dist[found] = gstats["n_distinct_segments"].to_numpy(
            zero_copy_only=False
        )[idx[found]]
        nboil[found] = gstats["n_boiler_segments"].to_numpy(
            zero_copy_only=False
        )[idx[found]]
    return pa.table(
        {
            "group": agg["group"],
            "n_pages": pc.cast(agg["n_pages_sum"], pa.int64()),
            "n_segments": pc.cast(agg["n_segments_sum"], pa.int64()),
            "n_distinct_segments": pa.array(dist, pa.int64()),
            "n_boiler_segments": pa.array(nboil, pa.int64()),
            "n_dropped": pc.cast(agg["n_dropped_sum"], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# quality-aware near-dup canonical selection (keep BEST, not first)
# ---------------------------------------------------------------------------


def _keep_best_tag(joined: pa.Table) -> pa.Table:
    """(doc_id, canonical_id, n_tokens_ws, n_chars_text) rows of one
    canonical bucket → + (keep_id, kept): per cluster, keep the doc
    with the most whitespace tokens, then the most chars, ties → the
    smallest doc_id.  All-integer lexicographic argmax — deterministic
    under any row order, identical to the oracle's row_number() cut."""
    if not joined.num_rows:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "canonical_id": pa.array([], pa.int64()),
                "keep_id": pa.array([], pa.int64()),
                "kept": pa.array([], pa.bool_()),
            }
        )
    doc = joined["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    canon = (
        joined["canonical_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    ntok = (
        joined["n_tokens_ws"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    nch = (
        joined["n_chars_text"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    # one lexsort: within canonical, best-first
    order = np.lexsort((doc, -nch, -ntok, canon))
    c_sorted = canon[order]
    starts = np.flatnonzero(np.diff(c_sorted, prepend=c_sorted[0] - 1))
    keep_sorted = np.repeat(
        doc[order][starts], np.diff(np.append(starts, len(c_sorted)))
    )
    keep = np.empty(len(doc), dtype=np.int64)
    keep[order] = keep_sorted
    return pa.table(
        {
            "doc_id": pa.array(doc, pa.int64()),
            "canonical_id": pa.array(canon, pa.int64()),
            "keep_id": pa.array(keep, pa.int64()),
            "kept": pa.array(keep == doc, pa.bool_()),
        }
    )


def neardup_keep_best_local(
    labels: pa.Table, keys: pa.Table
) -> pa.Table:
    """Driver-local tier: join (doc_id → canonical_id) labels with the
    integer quality keys and tag each cluster's best doc — the
    small-input branch of the adaptive split (`minhash_lsh_pairs_local`
    pattern)."""
    lid = labels["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    kid = keys["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    korder = np.argsort(kid)
    pos = np.searchsorted(kid[korder], lid)
    pos = np.clip(pos, 0, max(len(kid) - 1, 0))
    hit = (len(kid) > 0) & (kid[korder][pos] == lid)
    sel = korder[pos[hit]] if len(kid) else np.zeros(0, np.int64)
    joined = pa.table(
        {
            "doc_id": pa.array(lid[hit], pa.int64()),
            "canonical_id": labels["canonical_id"].filter(pa.array(hit)),
            "n_tokens_ws": keys["n_tokens_ws"].take(pa.array(sel)),
            "n_chars_text": keys["n_chars_text"].take(pa.array(sel)),
        }
    )
    return _keep_best_tag(joined)


def neardup_keep_best(labels_ds, keys_ds, num_buckets: int = 64):
    """Near-dup cluster labels (doc_id, canonical_id[, is_canonical])
    + integer quality keys (doc_id, n_tokens_ws, n_chars_text) →
    (doc_id, canonical_id, keep_id, kept): QUALITY-AWARE keep-one
    dedup — instead of electing the smallest doc_id, each cluster
    keeps its best document (most tokens, then most chars, ties →
    smallest id), the canonical-selection rule production corpus
    pipelines use so dedup never discards the longest copy of a page
    (cf. the dedup stage ordering in Penedo et al., RefinedWeb 2023).

    Scale shape: two skinny integer shuffles, text never moves —
    (1) `hash_bucket_join` on doc_id attaches the keys to the labels
    (md5-bucket co-location, hot-key salting available); (2) rows
    re-bucket by ``canonical_id % num_buckets`` (a cluster lives in
    exactly one bucket) and each bucket tags its clusters with one
    all-integer lexsort pass (`_keep_best_tag`)."""
    import pyarrow as pa  # noqa: F811 — local alias for map fns

    from ..pipelines.relational import hash_bucket_join

    joined = hash_bucket_join(
        labels_ds, keys_ds, on="doc_id", num_buckets=num_buckets
    ).select_columns(
        ["doc_id", "canonical_id", "n_tokens_ws", "n_chars_text"]
    )

    def add_cbucket(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch.append_column(
                "cbucket", pa.array([], pa.int32())
            )
        cb = (
            batch["canonical_id"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            % num_buckets
        ).astype(np.int32)
        return batch.append_column("cbucket", pa.array(cb, pa.int32()))

    return (
        joined.map_batches(add_cbucket, batch_format="pyarrow")
        .groupby("cbucket")
        .map_groups(
            lambda g: _keep_best_tag(g.drop_columns(["cbucket"])),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# content-defined chunking (CDC) dedup estimator
# ---------------------------------------------------------------------------

# Deterministic gear table (NEVER hash(str) — process-salted; house rule):
# gear[b] = md5(byte) digest[:8] little-endian, fixed across processes.
_GEAR = np.array(
    [
        int.from_bytes(hashlib.md5(bytes([i])).digest()[:8], "little")
        for i in range(256)
    ],
    dtype=np.uint64,
)


def cdc_boundaries(data: np.ndarray, mask_bits: int = 8) -> np.ndarray:
    """Gear rolling-hash chunk boundaries over a byte array — cut AFTER
    position ``i`` when the low ``mask_bits`` bits of the gear hash are
    zero (expected chunk length 2**mask_bits bytes).

    The gear recurrence ``h = (h << 1) + gear[b]`` makes ``h``'s low m
    bits a function of ONLY the last m bytes (older terms are shifted
    past bit m), so the masked boundary test needs just m shifted adds:
    ``h_low_i = Σ_{t<m} gear[b_{i-t}] << t`` — fully vectorized, no
    per-byte Python.  No reset at cuts (rsync/Rabin-style continuous
    rolling): every boundary decision is a pure function of the
    preceding m bytes, the locality property CDC dedup relies on (an
    edit can only move boundaries within one window of it).  FastCDC's
    min/max-length normalization is the production extension; it is
    deliberately omitted here to keep the pass branch-free."""
    if len(data) == 0:
        return np.zeros(0, np.int64)
    g = _GEAR[data]
    h = g.copy()
    for t in range(1, mask_bits):
        h[t:] += g[:-t] << np.uint64(t)
    mask = np.uint64((1 << mask_bits) - 1)
    return np.flatnonzero((h & mask) == np.uint64(0))


def cdc_chunk_hashes(
    text: str, mask_bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """text → (chunk_h int64[], chunk_len int64[]) in document order.
    Chunk identity is md5(chunk bytes) digest[8:] little-endian viewed
    int64 (the ``md5_number_lower`` byte convention, shared with
    hash_embed / DSIR)."""
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    n = len(data)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    bpos = cdc_boundaries(data, mask_bits)
    starts = np.concatenate(([0], bpos + 1))
    ends = np.concatenate((bpos + 1, [n]))
    keep = starts < ends  # drop the empty tail when a cut lands on n-1
    starts, ends = starts[keep], ends[keep]
    raw = data.tobytes()
    hs = np.fromiter(
        (
            int.from_bytes(
                hashlib.md5(raw[s:e]).digest()[8:], "little", signed=False
            )
            for s, e in zip(starts.tolist(), ends.tolist())
        ),
        dtype=np.uint64,
        count=len(starts),
    ).view(np.int64)
    return hs, (ends - starts).astype(np.int64)


def _add_doc_bucket(batch: pa.Table) -> pa.Table:
    """per-doc partials → + ``doc_bucket = doc_id % 512`` (the per-doc
    finish's bucket; schema-less empty blocks become typed empties)."""
    if batch.num_rows == 0 or "doc_id" not in batch.column_names:
        return pa.table({"doc_bucket": pa.array([], pa.int32())})
    did = batch["doc_id"].to_numpy(zero_copy_only=False)
    b = (did.view(np.uint64) % np.uint64(512)).astype(np.int32)
    return batch.append_column("doc_bucket", pa.array(b, pa.int32()))


_CDC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_chunks", pa.int64()),
        ("chunk_bytes", pa.int64()),
        ("n_dup_chunks", pa.int64()),
        ("dup_bytes", pa.int64()),
    ]
)


def cdc_dedup_stats(
    ds,
    mask_bits: int = 8,
    num_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Content-defined-chunking dedup estimator — the storage-level
    dedup signal a web-archive / training-corpus store runs (LBFS/
    FastCDC family): chunk every document with a gear rolling hash,
    count identical chunks across the corpus, and report per doc how
    much of it is duplicated elsewhere →
    ``(doc_id, n_chunks, chunk_bytes, n_dup_chunks, dup_bytes)`` for
    every doc with non-empty text.  An occurrence is "dup" when its
    chunk content occurs ≥2 times corpus-wide (including twice in the
    same doc) — exactly a dedup store's "this block is already
    present" test.

    Scale shape (100 TB framing): stage 1 is one streaming pass — per
    batch, per doc: vectorized gear boundaries, per-chunk md5 (a loop
    over ~1/2^mask_bits-density cut points, not bytes), then a
    composite ``np.unique`` pre-agg so the shuffle carries one row per
    DISTINCT (doc, chunk): (bucket, doc_id, chunk_h, occ, bytes_tot) —
    16 bytes of hash instead of chunk text (a ~2^mask_bits× exchange
    cut; text never shuffles).  One chunk-hash bucket shuffle computes
    exact global chunk counts (a chunk lives in exactly one bucket —
    md5 keys are uniform, so the exchange cannot skew) and folds them
    into per-(bucket, doc) dup partials; the per-doc finish is
    adaptive (``exchange.bucket_finish``): driver-side Arrow hash-agg
    up to ``exchange.DRIVER_FINISH_MAX`` partial rows, else a
    doc-hash-bucketed (512) groupby with in-bucket Arrow group_by
    (never a high-cardinality Ray groupby; house rule).

    Oracle: sequential same-math golden (`oracle/goldens.py`) pins the
    distributed orchestration; the chunker itself is pinned by property
    tests (chunks reassemble to the text, boundary locality under
    prefix edits, planted cross-doc duplicate spans detected)."""

    def stage1(batch: pa.Table) -> pa.Table:
        out_b, out_d, out_h, out_o, out_y = [], [], [], [], []
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        for did, text in zip(ids.tolist(), texts):
            hs, lens = cdc_chunk_hashes(text or "", mask_bits)
            if not len(hs):
                continue
            uniq, inv = np.unique(hs, return_inverse=True)
            occ = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
            byt = np.bincount(
                inv, weights=lens, minlength=len(uniq)
            ).astype(np.int64)
            out_b.append(
                (uniq.view(np.uint64) % np.uint64(num_buckets)).astype(
                    np.int32
                )
            )
            out_d.append(np.full(len(uniq), did, np.int64))
            out_h.append(uniq)
            out_o.append(occ)
            out_y.append(byt)
        if not out_b:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_h": pa.array([], pa.int64()),
                    "occ": pa.array([], pa.int64()),
                    "bytes_tot": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(out_b), pa.int32()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "chunk_h": pa.array(np.concatenate(out_h), pa.int64()),
                "occ": pa.array(np.concatenate(out_o), pa.int64()),
                "bytes_tot": pa.array(np.concatenate(out_y), pa.int64()),
            }
        )

    def bucket_partials(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            # schema-less empty block guard (house rule)
            return _CDC_SCHEMA.empty_table()
        h = g["chunk_h"].to_numpy(zero_copy_only=False)
        occ = g["occ"].to_numpy(zero_copy_only=False)
        byt = g["bytes_tot"].to_numpy(zero_copy_only=False)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(h, return_inverse=True)
        cnt = np.bincount(inv, weights=occ, minlength=len(uniq))
        is_dup = (cnt[inv] >= 2)
        du, dinv = np.unique(did, return_inverse=True)
        n_tot = np.bincount(dinv, weights=occ, minlength=len(du))
        y_tot = np.bincount(dinv, weights=byt, minlength=len(du))
        n_dup = np.bincount(
            dinv, weights=occ * is_dup, minlength=len(du)
        )
        y_dup = np.bincount(
            dinv, weights=byt * is_dup, minlength=len(du)
        )
        return pa.table(
            {
                "doc_id": pa.array(du, pa.int64()),
                "n_chunks": pa.array(n_tot.astype(np.int64), pa.int64()),
                "chunk_bytes": pa.array(
                    y_tot.astype(np.int64), pa.int64()
                ),
                "n_dup_chunks": pa.array(
                    n_dup.astype(np.int64), pa.int64()
                ),
                "dup_bytes": pa.array(y_dup.astype(np.int64), pa.int64()),
            }
        )

    def finish_local(t: pa.Table) -> pa.Table:
        agg = t.group_by("doc_id").aggregate(
            [
                ("n_chunks", "sum"),
                ("chunk_bytes", "sum"),
                ("n_dup_chunks", "sum"),
                ("dup_bytes", "sum"),
            ]
        )
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "n_chunks": agg["n_chunks_sum"],
                "chunk_bytes": agg["chunk_bytes_sum"],
                "n_dup_chunks": agg["n_dup_chunks_sum"],
                "dup_bytes": agg["dup_bytes_sum"],
            }
        )

    partials = (
        ds.map_batches(stage1, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_partials, batch_format="pyarrow")
        .map_batches(_add_doc_bucket, batch_format="pyarrow")
    )
    return exchange.bucket_finish(
        partials, finish_local, _CDC_SCHEMA, key="doc_bucket"
    )


# ---------------------------------------------------------------------------
# per-doc n-gram novelty (first-introduction fraction)
# ---------------------------------------------------------------------------

_NOVELTY_PART_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_ngrams", pa.int64()),
        ("n_novel", pa.int64()),
    ]
)


def ngram_novelty(
    ds,
    n: int = 3,
    num_buckets: int = 64,
    text_col: str = "text",
):
    """Per-doc n-gram NOVELTY — reading the corpus in doc_id order, how
    much of each document is genuinely new: →
    ``(doc_id, n_ngrams, n_novel, novelty_ppm)`` for every doc with ≥1
    n-gram, where an n-gram is novel iff this doc holds the MINIMUM
    doc_id among all docs containing it (so the same n-gram is "new"
    exactly once corpus-wide).  The diversity-growth / curriculum
    signal: boilerplate-heavy corpora flatten early (late docs add
    nothing), and per-source novelty curves rank sources by marginal
    value — the Heaps-law counterpart of `doc_zipf_fit`.

    Scale shape: one streaming pass emits per-doc DISTINCT n-gram
    hashes (md5 digest[8:] LE int64 — ``md5_number_lower`` semantics,
    so the SQL oracle groups by the SAME keys and even a 64-bit
    collision behaves identically on both sides); one n-gram-hash
    bucket shuffle (8-byte hashes travel, text never) computes
    min-doc per n-gram and folds per-(bucket, doc) novelty partials in
    the same task; per-doc finish is adaptive (driver Arrow hash-agg
    up to ``exchange.DRIVER_FINISH_MAX`` partial rows, else
    doc-hash-bucketed groupby — the `cdc_dedup_stats` finish).  A
    ubiquitous n-gram skews one bucket's ROW count but the in-bucket
    work is a linear groupby-min (never quadratic), so hot keys cost
    bandwidth, not blowup."""

    def stage1(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        out_d, out_h = [], []
        for did, t in zip(ids.tolist(), texts):
            ngs = _doc_ngrams(t, n)
            if not ngs:
                continue
            hs = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.md5(g.encode("utf-8")).digest()[8:],
                        "little",
                    )
                    for g in ngs
                ),
                dtype=np.uint64,
                count=len(ngs),
            )
            out_d.append(np.full(len(hs), did, np.int64))
            out_h.append(hs)
        if not out_d:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "doc_id": pa.array([], pa.int64()),
                    "ng_h": pa.array([], pa.int64()),
                }
            )
        hs = np.concatenate(out_h)
        return pa.table(
            {
                "bucket": pa.array(
                    (hs % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "ng_h": pa.array(hs.view(np.int64), pa.int64()),
            }
        )

    def bucket_partials(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            # schema-less empty block guard (house rule)
            return _NOVELTY_PART_SCHEMA.empty_table()
        h = g["ng_h"].to_numpy(zero_copy_only=False)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        # lexsort + group boundaries (np.minimum.at is a numpy slow
        # path): within each n-gram group rows are did-ascending, so
        # the group's first row IS its min doc
        order = np.lexsort((did, h))
        h_s, d_s = h[order], did[order]
        new = np.concatenate(([True], h_s[1:] != h_s[:-1]))
        gid = np.cumsum(new) - 1
        first_doc = d_s[np.flatnonzero(new)]
        novel = d_s == first_doc[gid]
        du, dinv = np.unique(d_s, return_inverse=True)
        n_tot = np.bincount(dinv, minlength=len(du)).astype(np.int64)
        n_nov = np.bincount(
            dinv, weights=novel, minlength=len(du)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(du, pa.int64()),
                "n_ngrams": pa.array(n_tot, pa.int64()),
                "n_novel": pa.array(n_nov, pa.int64()),
            }
        )

    def finish_local(t: pa.Table) -> pa.Table:
        agg = t.group_by("doc_id").aggregate(
            [("n_ngrams", "sum"), ("n_novel", "sum")]
        )
        tot = agg["n_ngrams_sum"].to_numpy(zero_copy_only=False)
        nov = agg["n_novel_sum"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "n_ngrams": agg["n_ngrams_sum"],
                "n_novel": agg["n_novel_sum"],
                "novelty_ppm": pa.array(
                    nov * 1_000_000 // tot, pa.int64()
                ),
            }
        )

    partials = (
        ds.map_batches(stage1, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_partials, batch_format="pyarrow")
        .map_batches(_add_doc_bucket, batch_format="pyarrow")
    )
    return exchange.bucket_finish(
        partials,
        finish_local,
        _NOVELTY_PART_SCHEMA.append(pa.field("novelty_ppm", pa.int64())),
        key="doc_bucket",
    )


# ---------------------------------------------------------------------------
# DUST: different URLs with similar (here: byte-identical) text
# ---------------------------------------------------------------------------

_DUST_SCHEMA = pa.schema(
    [
        ("host", pa.string()),
        ("url_a", pa.string()),
        ("url_b", pa.string()),
        ("n_urls", pa.int64()),
    ]
)


def _dust_kernel(
    hosts: np.ndarray, fps: np.ndarray, urls: np.ndarray, max_group: int
) -> pa.Table:
    """distinct (host, fp, url) rows → alias-pair table.  One lexsort
    by (host, fp, url); runs of 2..max_group urls emit their pairs in
    url-sorted order (runs are bounded by the cap, so the pair loop is
    O(cap²) per group, never corpus-quadratic)."""
    order = np.lexsort((urls, fps, hosts))
    hh, ff, uu = hosts[order], fps[order], urls[order]
    n = len(uu)
    out_h: list = []
    out_a: list = []
    out_b: list = []
    out_n: list = []
    if n:
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = (ff[1:] != ff[:-1]) | (hh[1:] != hh[:-1])
        starts = np.flatnonzero(new)
        bounds = list(starts) + [n]
        for si in range(len(bounds) - 1):
            i, j = bounds[si], bounds[si + 1]
            g = j - i
            if 2 <= g <= max_group:
                run = uu[i:j]
                for x in range(g):
                    for y in range(x + 1, g):
                        out_h.append(hh[i])
                        out_a.append(run[x])
                        out_b.append(run[y])
                        out_n.append(g)
    return pa.table(
        {
            "host": pa.array(out_h, pa.string()),
            "url_a": pa.array(out_a, pa.string()),
            "url_b": pa.array(out_b, pa.string()),
            "n_urls": pa.array(out_n, pa.int64()),
        }
    )


def dust_url_pairs(
    ds,
    url_col: str = "url",
    host_col: str = "host",
    text_col: str = "text",
    max_group: int = 64,
    num_buckets: int = 256,
):
    """DUST detection — Different URLs with Similar Text (Bar-Yossef,
    Keidar & Schonfeld, WWW 2007 "Do not crawl in the DUST"): urls on
    the SAME host serving byte-identical canonical text (tracking
    params, print views, session ids) → (host, url_a, url_b, n_urls)
    alias pairs, url_a < url_b, ``n_urls`` = alias-group size.  A
    frontier prioritizer reads this to derive url-normalization rules
    and stop spending fetch budget on aliases — the within-host
    complement of `mirror_host_pairs` (cross-host replicas).

    Reference parity: the reference's per-site crawler dedups by exact
    url string only (scrapy dupefilter); content-identity aliasing is
    the web-scale generalization its frontier would need.

    Scale shape: text never shuffles — one streaming pass emits skinny
    (host, fp, url) rows with fp = md5 digest[8:] LE int64
    (``md5_number_lower`` semantics, so the SQL oracle groups by the
    SAME 64-bit keys and even a collision behaves identically on both
    sides); one fp-bucket shuffle (a (host, fp) group lands in exactly
    one ``fp % num_buckets`` bucket); per-bucket sort + run sweep with
    the ``max_group`` DF cap (a corpus-wide empty-text group would
    otherwise emit k² pairs; the oracle applies the identical cap).
    Adaptive: up to ``exchange.DRIVER_FINISH_MAX`` rows finish
    driver-local with the same kernel (forced-path agreement in
    tests)."""

    def rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or url_col not in batch.column_names:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "fp": pa.array([], pa.uint64()),
                    "url": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        fps = np.array(
            [
                md5_lower64((t or "").encode("utf-8"))
                for t in batch[text_col].to_pylist()
            ],
            dtype=np.uint64,
        )
        return pa.table(
            {
                "host": batch[host_col],
                "fp": pa.array(fps, pa.uint64()),
                "url": batch[url_col],
                "bucket": pa.array(
                    (fps % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def sweep(g: pa.Table) -> pa.Table:
        return _dust_kernel(
            np.array(g["host"].to_pylist(), dtype=object),
            g["fp"].to_numpy(zero_copy_only=False),
            np.array(g["url"].to_pylist(), dtype=object),
            max_group,
        )

    return exchange.bucket_finish(
        ds.map_batches(rows, batch_format="pyarrow"), sweep, _DUST_SCHEMA
    )


# ---------------------------------------------------------------------------
# corpus-level paragraph (line) dedup — CCNet-style keep-first
# ---------------------------------------------------------------------------

_PARA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_lines", pa.int64()),
        ("n_kept", pa.int64()),
        ("fp_dedup", pa.uint64()),
    ]
)


def paragraph_dedup_stats(
    ds,
    text_col: str = "text",
    num_buckets: int = 256,
    doc_buckets: int = 64,
):
    """Corpus-level paragraph dedup (Wenzek et al. 2020 "CCNet" §3
    first-stage dedup, keep-first flavor): a NON-EMPTY line is kept
    only in the document with the MINIMUM ``(doc_id, line_index)``
    among all documents containing that exact line; every later
    occurrence is dropped.  → ``(doc_id, n_lines, n_kept, fp_dedup)``
    where ``fp_dedup`` is the md5 digest[8:] LE int64
    (``md5_number_lower``) of the kept lines re-joined with ``\\n`` —
    so the oracle verifies the REBUILT text bit-for-bit without the
    query shipping it.

    Scale shape — the curate-family two-exchange pattern:

    1. one streaming pass emits skinny ``(line_h, doc_id, idx)`` rows
       (8-byte line hashes travel, text does not);
    2. ``line_h % num_buckets`` groupby picks each line's keeper
       (min (doc_id, idx) — a line's rows meet in exactly one bucket)
       and emits DROP rows only (the duplicated minority);
    3. drops route back by ``doc_id % doc_buckets`` and the rebuild
       pass re-splits each doc locally (text moves once, partitioned
       by doc — the deboiler rebuild shape) to count + fingerprint the
       surviving lines."""

    def line_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return pa.table(
                {
                    "lh": pa.array([], pa.uint64()),
                    "doc_id": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        out_h: list[int] = []
        out_d: list[int] = []
        out_i: list[int] = []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch[text_col].to_pylist()
        ):
            for i, line in enumerate((t or "").split("\n")):
                if line:
                    out_h.append(
                        md5_lower64(line.encode("utf-8"))
                    )
                    out_d.append(did)
                    out_i.append(i)
        lh = np.array(out_h, dtype=np.uint64)
        return pa.table(
            {
                "lh": pa.array(lh, pa.uint64()),
                "doc_id": pa.array(out_d, pa.int64()),
                "idx": pa.array(out_i, pa.int64()),
                "bucket": pa.array(
                    (lh % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def pick_drops(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "idx": pa.array([], pa.int64()),
                "doc_bucket": pa.array([], pa.int32()),
            }
        )
        if g.num_rows == 0 or "lh" not in g.column_names:
            return empty
        lh = g["lh"].to_numpy(zero_copy_only=False)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        idx = g["idx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((idx, did, lh))
        lhs = lh[order]
        first = np.empty(len(lhs), bool)
        if len(lhs):
            first[0] = True
            first[1:] = lhs[1:] != lhs[:-1]
        drop = order[~first]
        return pa.table(
            {
                "doc_id": pa.array(did[drop], pa.int64()),
                "idx": pa.array(idx[drop], pa.int64()),
                "doc_bucket": pa.array(
                    (did[drop] % doc_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    drops = (
        ds.map_batches(line_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pick_drops, batch_format="pyarrow")
    )

    def tag_docs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "doc_bucket": pa.array([], pa.int32()),
                }
            )
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "idx": pa.array(
                    np.full(len(did), -1, np.int64), pa.int64()
                ),
                "text": pc.cast(batch[text_col], pa.string()),
                "doc_bucket": pa.array(
                    (did % doc_buckets).astype(np.int32), pa.int32()
                ),
            }
        )

    def add_null_text(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "doc_bucket": pa.array([], pa.int32()),
                }
            )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "idx": batch["idx"],
                "text": pa.array([None] * batch.num_rows, pa.string()),
                "doc_bucket": batch["doc_bucket"],
            }
        )

    both = ds.map_batches(tag_docs, batch_format="pyarrow").union(
        drops.map_batches(add_null_text, batch_format="pyarrow")
    )

    def rebuild(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            return _PARA_SCHEMA.empty_table()
        drops_by_doc: dict[int, set[int]] = {}
        docs: list[tuple[int, str]] = []
        for did, ix, t in zip(
            g["doc_id"].to_pylist(), g["idx"].to_pylist(),
            g["text"].to_pylist(),
        ):
            if ix is not None and ix >= 0:
                drops_by_doc.setdefault(did, set()).add(ix)
            else:
                docs.append((did, t))
        out_d, out_n, out_k, out_f = [], [], [], []
        for did, t in docs:
            dropped = drops_by_doc.get(did, ())
            kept: list[str] = []
            n_lines = 0
            for i, line in enumerate((t or "").split("\n")):
                if not line:
                    continue
                n_lines += 1
                if i not in dropped:
                    kept.append(line)
            out_d.append(did)
            out_n.append(n_lines)
            out_k.append(len(kept))
            out_f.append(
                md5_lower64("\n".join(kept).encode("utf-8"))
            )
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "n_lines": pa.array(out_n, pa.int64()),
                "n_kept": pa.array(out_k, pa.int64()),
                "fp_dedup": pa.array(
                    np.array(out_f, dtype=np.uint64), pa.uint64()
                ),
            }
        )

    parts = [
        t
        for t in exchange.blocks(
            both.groupby("doc_bucket").map_groups(
                rebuild, batch_format="pyarrow"
            )
        )
        if "doc_id" in t.column_names
    ]
    if not parts:
        return _PARA_SCHEMA.empty_table()
    return pa.concat_tables(parts)
