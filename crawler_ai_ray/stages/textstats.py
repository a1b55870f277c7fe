"""Text-analysis stages over a ``documents``-style table
(doc_id, text, lang, source, n_chars) — the operations a large-scale
training-data pipeline needs on top of the crawl engine:

* token counting (whitespace + BPE-ish regex), quality scoring
  (length / punctuation / stopword / alpha ratios), language-ID
  (stopword-count n-gram heuristic), document fingerprinting
  (64-bit polynomial rolling hash).

Design notes (100 TB framing):

* every kernel is vectorized ``pyarrow.compute`` over zero-copy Arrow
  batches — ``count_substring_regex`` / ``utf8_length`` run RE2 in C++,
  no Python-per-row work except the fingerprint (numpy Horner, still
  C-speed per doc);
* pyarrow and DuckDB both use RE2, so every count here is *exactly*
  reproducible by the DuckDB oracle SQL (``__ray_entry__.oracle_sql``)
  — integer counts and single-division ratios, no float-summation
  ambiguity;
* stages are stateless ``map_batches`` tasks (regex compile cost lives
  in Arrow's kernel cache, not per batch);
* only the columns a stage needs should be read
  (``read_parquet(columns=[...])`` upstream) — text analysis never
  needs the full table width.

Reference parity: the reference counts "words" by ``len(text.split())``
(e.g. job_extraction_service.py:1102-1118 summarizer limits) and scores
pages by keyword counts (scrapy_career_spider.py:497-546); these stages
generalize that to corpus-scale document statistics.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import exchange

__all__ = [
    "token_stats_batch",
    "quality_batch",
    "langid_batch",
    "fingerprint_batch",
    "pii_redact_batch",
    "stratified_sample",
    "repetition_batch",
    "distinctive_terms",
    "cooccurrence_topk",
    "grouped_quantiles",
    "ddsketch_quantiles",
    "dd_bin",
    "dd_estimate",
    "bpe_train",
    "bpe_apply",
    "bpe_merges_from_counts",
    "bpe_encode_word",
    "corpus_word_counts",
    "mix_weights",
    "doc_commonness",
    "classifier_batch",
    "LANG_STOPWORDS",
    "BPE_TOKEN_RE",
    "PUNCT_RE",
    "PII_EMAIL_RE",
    "PII_PHONE_RE",
]

# Non-overlapping leftmost matches — identical semantics in pyarrow's RE2
# and DuckDB's regexp_extract_all (both RE2).
WS_TOKEN_RE = r"\S+"                       # == len(text.split())
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"  # BPE-ish pre-tokenizer
PUNCT_RE = r"[.,;:!?\"'()\[\]{}<>/@#$%^&*_+=|\\~`-]"
ALPHA_RE = r"[A-Za-z]"
DIGIT_RE = r"[0-9]"

# Stopword heuristics for language ID.  Scored in FIXED order; argmax
# with strict-greater comparison ⇒ deterministic tie-break to the
# earlier language.  'zh' wins outright when CJK chars are present.
LANG_STOPWORDS: list[tuple[str, str]] = [
    ("en", r"\b(the|and|is|of|to|in|that|it|for|was|with|are|this|have)\b"),
    ("de", r"\b(der|die|das|und|ist|nicht|mit|ein|eine|zu|den|von|im|für)\b"),
    ("fr", r"\b(le|la|les|et|est|dans|pour|que|une|des|du|il|au|sur)\b"),
    ("es", r"\b(el|los|las|es|en|por|una|del|con|para|se|su|lo|más)\b"),
]
CJK_RE = r"[一-鿿]"

# English stopwords for the quality score's stopword ratio.
QUALITY_STOPWORD_RE = (
    r"\b(the|a|an|and|or|but|of|to|in|on|at|for|with|is|are|was|were)\b"
)


def _count(arr: pa.Array, pattern: str) -> pa.Array:
    return pc.count_substring_regex(arr, pattern)


def token_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """→ (doc_id, n_tokens_ws, n_tokens_bpe, n_chars_text)."""
    t = batch[text_col]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens_ws": pc.cast(_count(t, WS_TOKEN_RE), pa.int64()),
            "n_tokens_bpe": pc.cast(_count(t, BPE_TOKEN_RE), pa.int64()),
            "n_chars_text": pc.cast(pc.utf8_length(t), pa.int64()),
        }
    )


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-signal columns.  Ratios are single divisions of exact
    integer counts — bitwise-reproducible by the DuckDB oracle."""
    t = batch[text_col]
    n_chars = pc.cast(pc.utf8_length(t), pa.int64())
    n_ws = pc.cast(_count(t, WS_TOKEN_RE), pa.int64())
    n_punct = pc.cast(_count(t, PUNCT_RE), pa.int64())
    n_alpha = pc.cast(_count(t, ALPHA_RE), pa.int64())
    n_digit = pc.cast(_count(t, DIGIT_RE), pa.int64())
    n_stop = pc.cast(_count(t, QUALITY_STOPWORD_RE), pa.int64())
    denom = pc.cast(pc.max_element_wise(n_chars, 1), pa.float64())
    tok_denom = pc.cast(pc.max_element_wise(n_ws, 1), pa.float64())
    punct_ratio = pc.divide(pc.cast(n_punct, pa.float64()), denom)
    alpha_ratio = pc.divide(pc.cast(n_alpha, pa.float64()), denom)
    digit_ratio = pc.divide(pc.cast(n_digit, pa.float64()), denom)
    stopword_ratio = pc.divide(pc.cast(n_stop, pa.float64()), tok_denom)
    mean_word_len = pc.divide(pc.cast(n_chars, pa.float64()), tok_denom)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars_text": n_chars,
            "n_tokens_ws": n_ws,
            "n_punct": n_punct,
            "n_alpha": n_alpha,
            "n_digit": n_digit,
            "n_stopwords": n_stop,
            "punct_ratio": punct_ratio,
            "alpha_ratio": alpha_ratio,
            "digit_ratio": digit_ratio,
            "stopword_ratio": stopword_ratio,
            "mean_word_len": mean_word_len,
        }
    )


def langid_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Predicted language per doc (n-gram/stopword heuristic).

    'zh' if any CJK char; otherwise argmax over per-language stopword
    counts (fixed order, strict >, default 'und' when all zero)."""
    t = pc.utf8_lower(batch[text_col])
    cjk = pc.greater(_count(t, CJK_RE), 0)
    counts = [
        _count(t, pat).to_numpy(zero_copy_only=False)
        for _lang, pat in LANG_STOPWORDS
    ]
    mat = np.stack(counts, axis=0)           # (langs, rows)
    best = np.argmax(mat, axis=0)            # first max wins (fixed order)
    any_hit = mat.max(axis=0) > 0
    langs = np.array([lang for lang, _ in LANG_STOPWORDS])
    pred = np.where(any_hit, langs[best], "und")
    pred = np.where(cjk.to_numpy(zero_copy_only=False), "zh", pred)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "pred_lang": pa.array(pred.tolist(), type=pa.string()),
        }
    )


# --- fingerprint: 64-bit polynomial rolling hash (Karp–Rabin) ------------

_FP_BASE = np.uint64(1099511628211)  # FNV prime as polynomial base


def _poly_hash_u64(data: bytes) -> int:
    """Horner-scheme polynomial hash mod 2^64 over utf-8 bytes, numpy-
    vectorized (cumulative powers + dot), identical across platforms."""
    if not data:
        return 0
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    n = len(b)
    with np.errstate(over="ignore"):
        pows = np.empty(n, dtype=np.uint64)
        pows[0] = np.uint64(1)
        if n > 1:
            np.cumprod(np.full(n - 1, _FP_BASE, dtype=np.uint64), out=pows[1:])
        # hash = sum b[i] * BASE^(n-1-i)  (mod 2^64, wrap-around mul/add)
        return int(np.multiply(b, pows[::-1]).sum(dtype=np.uint64))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """→ (doc_id, fingerprint:uint64 as int64-bitcast, fp_md5:string).

    ``fingerprint`` is the rolling-hash (engine-native, fast path);
    ``fp_md5`` is the portable form the DuckDB oracle can recompute."""
    import hashlib

    t = batch[text_col]
    # normalize exactly like the oracle SQL: lower + collapse whitespace
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(t), r"\s+", " ")
    )
    texts = norm.to_pylist()
    fps = [_poly_hash_u64(s.encode("utf-8")) for s in texts]
    md5s = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in texts]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(
                [np.uint64(f).astype(np.int64).item() for f in fps],
                type=pa.int64(),
            ),
            "fp_md5": pa.array(md5s, type=pa.string()),
        }
    )


# --- corpus vocabulary: exact distributed top-k terms ---------------------

def top_terms(ds, k: int = 100, num_buckets: int = 64,
              text_col: str = "text"):
    """documents → the k most frequent ``[a-z]+`` terms, exactly.

    Shape (100 TB framing): per-batch Arrow ``group_by`` combiner first
    (the shuffle moves O(vocab-per-batch) rows, not O(tokens)); the only
    Ray shuffle has ``num_buckets`` groups keyed by ``crc32(term) %
    num_buckets`` — a term lives in exactly one bucket, so per-bucket
    totals are exact and a bucket's local top-k is globally safe; the
    final rank is a driver-side Arrow sort over ≤ ``num_buckets × k``
    candidate rows.  No sketch needed — exactness is what lets the
    DuckDB oracle verify the whole path.  Tokenization is
    ``split(lower(text), '[^a-z]+')`` = RE2 ``[a-z]+`` extraction, so
    the SQL side reproduces it byte-for-byte."""
    import zlib

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        flat = pc.list_flatten(
            toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        )
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = (
            pa.table({"term": flat})
            .group_by("term")
            .aggregate([([], "count_all")])
        )
        terms = agg["term"].to_pylist()  # post-combine uniques only
        buckets = pa.array(
            [zlib.crc32(t.encode()) % num_buckets for t in terms],
            pa.int32(),
        )
        return pa.table(
            {
                "bucket": buckets,
                "term": agg["term"],
                "n": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    def bucket_topk(group: pa.Table) -> pa.Table:
        agg = group.group_by("term").aggregate([("n", "sum")])
        top = agg.sort_by(
            [("n_sum", "descending"), ("term", "ascending")]
        ).slice(0, k)
        return pa.table({"term": top["term"], "n": top["n_sum"]})

    cand = exchange.blocks(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_topk, batch_format="pyarrow")
    )
    if not cand:  # empty / all-blank corpus: typed empty result
        return pa.table(
            {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    return (
        pa.concat_tables(cand)
        .sort_by([("n", "descending"), ("term", "ascending")])
        .slice(0, k)
    )


# --- repetition / Gopher-style quality filter -----------------------------

def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc repetition signals (the Gopher-rules family — Rae et al.
    2021 §A1.1 "repetition" filters, as used by C4/Gopher-style corpus
    cleaning): → (doc_id, n_tokens, top_unigram_occ, dup_bigram_occ,
    n_bigrams, top_unigram_frac, dup_bigram_frac, repetition_keep).

    * ``top_unigram_occ`` — occurrences of the most frequent token;
    * ``dup_bigram_occ`` — bigram occurrences whose bigram appears ≥2×
      in the doc (the "fraction of characters in duplicate n-grams"
      signal, on token counts so it stays integer-exact);
    * fractions are single divisions of those exact ints, and the keep
      rule is integer-only (cross-multiplied), so the DuckDB oracle
      reproduces every value bit-for-bit.

    Fully vectorized across the batch: one RE2 split, then numpy
    factorize + composite-key ``np.unique`` counting over (doc, gram)
    — no Python loop over rows.  Tokenization is ``[a-z]+`` on the
    lowered text, identical to ``top_terms`` and the SQL side."""
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(pc.utf8_lower(batch[text_col]), "[^a-z]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    parents = parents[keep]
    words = flat.to_numpy(zero_copy_only=False)[keep]
    n_docs = batch.num_rows
    n_tok = np.bincount(parents, minlength=n_docs).astype(np.int64)

    top1 = np.zeros(n_docs, dtype=np.int64)
    dup2 = np.zeros(n_docs, dtype=np.int64)
    if len(words):
        _, codes = np.unique(words, return_inverse=True)
        codes = codes.astype(np.int64)
        v = np.int64(len(_))
        # unigram counts per (doc, token)
        uni_key = parents.astype(np.int64) * v + codes
        uk, uc = np.unique(uni_key, return_counts=True)
        np.maximum.at(top1, (uk // v).astype(np.int64), uc.astype(np.int64))
        # bigrams: consecutive positions within the same doc (parents is
        # non-decreasing by construction of list_parent_indices)
        same = parents[1:] == parents[:-1]
        if same.any():
            bp = parents[:-1][same].astype(np.int64)
            ba, bb = codes[:-1][same], codes[1:][same]
            bg_key = (bp * v + ba) * v + bb
            bk, bc = np.unique(bg_key, return_counts=True)
            dup_mask = bc >= 2
            np.add.at(
                dup2,
                (bk[dup_mask] // (v * v)).astype(np.int64),
                (bc[dup_mask]).astype(np.int64),
            )
    n_bi = np.maximum(n_tok - 1, 0)
    tok_den = np.maximum(n_tok, 1).astype(np.float64)
    bi_den = np.maximum(n_bi, 1).astype(np.float64)
    # integer-only keep rule: top1/n ≤ 0.2  ∧  dup2/nbi ≤ 0.4  ∧  n ≥ 10
    keep_flag = (
        (top1 * 5 <= n_tok) & (dup2 * 5 <= n_bi * 2) & (n_tok >= 10)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "top_unigram_occ": pa.array(top1, type=pa.int64()),
            "dup_bigram_occ": pa.array(dup2, type=pa.int64()),
            "n_bigrams": pa.array(n_bi, type=pa.int64()),
            "top_unigram_frac": pa.array(top1 / tok_den, type=pa.float64()),
            "dup_bigram_frac": pa.array(dup2 / bi_den, type=pa.float64()),
            "repetition_keep": pa.array(keep_flag, type=pa.bool_()),
        }
    )


# --- PII redaction --------------------------------------------------------

# RE2 patterns shared verbatim with the DuckDB oracle (both engines run
# RE2 with leftmost-non-overlapping semantics, so counts AND replacement
# spans are byte-identical).  Emails are redacted BEFORE phones so a
# digit-bearing local-part can't be half-eaten by the phone pattern —
# the oracle nests its regexp_replace calls in the same order.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?[0-9][0-9 .()-]{7,14}[0-9]"


def pii_redact_batch(
    batch: pa.Table,
    key_col: str = "url",
    text_col: str = "text",
) -> pa.Table:
    """→ (key, n_emails, n_phones, text_redacted).

    The scrub a training-data pipeline runs before tokenization: count
    then replace email/phone spans with placeholder tokens.  Pure
    ``pyarrow.compute`` RE2 — two ``count_substring_regex`` and two
    ``replace_substring_regex`` C++ kernel passes per batch, zero
    Python-per-row work.  Generalizes the reference's contact
    *extraction* regexes (crawler_ai/utils/contact_extractor.py —
    emails/phones harvested per page) into the inverse redaction
    operator over the same text."""
    t = batch[text_col]
    n_emails = pc.cast(_count(t, PII_EMAIL_RE), pa.int64())
    n_phones = pc.cast(_count(t, PII_PHONE_RE), pa.int64())
    red = pc.replace_substring_regex(
        pc.replace_substring_regex(t, PII_EMAIL_RE, "<EMAIL>"),
        PII_PHONE_RE,
        "<PHONE>",
    )
    return pa.table(
        {
            key_col: batch[key_col],
            "n_emails": n_emails,
            "n_phones": n_phones,
            "text_redacted": red,
        }
    )


# --- stratified per-language sampling -------------------------------------

def _hash_rank_key(batch: pa.Table) -> pa.Table:
    """Append the deterministic sampling sort key ``rank_md5`` =
    md5(str(doc_id)) — hash-based so the per-stratum order is stable
    across runs, partition layouts and engines (DuckDB:
    ``md5(CAST(doc_id AS VARCHAR))``)."""
    import hashlib

    keys = [
        hashlib.md5(str(i).encode()).hexdigest()
        for i in batch["doc_id"].to_pylist()
    ]
    return batch.append_column("rank_md5", pa.array(keys, type=pa.string()))


def _topk_per_lang(tbl: pa.Table, quota: int) -> pa.Table:
    """Keep the first ``quota`` rows per ``lang`` by (rank_md5, doc_id)
    order, assigning ``sample_rank`` 1..quota.  Vectorized: one Arrow
    sort + a numpy segmented cumcount over the sorted lang codes."""
    if tbl.num_rows == 0:
        return tbl.append_column("sample_rank", pa.array([], type=pa.int64()))
    s = tbl.sort_by(
        [("lang", "ascending"), ("rank_md5", "ascending"),
         ("doc_id", "ascending")]
    )
    langs = s["lang"].to_numpy(zero_copy_only=False)
    # rank within each run of equal langs (sorted ⇒ runs are groups)
    new_run = np.ones(len(langs), dtype=bool)
    new_run[1:] = langs[1:] != langs[:-1]
    starts = np.flatnonzero(new_run)
    idx = np.arange(len(langs), dtype=np.int64)
    rank = idx - np.repeat(starts, np.diff(np.append(starts, len(langs)))) + 1
    s = s.append_column("sample_rank", pa.array(rank, type=pa.int64()))
    return s.filter(pa.array(rank <= quota))


def stratified_sample(ds, quota: int = 32):
    """documents → an exact per-language quota sample:
    (doc_id, lang, n_chars, sample_rank 1..quota), ranked by
    md5(doc_id) with doc_id tie-break.

    Shape (100 TB framing): a per-batch combiner keeps ≤ langs×quota
    candidate rows per block (the hash-rank top-k is decomposable:
    the global top-quota is a subset of the union of per-block
    top-quotas), then one tiny ``groupby(lang).map_groups`` re-ranks
    ≤ blocks×quota rows per language.  ``lang`` is low-cardinality by
    nature (the CLAUDE.md high-cardinality-groupby rule doesn't bite),
    and the shuffle moves only candidate rows, never the corpus.  For
    corpora where blocks×quota itself is large, the same combiner
    composes into a tree (combine per block → per node → global)."""

    def combiner(batch: pa.Table) -> pa.Table:
        return _topk_per_lang(_hash_rank_key(batch), quota).drop_columns(
            ["sample_rank"]
        )

    def finalize(group: pa.Table) -> pa.Table:
        return _topk_per_lang(group, quota).drop_columns(["rank_md5"])

    return (
        ds.map_batches(combiner, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(finalize, batch_format="pyarrow")
    )


# --- distinctive terms: TF ⋈ corpus-DF join + per-doc top-k ---------------

def _tf_rows_batch(batch: pa.Table, num_buckets: int) -> pa.Table:
    """docs → (doc_id, term, tf, term_bucket) rows.  TF per (doc, term)
    is complete per batch because a document is one row.  Vectorized:
    RE2 split + composite-key ``np.unique`` counting (no row loop)."""
    import zlib

    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    parents = parents[keep]
    words = flat.to_numpy(zero_copy_only=False)[keep]
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if not len(words):
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "term_bucket": pa.array([], pa.int32()),
            }
        )
    vocab, codes = np.unique(words, return_inverse=True)
    v = np.int64(len(vocab))
    key = parents.astype(np.int64) * v + codes.astype(np.int64)
    uk, uc = np.unique(key, return_counts=True)
    doc_idx = (uk // v).astype(np.int64)
    term_idx = (uk % v).astype(np.int64)
    vb = np.array(
        [zlib.crc32(t.encode()) % num_buckets for t in vocab], dtype=np.int32
    )
    return pa.table(
        {
            "doc_id": pa.array(ids[doc_idx], type=pa.int64()),
            "term": pa.array(vocab[term_idx], type=pa.string()),
            "tf": pa.array(uc, type=pa.int64()),
            "term_bucket": pa.array(vb[term_idx], type=pa.int32()),
        }
    )


def distinctive_terms(ds, k: int = 3, num_buckets: int = 64):
    """documents → each doc's k most distinctive terms, exactly:
    rank by (tf desc, corpus-df asc, term asc) → (doc_id, term, tf,
    df, rank 1..k).  The integer-exact cousin of TF-IDF (monotone in
    tf and 1/df), chosen so the DuckDB window-function oracle matches
    bit-for-bit — no float log scores.

    Shape (100 TB framing): two bounded-group bucketed shuffles of
    narrow (doc_id, term-hash, int) rows — never text bodies:
      1. TF rows bucket by ``crc32(term) % B``; a term lives in exactly
         one bucket, so per-bucket DF (count of distinct docs per term)
         is exact and the TF⋈DF join is bucket-local Arrow;
      2. joined rows re-bucket by ``hash(doc_id) % B``; per-doc top-k
         is a bucket-local sort + segmented rank (no per-doc group
         calls — the CLAUDE.md high-cardinality-groupby rule).
    Rows shuffled are O(distinct terms per doc) with 4 narrow columns
    — the standard TF-IDF exchange cost."""

    def tf_stage(batch: pa.Table) -> pa.Table:
        return _tf_rows_batch(batch, num_buckets)

    def df_join(group: pa.Table) -> pa.Table:
        # DF per term inside the bucket (complete by construction)
        agg = group.group_by("term").aggregate([("doc_id", "count_distinct")])
        df = pa.table(
            {
                "term": agg["term"],
                "df": pc.cast(agg["doc_id_count_distinct"], pa.int64()),
            }
        )
        joined = group.select(["doc_id", "term", "tf"]).join(
            df, keys="term", join_type="inner"
        )
        db = pa.array(
            (joined["doc_id"].to_numpy(zero_copy_only=False) % num_buckets)
            .astype(np.int32),
            type=pa.int32(),
        )
        return joined.append_column("doc_bucket", db)

    def doc_topk(group: pa.Table) -> pa.Table:
        s = group.sort_by(
            [
                ("doc_id", "ascending"),
                ("tf", "descending"),
                ("df", "ascending"),
                ("term", "ascending"),
            ]
        )
        docs = s["doc_id"].to_numpy(zero_copy_only=False)
        new_run = np.ones(len(docs), dtype=bool)
        new_run[1:] = docs[1:] != docs[:-1]
        starts = np.flatnonzero(new_run)
        idx = np.arange(len(docs), dtype=np.int64)
        rank = idx - np.repeat(
            starts, np.diff(np.append(starts, len(docs)))
        ) + 1
        s = s.append_column("rank", pa.array(rank, type=pa.int64()))
        return s.filter(pa.array(rank <= k)).select(
            ["doc_id", "term", "tf", "df", "rank"]
        )

    return (
        ds.map_batches(tf_stage, batch_format="pyarrow")
        .groupby("term_bucket")
        .map_groups(df_join, batch_format="pyarrow")
        .groupby("doc_bucket")
        .map_groups(doc_topk, batch_format="pyarrow")
    )


# --- deterministic hash sampling ------------------------------------------

def pack_blocks(ds, block_tokens: int = 2048, text_col: str = "text"):
    """Sequence packing — the step that turns a curated corpus into
    fixed-size training blocks: docs in ``doc_id`` order are assigned
    to consecutive ``block_tokens``-sized blocks by their GLOBAL
    cumulative token count → (doc_id, n_tokens, cum_before, block_id)
    with ``block_id = cum_before // block_tokens``.

    This is a distributed prefix sum (scan), an execution shape none of
    the other operators need: pass 1 computes per-block partial sums
    over a materialized (doc_id, n_tokens) manifest, the driver turns
    the O(blocks) partials into exclusive offsets, and pass 2 adds
    ``offset + local exclusive cumsum`` per block.  Correctness needs
    blocks to be disjoint ``doc_id`` ranges: pass 1 verifies this from
    the same partials (min/max per block) and falls back to one
    ``sort(doc_id)`` shuffle only when the input is genuinely unordered
    — a corpus manifest at scale is already range-partitioned by id, so
    the scan is shuffle-free on the happy path.  The manifest carries
    no text (16 B/doc), so materializing it is the cluster-scale
    checkpoint a packing job would write anyway."""
    import ray

    def count(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(
                    _count(batch[text_col], WS_TOKEN_RE), pa.int64()
                ),
            }
        )

    counts = ds.map_batches(count, batch_format="pyarrow").materialize()

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "min_doc": pa.array([], pa.int64()),
                    "max_doc": pa.array([], pa.int64()),
                    "sum_tokens": pa.array([], pa.int64()),
                }
            )
        ids = batch["doc_id"]
        return pa.table(
            {
                "min_doc": pa.array(
                    [pc.min(ids).as_py()], pa.int64()
                ),
                "max_doc": pa.array(
                    [pc.max(ids).as_py()], pa.int64()
                ),
                "sum_tokens": pa.array(
                    [pc.sum(batch["n_tokens"]).as_py() or 0], pa.int64()
                ),
            }
        )

    parts = (
        counts.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values("min_doc")
    )
    ranges_ok = all(
        parts["max_doc"].iloc[i] < parts["min_doc"].iloc[i + 1]
        for i in range(len(parts) - 1)
    )
    if not ranges_ok:
        # unordered input: pay one sort shuffle, then re-derive partials
        counts = counts.sort("doc_id").materialize()
        parts = (
            counts.map_batches(
                partial, batch_format="pyarrow", batch_size=None
            )
            .to_pandas()
            .sort_values("min_doc")
        )
    starts = parts["min_doc"].to_numpy()
    offsets = np.concatenate(
        ([0], np.cumsum(parts["sum_tokens"].to_numpy())[:-1])
    )
    off_ref = ray.put((starts, offsets))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "cum_before", pa.array([], pa.int64())
            ).append_column("block_id", pa.array([], pa.int64()))
        s, o = ray.get(off_ref)
        # local doc_id sort: a block is a disjoint range, but intra-
        # block order is not otherwise guaranteed
        batch = batch.sort_by("doc_id")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        base = o[np.searchsorted(s, ids[0], side="right") - 1]
        cum_before = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["n_tokens"],
                "cum_before": pa.array(cum_before, pa.int64()),
                "block_id": pa.array(
                    cum_before // block_tokens, pa.int64()
                ),
            }
        )

    return counts.map_batches(
        assign, batch_format="pyarrow", batch_size=None
    )


def sample_batch(batch: pa.Table, hex_prefixes: str = "01") -> pa.Table:
    """Deterministic ⅛-rate sample: keep docs whose ``md5(str(doc_id))``
    hex digest starts with one of ``hex_prefixes`` (default '0'/'1' =
    2/16).  Hash-based so the sample is stable across runs, partitions
    and engines — DuckDB reproduces it as
    ``substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')``."""
    import hashlib

    keep = [
        hashlib.md5(str(i).encode()).hexdigest()[0] in hex_prefixes
        for i in batch["doc_id"].to_pylist()
    ]
    return batch.filter(pa.array(keep))


# --- exact grouped quantiles (bounded-cardinality histogram merge) ---------

def grouped_quantiles(
    ds,
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
    value_col: str = "n_chars",
    key_col: str = "lang",
) -> pa.Table:
    """→ (key, p, q_value): EXACT discrete quantiles of an integer
    column per group, the corpus-profiling aggregate every curation run
    starts with (length / score percentiles per language).  Convention
    = SQL ``percentile_disc`` (DuckDB ``quantile_disc``): the value at
    rank ``ceil(p·n)`` of the sorted group, i.e. the smallest value
    whose cumulative count reaches ``p·n`` — the oracle spells the same
    formula out with window functions so no engine-vs-SQL convention
    drift is possible (``ceil`` evaluated in float64 on both sides).

    Scale shape: quantiles need global order, but an INTEGER profile
    column has bounded distinct cardinality (lengths, scores, counts —
    ~10^4-10^6 values no matter how many rows), so instead of a
    ``Dataset.sort`` over 100 TB the operator computes a per-batch
    (key, value)→count histogram with Arrow's C++ hash-agg — a
    combiner that shrinks each batch to its distinct values — and
    merges the tiny partials driver-side (same bounded-output rule as
    the k-means partials: O(distinct values), never O(rows)).  The
    cumsum walk over each group's sorted histogram yields all exact
    quantiles at once.  An unbounded/continuous column takes the
    sketch path instead — `ddsketch_quantiles` below (deterministic,
    mergeable, α relative-error bound)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"k": batch[key_col], "v": batch[value_col]})
        agg = t.group_by(["k", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "k": agg["k"],
                "v": pc.cast(agg["v"], pa.int64()),
                "cnt": pc.cast(agg["v_count"], pa.int64()),
            }
        )

    parts = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    hist = pa.concat_tables(parts)
    hist = hist.group_by(["k", "v"]).aggregate([("cnt", "sum")])
    hist = hist.sort_by([("k", "ascending"), ("v", "ascending")])

    keys = hist["k"].to_pylist()
    vals = hist["v"].to_numpy(zero_copy_only=False)
    cnts = hist["cnt_sum"].to_numpy(zero_copy_only=False)

    out_k: list = []
    out_p: list[float] = []
    out_q: list[int] = []
    i = 0
    while i < len(keys):
        j = i
        while j < len(keys) and keys[j] == keys[i]:
            j += 1
        cum = np.cumsum(cnts[i:j])
        n = int(cum[-1])
        for p in ps:
            rank = max(1.0, math.ceil(p * float(n)))
            idx = int(np.searchsorted(cum, rank, side="left"))
            out_k.append(keys[i])
            out_p.append(float(p))
            out_q.append(int(vals[i + idx]))
        i = j
    return pa.table(
        {
            key_col: pa.array(out_k, hist["k"].type),
            "p": pa.array(out_p, pa.float64()),
            "q_value": pa.array(out_q, pa.int64()),
        }
    )


def mix_weights(ds, target_ppm: dict[str, int] | None = None,
                text_col: str = "text"):
    """documents → (lang, n_docs, n_tokens, actual_ppm, weight_micros):
    the per-language sampling weights that rebalance the corpus toward
    a target language mix — the knob every multilingual training-data
    recipe tunes (e.g. temperature-sampled mixes; weight =
    target_share / actual_token_share, >1 ⇒ upsample).

    ``target_ppm`` maps lang → parts-per-million of the target mix;
    default is uniform over the OBSERVED languages (1e6 // n_langs —
    integer, mirrored by the oracle).  All outputs are integers:
    ``actual_ppm = n_tokens·10⁶ // total`` and ``weight_micros =
    target_ppm·total // n_tokens``, evaluated driver-side with Python
    arbitrary-precision ints (the product exceeds int64 around 10¹³
    corpus tokens; the SQL mirror would need HUGEINT there).

    Scale shape: one streaming pass; each batch collapses to ≤|langs|
    combiner rows (Arrow group_by on lang, token counts via the same
    vectorized RE2 kernel as ``token_stats_batch``), partials reduce
    driver-side — languages are a tiny domain, so no Ray shuffle at
    all (house rule: never shuffle a combiner-sized set)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_tokens": pc.cast(
                    _count(batch[text_col], WS_TOKEN_RE), pa.int64()
                ),
                "n_docs": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64), pa.int64()
                ),
            }
        )
        agg = t.group_by("lang").aggregate(
            [("n_tokens", "sum"), ("n_docs", "sum")]
        )
        return agg.rename_columns(["lang", "n_tokens", "n_docs"])

    parts = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    if not parts:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "actual_ppm": pa.array([], pa.int64()),
                "weight_micros": pa.array([], pa.int64()),
            }
        )
    agg = (
        pa.concat_tables(parts)
        .group_by("lang")
        .aggregate([("n_tokens", "sum"), ("n_docs", "sum")])
    )
    langs = agg["lang"].to_pylist()
    toks = agg["n_tokens_sum"].to_pylist()
    docs = agg["n_docs_sum"].to_pylist()
    total = sum(toks)
    if target_ppm is None:
        u = 1_000_000 // len(langs)
        target_ppm = {lg: u for lg in langs}
    order = np.argsort(np.array(langs, dtype=object))
    out = {
        "lang": [],
        "n_docs": [],
        "n_tokens": [],
        "actual_ppm": [],
        "weight_micros": [],
    }
    for i in order:
        lg, tk, nd = langs[i], toks[i], docs[i]
        out["lang"].append(lg)
        out["n_docs"].append(nd)
        out["n_tokens"].append(tk)
        out["actual_ppm"].append((tk * 1_000_000) // total if total else 0)
        out["weight_micros"].append(
            (target_ppm.get(lg, 0) * total) // tk if tk else 0
        )
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            "actual_ppm": pa.array(out["actual_ppm"], pa.int64()),
            "weight_micros": pa.array(out["weight_micros"], pa.int64()),
        }
    )


def _lang_token_totals(ds, text_col: str):
    """shared per-language (n_docs, n_tokens) combiner of the mix
    family: each batch collapses to ≤|langs| rows (Arrow group_by +
    the RE2 token counter), partials reduce driver-side — languages
    are a tiny domain, so no Ray shuffle at all.  → lang-sorted
    (langs, toks, docs) python lists."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_tokens": pc.cast(
                    _count(batch[text_col], WS_TOKEN_RE), pa.int64()
                ),
                "n_docs": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64), pa.int64()
                ),
            }
        )
        agg = t.group_by("lang").aggregate(
            [("n_tokens", "sum"), ("n_docs", "sum")]
        )
        return agg.rename_columns(["lang", "n_tokens", "n_docs"])

    parts = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    if not parts:
        return [], [], []
    agg = (
        pa.concat_tables(parts)
        .group_by("lang")
        .aggregate([("n_tokens", "sum"), ("n_docs", "sum")])
    )
    langs = agg["lang"].to_pylist()
    order = np.argsort(np.array(langs, dtype=object))
    toks = agg["n_tokens_sum"].to_pylist()
    docs = agg["n_docs_sum"].to_pylist()
    return (
        [langs[i] for i in order],
        [toks[i] for i in order],
        [docs[i] for i in order],
    )


def _temp_mix_rates(langs, toks, budget_ppm: int):
    """temperature-T=0.5 plan rows: per language
    ``sqrt_milli = floor(√n_tokens · 1000)`` (IEEE sqrt is correctly
    rounded, so DuckDB reproduces it bit-for-bit — the reason the
    temperature is FIXED at 0.5: any other exponent needs libm pow),
    ``target_ppm = sqrt_milli·10⁶ // Σsqrt_milli`` and the doc-keep
    rate ``rate_ppm = min(10⁶, target_tokens·10⁶ // n_tokens)`` where
    ``target_tokens = (total·budget_ppm // 10⁶)·sqrt_milli // Σ``.
    Python big-ints driver-side (the SQL mirror needs HUGEINT past
    ~10¹³ corpus tokens, same boundary as ``mix_weights``)."""
    total = sum(toks)
    sq = [
        int(np.floor(np.sqrt(np.float64(t)) * np.float64(1000.0)))
        for t in toks
    ]
    ssum = sum(sq)
    budget_tokens = total * budget_ppm // 1_000_000
    tgt = [
        sq[i] * 1_000_000 // ssum if ssum else 0 for i in range(len(sq))
    ]
    rate = [
        min(
            1_000_000,
            (budget_tokens * sq[i] // ssum) * 1_000_000 // toks[i],
        )
        if ssum and toks[i]
        else 0
        for i in range(len(sq))
    ]
    return sq, tgt, rate


def temperature_mix_plan(
    ds, budget_ppm: int = 500_000, text_col: str = "text"
) -> pa.Table:
    """documents → (lang, n_docs, n_tokens, sqrt_milli, target_ppm,
    rate_ppm): the temperature-scaled multilingual mix plan (UniMax /
    CC-style T=0.5 sampling — Chung et al. 2023; weight ∝ √share, so
    head languages are down-sampled and the tail is boosted without
    the uniform mix's tiny-language over-repetition).  ``budget_ppm``
    is the output token budget as a fraction of the corpus.  All
    outputs integer and bit-reproducible in SQL (see
    ``_temp_mix_rates``)."""
    langs, toks, docs = _lang_token_totals(ds, text_col)
    if not langs:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "sqrt_milli": pa.array([], pa.int64()),
                "target_ppm": pa.array([], pa.int64()),
                "rate_ppm": pa.array([], pa.int64()),
            }
        )
    sq, tgt, rate = _temp_mix_rates(langs, toks, budget_ppm)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "n_docs": pa.array(docs, pa.int64()),
            "n_tokens": pa.array(toks, pa.int64()),
            "sqrt_milli": pa.array(sq, pa.int64()),
            "target_ppm": pa.array(tgt, pa.int64()),
            "rate_ppm": pa.array(rate, pa.int64()),
        }
    )


def temperature_mix_sample(
    ds, budget_ppm: int = 500_000, text_col: str = "text"
):
    """Deterministically REALIZE the T=0.5 mix: keep a doc iff its
    md5 draw ``md5₆₄ₗₒ(str(doc_id)) % 10⁶`` falls under its
    language's ``rate_ppm`` — reproducible across runs, partitions
    and engines (``md5_number_lower(doc_id::VARCHAR) % 1000000`` in
    SQL).  → streaming Dataset (doc_id, lang, n_tokens, draw_ppm) of
    the kept manifest.

    Shape: pass 1 is the ≤|langs| combiner of the plan; the rate map
    (langs-sized) rides the filter closure; pass 2 streams — text is
    never shuffled and nothing vertex- or corpus-sized lands on the
    driver."""
    import hashlib

    langs, toks, _docs = _lang_token_totals(ds, text_col)
    rates = (
        dict(zip(langs, _temp_mix_rates(langs, toks, budget_ppm)[2]))
        if langs
        else {}
    )

    def keep(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "draw_ppm": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        draw = np.array(
            [
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[8:], "little"
                )
                % 1_000_000
                for i in ids.tolist()
            ],
            dtype=np.int64,
        )
        lang = batch["lang"].to_pylist()
        lim = np.array([rates.get(lg, 0) for lg in lang], np.int64)
        m = draw < lim
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": batch["lang"],
                "n_tokens": pc.cast(
                    _count(batch[text_col], WS_TOKEN_RE), pa.int64()
                ),
                "draw_ppm": pa.array(draw, pa.int64()),
            }
        )
        return t.filter(pa.array(m)) if not m.all() else t

    return ds.map_batches(keep, batch_format="pyarrow")


def source_cap(
    ds, cap_ppm: int = 300_000, num_buckets: int = 64,
    text_col: str = "text",
):
    """documents → the kept manifest (doc_id, source, n_tokens,
    cum_tokens) after capping every source's contribution at
    ``cap_ppm`` of the corpus's total tokens — the over-representation
    limit every web-corpus recipe applies so no single domain/dump
    dominates the mix (RefinedWeb/Dolma-style per-source budgets).

    Deterministic priority INSIDE a source: docs are admitted in
    ``(md5₆₄ₗₒ(str(doc_id)), doc_id)`` order until the source's
    running token total would pass the cap — a reproducible uniform
    draw, so the kept set is stable across runs, partitions and
    engines (the SQL oracle is one window cumsum over the same
    order).

    Shape: one streaming text pass builds the skinny manifest
    (doc_id, source, n_tokens, rnk, bucket = crc32(source) % B) —
    text never moves again; the total-token scalar reduces from the
    manifest; the cap sweep is a ``groupby(bucket).map_groups`` over
    B ≈ 64 groups (all rows of a source co-located, Arrow sort +
    numpy segment prefix-sum inside — never a groupby on the
    high-cardinality source itself)."""
    import zlib

    import hashlib

    def manifest(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "rnk": pa.array([], pa.uint64()),
                "bucket": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        rnk = np.array(
            [
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[8:], "little"
                )
                for i in ids.tolist()
            ],
            dtype=np.uint64,
        )
        src = batch["source"].to_pylist()
        bk = np.array(
            [zlib.crc32(s.encode("utf-8")) % num_buckets for s in src],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": batch["source"],
                "n_tokens": pc.cast(
                    _count(batch[text_col], WS_TOKEN_RE), pa.int64()
                ),
                "rnk": pa.array(rnk, pa.uint64()),
                "bucket": pa.array(bk, pa.int64()),
            }
        )

    man = ds.map_batches(manifest, batch_format="pyarrow").materialize()
    total = sum(
        pc.sum(t["n_tokens"]).as_py() or 0
        for t in exchange.blocks(man)
    )
    cap = total * cap_ppm // 1_000_000

    def sweep(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "cum_tokens": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        g = group.sort_by(
            [
                ("source", "ascending"),
                ("rnk", "ascending"),
                ("doc_id", "ascending"),
            ]
        )
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        src = np.asarray(g["source"].to_pylist(), dtype=object)
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]])
        )
        cs = np.cumsum(n)
        base = np.zeros(len(n), dtype=np.int64)
        base[starts[1:]] = cs[starts[1:] - 1]
        cum = cs - np.maximum.accumulate(base)
        keep = cum <= cap
        out = pa.table(
            {
                "doc_id": g["doc_id"],
                "source": g["source"],
                "n_tokens": g["n_tokens"],
                "cum_tokens": pa.array(cum, pa.int64()),
            }
        )
        return out.filter(pa.array(keep)) if not keep.all() else out

    return man.groupby("bucket").map_groups(
        sweep, batch_format="pyarrow"
    )


def _term_h64_arr(terms: list) -> np.ndarray:
    """64-bit blake2b per term (little-endian), vocab-sized loop — the
    term hash of the naive-Bayes tiers."""
    import hashlib

    return np.array(
        [
            int.from_bytes(
                hashlib.blake2b(t.encode(), digest_size=8).digest(),
                "little",
            )
            for t in terms
        ],
        dtype=np.uint64,
    )


# --- n-gram LM scorers: one count-and-score plan ---------------------------

_BG_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _token_hash_rows(batch: pa.Table, text_col: str):
    """vectorized tokenization + hashing shared by the n-gram-LM rows:
    lowercased ``[a-z]+`` runs per doc (the corpus tokenization) →
    (local doc index, token u64 hash) in document order.  Token
    hashing is blake2b over the batch's UNIQUE terms (dictionary-
    encoded — the only per-string loop is vocab-sized, the per-token
    path is a numpy gather)."""
    import hashlib

    low = pc.utf8_lower(pc.cast(batch[text_col], pa.string()))
    lists = pc.split_pattern_regex(low, "[^a-z]+")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    # list_flatten/list_value_length respect any array offset (raw
    # .values/.offsets would mis-align on sliced arrays); a null text
    # has no tokens
    flat = pc.list_flatten(lists)
    lens = pc.fill_null(pc.list_value_length(lists), 0).to_numpy(
        zero_copy_only=False
    )
    doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
    keep = pc.greater(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    toks = flat.filter(keep)
    doc_idx = doc_idx[keep_np]
    if len(doc_idx) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    d = toks.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hdict = np.array(
        [
            int.from_bytes(
                hashlib.blake2b(
                    t.encode(), digest_size=8
                ).digest(),
                "little",
            )
            for t in d.dictionary.to_pylist()
        ],
        dtype=np.uint64,
    )
    return doc_idx, hdict[codes]


def _bigram_rows(batch: pa.Table, text_col: str):
    """consecutive-pair rows → (local doc index, prev-token u64 hash,
    pair u64 hash); the pair key folds the two token hashes
    (``h_prev·φ ⊕ h_tok``), never materializing pair strings."""
    doc_idx, htok = _token_hash_rows(batch, text_col)
    if len(doc_idx) == 0:
        z = np.zeros(0, np.uint64)
        return np.zeros(0, np.int64), z, z
    m = doc_idx[1:] == doc_idx[:-1]
    hprev = htok[:-1][m]
    hpair = hprev * _BG_GOLD ^ htok[1:][m]
    return doc_idx[1:][m], hprev, hpair


def _trigram_rows(batch: pa.Table, text_col: str):
    """consecutive-triple rows → (local doc index, h3, h2ctx, h2,
    h1ctx, h1): every hash a trigram-LM score probe needs —
    h3 = fold(q,p,w), h2ctx = fold(q,p) (the trigram denominator),
    h2 = fold(p,w) (the backoff bigram), h1ctx = h(p), h1 = h(w).
    Same fold as the bigram LM, one order up; no n-gram strings are
    ever materialized."""
    doc_idx, htok = _token_hash_rows(batch, text_col)
    if len(doc_idx) < 3:
        z = np.zeros(0, np.uint64)
        return np.zeros(0, np.int64), z, z, z, z, z
    m = (doc_idx[2:] == doc_idx[1:-1]) & (doc_idx[1:-1] == doc_idx[:-2])
    hq = htok[:-2][m]
    hp = htok[1:-1][m]
    hw = htok[2:][m]
    h2ctx = hq * _BG_GOLD ^ hp
    h2 = hp * _BG_GOLD ^ hw
    h3 = h2ctx * _BG_GOLD ^ hw
    return doc_idx[2:][m], h3, h2ctx, h2, hp, hw


def _ngram_score_plan(ds, grams, occurrences, probes, score, finish,
                      out_schema: pa.Schema):
    """The count-and-score plan every n-gram LM scorer runs, built only
    from the `exchange` primitives (so the driver-or-shuffle and
    broadcast-or-bucketed decisions are theirs alone):

    1. count — ``grams(batch)`` gives ``{order: u64 key per n-gram
       occurrence}``; each batch counts its own keys and
       ``exchange.bucket_finish`` merges the (ordr, key, c) partials on
       ``key % B`` into one count per (order, key);
    2. occurrences — ``occurrences(batch)`` gives (doc ids, ``{probe:
       u64 key}``) per scored occurrence; repeats of a (doc, first
       probe) pair collapse into one row of multiplicity ``m`` (equal
       first probes mean equal probe tuples);
    3. attach — each ``(probe, order, col)`` of ``probes`` gains ``col``
       = the count of its key among that order's counts through one
       left-outer ``exchange.join``; an absent key counts 0;
    4. score and roll up — ``score(cols, n1)`` maps the int64 count
       columns and ``m`` to per-occurrence integer sums (already
       × ``m``), pre-aggregated per doc map-side; ``finish(doc_id,
       sums, n1)`` turns each doc's total sums into its output row,
       per ``doc_id % B`` bucket through ``exchange.bucket_finish``.

    ``n1`` is the total count of order 1.  Keys travel as their low 63
    bits (int64 ≥ 0, the exchange's bucket key domain).  Every sum is
    an integer sum, so the output is the same under any partitioning
    and either branch of each gate.  Returns a Dataset of
    ``out_schema`` rows."""
    nb = 64
    count_schema = pa.schema(
        [("ordr", pa.int32()), ("key", pa.int64()), ("c", pa.int64())]
    )

    def key63(h: np.ndarray) -> np.ndarray:
        return (h & np.uint64(2**63 - 1)).astype(np.int64)

    def count_partial(batch: pa.Table) -> pa.Table:
        ordr, keys, cnts = [], [], []
        for o, k in grams(batch).items():
            u, c = np.unique(key63(k), return_counts=True)
            ordr.append(np.full(len(u), o, np.int32))
            keys.append(u)
            cnts.append(c.astype(np.int64))
        key = pa.array(np.concatenate(keys), pa.int64())
        return pa.table(
            {
                "ordr": pa.array(np.concatenate(ordr), pa.int32()),
                "key": key,
                "c": pa.array(np.concatenate(cnts), pa.int64()),
                "bucket": exchange.bucket_of(key, nb),
            }
        )

    def merge_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["ordr", "key"]).aggregate([("c", "sum")])
        return pa.table(
            {"ordr": g["ordr"], "key": g["key"], "c": g["c_sum"]},
            schema=count_schema,
        )

    counts = exchange.bucket_finish(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        merge_counts, count_schema, lazy=True,
    ).materialize()

    def of_order(o: int, key: str, col: str):
        def pick(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["ordr"], o))
            return pa.table({key: b["key"], col: b["c"]})

        return counts.map_batches(pick, batch_format="pyarrow")

    def total1(b: pa.Table) -> pa.Table:
        c = b["c"].filter(pc.equal(b["ordr"], 1))
        return pa.table({"n": pa.array([pc.sum(c).as_py() or 0], pa.int64())})

    n1 = sum(
        pc.sum(t["n"]).as_py()
        for t in exchange.blocks(
            counts.map_batches(total1, batch_format="pyarrow")
        )
    )

    names = [p for p, _, _ in probes]
    occ_schema = pa.schema(
        [("doc_id", pa.int64())]
        + [(p, pa.int64()) for p in names]
        + [("m", pa.int64())]
    )

    def occ_rows(batch: pa.Table) -> pa.Table:
        doc, keys = occurrences(batch)
        if len(doc) == 0:
            return occ_schema.empty_table()
        doc = doc.astype(np.int64)
        keys = {p: key63(keys[p]) for p in names}
        order = np.lexsort((doc, keys[names[0]]))
        d, h = doc[order], keys[names[0]][order]
        new = np.empty(len(d), dtype=bool)
        new[0] = True
        new[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
        starts = np.flatnonzero(new)
        cols = {"doc_id": d[starts]}
        for p in names:
            cols[p] = keys[p][order][starts]
        cols["m"] = np.diff(np.append(starts, len(d)))
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in occ_schema}
        )

    occ, schema = ds.map_batches(occ_rows, batch_format="pyarrow"), occ_schema
    for probe, o, col in probes:
        right = pa.schema([(probe, pa.int64()), (col, pa.int64())])
        occ = exchange.join(
            occ, of_order(o, probe, col), on=probe, how="left outer",
            left_schema=schema, right_schema=right, lazy=True,
        )
        schema = schema.append(right.field(col))

    def doc_partials(batch: pa.Table) -> pa.Table:
        cols = {
            c: pc.fill_null(batch[c], 0).to_numpy(zero_copy_only=False)
            for _, _, c in probes
        }
        cols["m"] = batch["m"].to_numpy(zero_copy_only=False)
        sums = score(cols, n1)
        t = pa.table(
            {"doc_id": batch["doc_id"]}
            | {k: pa.array(v, pa.int64()) for k, v in sums.items()}
        )
        g = t.group_by("doc_id").aggregate([(k, "sum") for k in sums])
        return pa.table(
            {"doc_id": g["doc_id"]}
            | {k: g[f"{k}_sum"] for k in sums}
            | {"bucket": exchange.bucket_of(g["doc_id"], nb)}
        )

    def finish_docs(t: pa.Table) -> pa.Table:
        ks = [c for c in t.column_names if c != "doc_id"]
        g = t.group_by("doc_id").aggregate([(k, "sum") for k in ks])
        sums = {k: g[f"{k}_sum"].to_numpy(zero_copy_only=False) for k in ks}
        return finish(g["doc_id"], sums, n1)

    return exchange.bucket_finish(
        occ.map_batches(doc_partials, batch_format="pyarrow"),
        finish_docs, out_schema, lazy=True,
    )


def doc_commonness(ds, text_col: str = "text"):
    """documents → (doc_id, n_tokens, commonness_ppm): mean corpus
    unigram frequency of each document's token positions, in ppm —
    the integer-exact cousin of a unigram-LM perplexity filter (CCNet,
    arXiv:1911.00359, filters on LM perplexity; low commonness = rare/
    noisy vocabulary).  All arithmetic is integer two-step division
    ``((Σ_pos count(tok) // n_tokens) · 10⁶) // total_tokens``, mirrored
    verbatim by the oracle, so no float log ever enters the compare
    (a float NLL would hash-mismatch on cross-library ln()).

    Scale shape: `_ngram_score_plan` with one order and one probe —
    token counts merge in token-hash buckets, each (doc, token) row
    attaches its token's count through one left-outer
    `exchange.join`, and ``Σ tf·count`` / ``Σ tf`` roll up per doc;
    ``total_tokens`` is the plan's order-1 total.  A token-hash
    collision merges two counts — the oracle compares token STRINGS,
    so the gate would catch one.  Tokenization: lowercased ``[a-z]+``
    runs of ``text_col`` (`_token_hash_rows`)."""

    def grams(batch: pa.Table) -> dict:
        return {1: _token_hash_rows(batch, text_col)[1]}

    def occurrences(batch: pa.Table):
        di, htok = _token_hash_rows(batch, text_col)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[di]
        return doc_ids, {"h": htok}

    def score(cols: dict, n1: int) -> dict:
        return {"s": cols["m"] * cols["cnt"], "n": cols["m"]}

    def finish(doc_id, sums: dict, total: int) -> pa.Table:
        s, n = sums["s"], sums["n"]
        return pa.table(
            {
                "doc_id": doc_id,
                "n_tokens": pa.array(n, pa.int64()),
                "commonness_ppm": pa.array(
                    ((s // n) * 1_000_000) // total, pa.int64()
                ),
            }
        )

    return _ngram_score_plan(
        ds, grams, occurrences, [("h", 1, "cnt")], score, finish,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_tokens", pa.int64()),
                ("commonness_ppm", pa.int64()),
            ]
        ),
    )


def bigram_fluency(ds, text_col: str = "text"):
    """documents → (doc_id, n_pairs, fluency_ppm): mean corpus bigram
    conditional probability over each document's adjacent token pairs,
    in integer ppm — the bigram-LM fluency filter (CCNet / Gopher
    filter on n-gram-LM perplexity, arXiv:1911.00359 / 2112.11446;
    low fluency = token sequences the corpus LM finds improbable).
    The per-pair score is ``(10⁶ · c(prev,tok)) // c(prev·)`` — exact
    integer MLE of P(tok|prev) in ppm, and ``fluency_ppm =
    Σ pair_ppm // n_pairs`` — both divisions mirrored verbatim by the
    oracle, so no float log/exp enters the compare.

    Scale shape: `_ngram_score_plan` with two orders — pair counts
    (order 2, keyed by the pair hash) and prefix counts ``c(prev·)``
    (order 1, keyed by the prev-token hash, counted once per pair
    occurrence) — and two probes, one left-outer `exchange.join`
    each; per-pair ppm sums roll up per doc.  A 64-bit pair-hash
    collision merges two counts — the oracle compares pair STRINGS, so
    the gate would catch one."""

    def grams(batch: pa.Table) -> dict:
        _, hprev, hpair = _bigram_rows(batch, text_col)
        return {2: hpair, 1: hprev}

    def occurrences(batch: pa.Table):
        di, hprev, hpair = _bigram_rows(batch, text_col)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[di]
        return doc_ids, {"hp": hpair, "hprev": hprev}

    def score(cols: dict, n1: int) -> dict:
        ppm = (1_000_000 * cols["cp"]) // cols["cx"]
        return {"s": cols["m"] * ppm, "n": cols["m"]}

    def finish(doc_id, sums: dict, n1: int) -> pa.Table:
        s, n = sums["s"], sums["n"]
        return pa.table(
            {
                "doc_id": doc_id,
                "n_pairs": pa.array(n, pa.int64()),
                "fluency_ppm": pa.array(s // n, pa.int64()),
            }
        )

    return _ngram_score_plan(
        ds, grams, occurrences, [("hp", 2, "cp"), ("hprev", 1, "cx")],
        score, finish,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_pairs", pa.int64()),
                ("fluency_ppm", pa.int64()),
            ]
        ),
    )


# --- trigram Stupid-Backoff LM (Brants et al., EMNLP 2007) -----------------

_TRIGRAM_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tri", pa.int64()),
        ("fluency3_ppm", pa.int64()),
        ("backoff_ppm", pa.int64()),
    ]
)


def _backoff_scores(c3, c2ctx, c2, c1ctx, c1, n_train: int):
    """per-occurrence Stupid-Backoff score in integer ppm (α = 0.4):
    (10⁶·c3)//c2ctx when the trigram was seen in training, else
    (4·10⁵·c2)//c1ctx when the bigram was, else (16·10⁴·c1)//N —
    every branch one exact integer division, so any summation order
    and the SQL oracle agree bit-for-bit."""
    tri = (1_000_000 * c3) // np.maximum(c2ctx, 1)
    bi = (400_000 * c2) // np.maximum(c1ctx, 1)
    uni = (160_000 * c1) // max(n_train, 1)
    s = np.where(c3 > 0, tri, np.where(c2 > 0, bi, uni))
    boff = (c3 == 0).astype(np.int64)
    return s, boff


def _trigram_doc_rollup(doc_id, sums: dict) -> pa.Table:
    """one row per doc from its summed score ``s``, backoff count ``b``
    and triple count ``n``."""
    s, b, n = sums["s"], sums["b"], sums["n"]
    return pa.table(
        {
            "doc_id": doc_id,
            "n_tri": pa.array(n, pa.int64()),
            "fluency3_ppm": pa.array(s // n, pa.int64()),
            "backoff_ppm": pa.array((b * 1_000_000) // n, pa.int64()),
        },
        schema=_TRIGRAM_OUT_SCHEMA,
    )


def trigram_backoff_fluency(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    train_mod: int = 5,
):
    """documents → (doc_id, n_tri, fluency3_ppm, backoff_ppm): mean
    Stupid-Backoff trigram score (Brants, Popat, Xu, Och & Dean,
    EMNLP 2007 — "Large Language Models in Machine Translation") of
    each document's adjacent token triples, plus the share of triples
    that fell back past the trigram (both integer ppm).  The LM trains
    on the held-out-complement slice ``doc_id % train_mod != 0`` and
    scores EVERY document (the CCNet train-on-reference/score-corpus
    shape, arXiv:1911.00359) — held-out docs exercise the whole
    backoff chain instead of the degenerate everything-seen case.

    Scale shape: `_ngram_score_plan` with three orders counted over
    the TRAIN slice and five probes per scored triple (trigram, its
    context bigram, the backoff bigram, its context token, the last
    token), one left-outer `exchange.join` each — an unseen n-gram
    counts 0, which is what lets held-out triples back off.  The
    per-occurrence score is `_backoff_scores` with N = the plan's
    order-1 total (the train tokens); `_trigram_doc_rollup` finishes
    each doc.  A 64-bit fold collision merges two counts — the oracle
    compares n-gram STRINGS, so the gate would catch one."""

    def grams(batch: pa.Table) -> dict:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        train = batch.filter(pa.array(ids % train_mod != 0))
        di, htok = _token_hash_rows(train, text_col)
        m2 = di[1:] == di[:-1]
        h2 = (htok[:-1] * _BG_GOLD ^ htok[1:])[m2]
        m3 = (di[2:] == di[1:-1]) & (di[1:-1] == di[:-2])
        h3 = (
            (htok[:-2] * _BG_GOLD ^ htok[1:-1])[m3] * _BG_GOLD
            ^ htok[2:][m3]
        )
        return {1: htok, 2: h2, 3: h3}

    def occurrences(batch: pa.Table):
        di, h3, h2ctx, h2, h1ctx, h1 = _trigram_rows(batch, text_col)
        doc_ids = batch[id_col].to_numpy(zero_copy_only=False)[di]
        return doc_ids, {
            "h3": h3, "h2ctx": h2ctx, "h2": h2, "h1ctx": h1ctx, "h1": h1,
        }

    def score(cols: dict, n_train: int) -> dict:
        s, boff = _backoff_scores(
            cols["c3"], cols["c2ctx"], cols["c2"], cols["c1ctx"],
            cols["c1"], n_train,
        )
        m = cols["m"]
        return {"s": m * s, "b": m * boff, "n": m}

    return _ngram_score_plan(
        ds, grams, occurrences,
        [
            ("h3", 3, "c3"),
            ("h2ctx", 2, "c2ctx"),
            ("h2", 2, "c2"),
            ("h1ctx", 1, "c1ctx"),
            ("h1", 1, "c1"),
        ],
        score,
        lambda doc_id, sums, n_train: _trigram_doc_rollup(doc_id, sums),
        _TRIGRAM_OUT_SCHEMA,
    )


# --- linear-classifier inference (fasttext-style quality filter) -----------

_CLF_MULT = 2_654_435_761  # Knuth multiplicative constant
_CLF_MOD = 2_001
_CLF_BIAS = 1_000


def _clf_term_weights(arr) -> np.ndarray:
    """Per-term model weight in [-1000, 1000] from the term string:
    ``((byte_sum · 2654435761 + len · 97) mod 2001) − 1000``.  Terms are
    lowercase ``[a-z]+`` runs, so byte sums ARE codepoint sums and the
    DuckDB oracle recomputes the identical weight from the term text
    with ``list_transform(string_split(term,''), x -> unicode(x))`` —
    two independent implementations of the same pure function.

    Vectorized over the Arrow string buffers: one ``np.add.reduceat``
    over the flat UTF-8 byte run, no per-term Python."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    off = np.frombuffer(arr.buffers()[1], np.int32)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    vals = np.frombuffer(arr.buffers()[2], np.uint8).astype(np.int64)
    # terms are non-empty ⇒ offsets strictly increase ⇒ reduceat is safe
    sums = np.add.reduceat(vals[: off[-1]], off[:-1])
    lens = np.diff(off)
    return (sums * _CLF_MULT + lens * 97) % _CLF_MOD - _CLF_BIAS


def classifier_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """documents → (doc_id, n_terms, clf_margin, clf_keep): inference
    of a linear bag-of-words text classifier — the fasttext-style
    quality filter every web-scale corpus pipeline runs (GPT-3's
    WebText-vs-CommonCrawl classifier, CCNet, DSIR ride this exact
    access pattern: tokenize → per-term weight lookup → per-doc margin
    → threshold).  The weight table here is the deterministic pure
    function of the term string above, standing in for trained weights;
    swapping in real weights means broadcasting a sorted (term_hash →
    weight) state via ``ray.put`` exactly as ``doc_commonness`` does
    its count vector — the per-batch scoring path is unchanged.

    ``clf_margin = Σ_term tf(term)·w(term)`` (exact int64 — no division
    so no float or floor-sign ambiguity in the oracle compare) and
    ``clf_keep = margin ≥ 0``.  Docs with zero ``[a-z]+`` tokens emit
    no row (mirrors the oracle's unnest).

    Scale shape: ONE stateless streaming pass, no shuffle, no
    broadcast; per batch it is two Arrow/numpy hash-aggs.  Reference
    parity: generalizes the reference's keyword-scoring page classifier
    (scrapy_career_spider.py:497-546) to corpus-scale model inference.
    """
    tf = _tf_rows_batch(batch, num_buckets=1)
    if not tf.num_rows:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_terms": pa.array([], pa.int64()),
                "clf_margin": pa.array([], pa.int64()),
                "clf_keep": pa.array([], pa.bool_()),
            }
        )
    w = _clf_term_weights(tf["term"])
    tfv = tf["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = pa.table(
        {
            "doc_id": tf["doc_id"],
            "s": pa.array(tfv * w, pa.int64()),
            "n": pa.array(tfv, pa.int64()),
        }
    )
    g = t.group_by("doc_id").aggregate([("s", "sum"), ("n", "sum")])
    margin = g["s_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "n_terms": pc.cast(g["n_sum"], pa.int64()),
            "clf_margin": pa.array(margin, pa.int64()),
            "clf_keep": pa.array(margin >= 0, pa.bool_()),
        }
    )


def weighted_sample(
    ds, k: int = 100, weight_col: str = "n_chars"
) -> pa.Table:
    """→ the ``k`` docs with the smallest ``md5₆₀(doc_id) // weight``
    rank — deterministic weighted priority sampling (the integer-exact
    cousin of Efraimidis–Spirakis ``u^(1/w)`` keys: the 60-bit hash
    plays the uniform draw, larger weights shrink the rank, so
    selection probability grows with weight while the sample stays
    reproducible across runs, partitions and engines — DuckDB
    recomputes the identical rank as
    ``('0x' || substr(md5(doc_id::VARCHAR), 1, 15))::BIGINT //
    greatest(w, 1)``).

    Shape: per-batch local top-k combiner → ≤ blocks×k candidate rows
    merge driver-side with the same (rank, doc_id) tie-break; no
    shuffle, no text movement."""
    import hashlib

    def topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    weight_col: pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = np.array(
            [
                int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
                for i in ids.tolist()
            ],
            dtype=np.int64,
        )
        w = np.maximum(
            batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64),
            1,
        )
        r = h // w
        order = np.lexsort((ids, r))[:k]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                weight_col: pa.array(
                    batch[weight_col]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[order],
                    pa.int64(),
                ),
                "rank": pa.array(r[order], pa.int64()),
            }
        )

    parts = exchange.blocks(ds.map_batches(topk, batch_format="pyarrow"))
    if not parts:
        return topk(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    weight_col: pa.array([], pa.int64()),
                }
            )
        )
    cat = pa.concat_tables(parts)
    ids = cat["doc_id"].to_numpy(zero_copy_only=False)
    r = cat["rank"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, r))[:k]
    return cat.take(pa.array(order))


def cooccurrence_topk(
    ds,
    k: int = 50,
    num_buckets: int = 64,
    max_terms_per_doc: int = 256,
    text_col: str = "text",
):
    """documents → top-k distinct-term co-occurrence pairs, exactly:
    (term_a, term_b, n_docs) with ``term_a < term_b`` and ``n_docs`` =
    how many documents contain BOTH terms — the corpus co-occurrence
    matrix head (the statistic GloVe-style embedding training and
    collocation mining consume).

    Scale shape: the quadratic step is per-DOC (distinct terms
    self-paired), never per-corpus, and is bounded by
    ``max_terms_per_doc`` (alphabetic rank cap, mirrored exactly by
    the oracle's ``row_number() OVER (ORDER BY term)`` filter) — at
    256 the worst doc yields ≤32 640 pair rows, and the per-batch
    Arrow group_by combiner collapses them to batch-vocab² partials
    before any exchange.  The single Ray shuffle is keyed
    ``crc32(pair) % num_buckets`` (a pair lives in one bucket →
    bucket-local top-k is globally safe, the `top_terms` argument);
    the driver ranks ≤ buckets × k candidate rows.

    Pair generation is an Arrow self-join on doc index (C++ hash
    join), not a Python loop: distinct (doc, term) ⋈ itself, filtered
    to ``term_a < term_b``.
    """
    import zlib

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "bucket": pa.array([], pa.int32()),
                "term_a": pa.array([], pa.string()),
                "term_b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        toks = (
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = pc.list_flatten(toks)
        doc = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        dt = (
            pa.table({"d": doc.filter(keep), "t": flat.filter(keep)})
            .group_by(["d", "t"])
            .aggregate([])
        )
        if dt.num_rows == 0:
            return empty
        # alphabetic-rank cap per doc (numpy: sort + segment offsets)
        d = dt["d"].to_numpy(zero_copy_only=False)
        t = dt["t"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, d))
        d, t = d[order], t[order]
        new = np.empty(len(d), dtype=bool)
        new[0] = True
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(d)))
        rank = np.arange(len(d)) - np.repeat(starts, sizes)
        capped = rank < max_terms_per_doc
        side = pa.table(
            {"d": pa.array(d[capped]), "t": pa.array(t[capped])}
        )
        pairs = side.rename_columns(["d", "term_a"]).join(
            side.rename_columns(["d", "term_b"]), keys="d"
        )
        pairs = pairs.filter(pc.less(pairs["term_a"], pairs["term_b"]))
        agg = pairs.group_by(["term_a", "term_b"]).aggregate(
            [([], "count_all")]
        )
        buckets = pa.array(
            [
                zlib.crc32(f"{a}|{b}".encode()) % num_buckets
                for a, b in zip(
                    agg["term_a"].to_pylist(), agg["term_b"].to_pylist()
                )
            ],
            pa.int32(),
        )
        return pa.table(
            {
                "bucket": buckets,
                "term_a": agg["term_a"],
                "term_b": agg["term_b"],
                "n": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    def bucket_topk(group: pa.Table) -> pa.Table:
        agg = group.group_by(["term_a", "term_b"]).aggregate([("n", "sum")])
        top = agg.sort_by(
            [
                ("n_sum", "descending"),
                ("term_a", "ascending"),
                ("term_b", "ascending"),
            ]
        ).slice(0, k)
        return pa.table(
            {
                "term_a": top["term_a"],
                "term_b": top["term_b"],
                "n_docs": top["n_sum"],
            }
        )

    cand = exchange.blocks(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_topk, batch_format="pyarrow")
    )
    if not cand:
        return pa.table(
            {
                "term_a": pa.array([], pa.string()),
                "term_b": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
            }
        )
    return (
        pa.concat_tables(cand)
        .sort_by(
            [
                ("n_docs", "descending"),
                ("term_a", "ascending"),
                ("term_b", "ascending"),
            ]
        )
        .slice(0, k)
    )


# --- DDSketch quantiles (continuous columns, relative-error bound) ---------

def dd_bin(values: np.ndarray, alpha_ppm: int) -> np.ndarray:
    """DDSketch bin index per POSITIVE double: ``ceil(ln(x)/ln(γ))``
    with ``γ = (1+α)/(1−α)`` (Masson, Rim & Lee, VLDB 2019).  Pure and
    shared by the engine combiner AND the sequential golden, so both
    sides bin bit-identically (the ceil boundary is the only
    float-sensitive step, and it is the same numpy expression on
    both).  Non-positive values get the sentinel bin INT32_MIN
    (callers' profile columns are positive; the sentinel keeps the
    operator total rather than crashing on a stray zero)."""
    out = np.full(len(values), np.iinfo(np.int32).min, dtype=np.int32)
    pos = values > 0
    gamma = (1.0 + alpha_ppm / 1e6) / (1.0 - alpha_ppm / 1e6)
    out[pos] = np.ceil(
        np.log(values[pos]) / np.log(gamma)
    ).astype(np.int32)
    return out


def dd_estimate(bin_idx: np.ndarray, alpha_ppm: int) -> np.ndarray:
    """bin index → representative value (the γ-bucket midpoint
    ``2·γ^i/(γ+1)``), within relative α of every value in the bin."""
    gamma = (1.0 + alpha_ppm / 1e6) / (1.0 - alpha_ppm / 1e6)
    return 2.0 * np.power(gamma, bin_idx.astype(np.float64)) / (gamma + 1.0)


def ddsketch_quantiles(
    ds,
    ps: tuple[float, ...] = (0.5, 0.9, 0.99),
    value_col: str = "value",
    key_col: str = "event_type",
    alpha_ppm: int = 10_000,
) -> pa.Table:
    """→ (key, p, n, q_est): DDSketch quantile estimates of a
    CONTINUOUS double column per group — the sketch path
    `grouped_quantiles` documents as needed when the profile column
    isn't bounded-cardinality integer.  DDSketch over t-digest/KLL
    because it is fully DETERMINISTIC (binning is a pure function of
    the value — no randomized compaction) and trivially MERGEABLE
    (bin-count histograms add), so the result is partition-invariant
    and a sequential golden verifies the distributed path exactly;
    the α relative-error guarantee (default 1 %) is pinned separately
    against exact quantiles.

    Scale shape: per-batch (key, bin)→count combiner (bins are ~log
    of the value range — a few hundred per key at any corpus size),
    tiny partials merge driver-side, one cumsum walk per key emits all
    quantiles.  Rank convention = ``percentile_disc``: smallest bin
    whose cumulative count reaches ``ceil(p·n)``."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        t = pa.table(
            {
                "k": batch[key_col],
                "b": pa.array(dd_bin(v, alpha_ppm), pa.int32()),
            }
        )
        agg = t.group_by(["k", "b"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "k": agg["k"],
                "b": agg["b"],
                "cnt": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    parts = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    empty = pa.table(
        {
            "key": pa.array([], pa.string()),
            "p": pa.array([], pa.float64()),
            "n": pa.array([], pa.int64()),
            "q_est": pa.array([], pa.float64()),
        }
    )
    if not parts:
        return empty
    hist = (
        pa.concat_tables(parts)
        .group_by(["k", "b"])
        .aggregate([("cnt", "sum")])
    )
    ks = hist["k"].to_numpy(zero_copy_only=False)
    bs = hist["b"].to_numpy(zero_copy_only=False)
    cnts = hist["cnt_sum"].to_numpy(zero_copy_only=False)
    order = np.lexsort((bs, ks))
    ks, bs, cnts = ks[order], bs[order], cnts[order]
    new = np.empty(len(ks), dtype=bool)
    new[0] = True
    new[1:] = ks[1:] != ks[:-1]
    starts = np.append(np.flatnonzero(new), len(ks))
    out_k, out_p, out_n, out_q = [], [], [], []
    for i, j in zip(starts[:-1], starts[1:]):
        cum = np.cumsum(cnts[i:j])
        n = int(cum[-1])
        for p in ps:
            rank = max(int(np.ceil(p * n)), 1)
            sel = int(np.searchsorted(cum, rank))
            out_k.append(ks[i])
            out_p.append(p)
            out_n.append(n)
            out_q.append(
                float(dd_estimate(bs[i + sel : i + sel + 1], alpha_ppm)[0])
            )
    return pa.table(
        {
            "key": pa.array(out_k, pa.string()),
            "p": pa.array(out_p, pa.float64()),
            "n": pa.array(out_n, pa.int64()),
            "q_est": pa.array(out_q, pa.float64()),
        }
    )


# --- BPE tokenizer training (corpus word counts → merge table) -------------

def bpe_merges_from_counts(
    word_counts: dict[str, int], num_merges: int
) -> list[tuple[str, str]]:
    """Classic BPE training loop (Sennrich et al. 2016; the GPT-2
    scheme) over a word→count table: repeatedly merge the most
    frequent adjacent symbol pair, ties broken by lexicographic pair —
    fully deterministic given integer counts.  Pure function shared by
    the engine and the sequential golden."""
    seqs: dict[str, list[str]] = {
        w: list(w) + ["</w>"] for w in word_counts
    }
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for w, syms in seqs.items():
            c = word_counts[w]
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + c
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < 2:
            break
        merges.append((a, b))
        ab = a + b
        for w, syms in seqs.items():
            i = 0
            out = []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            seqs[w] = out
    return merges


def bpe_encode_word(word: str, rank: dict[tuple[str, str], int]) -> int:
    """→ number of BPE tokens for one word under a trained merge-rank
    table (apply merges best-rank-first, the GPT-2 encoder loop)."""
    syms = list(word) + ["</w>"]
    while len(syms) > 1:
        best_i, best_r = -1, None
        for i in range(len(syms) - 1):
            r = rank.get((syms[i], syms[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_i, best_r = i, r
        if best_r is None:
            break
        syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return len(syms)


def corpus_word_counts(ds, text_col: str = "text") -> dict[str, int]:
    """documents → exact {word: count} over ``[a-z]+`` tokens — the
    table BPE trains on.  Distributed part: per-batch Arrow group_by
    combiner (O(batch vocab) rows leave each task); the driver merge
    holds DISTINCT words only — the same bounded vocab-state boundary
    `doc_commonness` declares (HF tokenizer training works off exactly
    this table, never the token stream)."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        flat = pc.list_flatten(
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = (
            pa.table({"w": flat})
            .group_by("w")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"w": agg["w"], "n": pc.cast(agg["count_all"], pa.int64())}
        )

    counts: dict[str, int] = {}
    for t in exchange.blocks(ds.map_batches(partial, batch_format="pyarrow")):
        for w, n in zip(t["w"].to_pylist(), t["n"].to_pylist()):
            counts[w] = counts.get(w, 0) + n
    return counts


def bpe_train(ds, num_merges: int = 50, text_col: str = "text") -> pa.Table:
    """→ (rank, left, right, merged): the learned BPE merge table."""
    merges = bpe_merges_from_counts(
        corpus_word_counts(ds, text_col=text_col), num_merges
    )
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left_sym": pa.array([a for a, _ in merges], pa.string()),
            "right_sym": pa.array([b for _, b in merges], pa.string()),
            "merged": pa.array([a + b for a, b in merges], pa.string()),
        }
    )


def bpe_apply(ds, merges: list[tuple[str, str]], text_col: str = "text"):
    """→ (doc_id, n_tokens_bpe_trained): token counts per doc under the
    TRAINED merges — the broadcast-model apply pass (merge table ships
    once via the closure; each task keeps a per-word encode cache, so
    work is O(distinct words per batch), not O(tokens))."""
    rank = {p: i for i, p in enumerate(merges)}

    def apply(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        toks = (
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        words = flat.filter(keep).to_numpy(zero_copy_only=False)
        docs = parent.filter(keep).to_numpy(zero_copy_only=False)
        cache: dict[str, int] = {}
        n_tok = np.zeros(batch.num_rows, dtype=np.int64)
        uniq, inv = np.unique(words, return_inverse=True)
        per_word = np.array(
            [
                cache.setdefault(w, bpe_encode_word(w, rank))
                for w in uniq.tolist()
            ],
            dtype=np.int64,
        )
        np.add.at(n_tok, docs, per_word[inv])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens_bpe_trained": pa.array(n_tok, pa.int64()),
            }
        )

    return ds.map_batches(apply, batch_format="pyarrow")


# --- Naive Bayes language classifier (count-based train + apply) ----------

def nb_train(ds, text_col: str = "text", lang_col: str = "lang"):
    """documents(lang-labeled) → the multinomial-NB model, exactly:
    per-(lang, term) smoothed log-likelihood and per-lang log-prior,
    both as MICRO-ints (``floor(ln(·)·1e6 + 0.5)``, the DSIR log-micros
    pattern — ln is the same libm double on both engines, the floor
    mirrors SQL).  Training a count-based model is a pure aggregation,
    so it distributes as ONE combiner pass: per-batch (lang, term)
    counts + per-lang doc counts; the driver merge holds the
    vocab-bounded state and derives weights for the FULL lang × vocab
    grid (absent pairs get the +1-smoothed floor weight) →
    (lang, term, weight_micros) + (lang, '', prior row).

    Boundary note: here the vocab-sized state IS the return value (the
    trained model the caller broadcasts into `nb_classify`), so unlike
    `doc_commonness`/`bigram_fluency` — whose count plan
    (`_ngram_score_plan`) merges counts in key-hash buckets once they
    outgrow the driver — a driver-free variant would have to change
    the API to return a sparse (lang, term, weight) Dataset and
    re-express classify as the same bucketed score join.  The count
    MERGE would follow that plan verbatim; per-lang totals and V are
    scalars.

    Returns ``(model_table, model_state)`` where ``model_state`` =
    (langs, vocab, W, priors) ready for `nb_classify`'s broadcast."""
    import math

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        toks = (
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        langs = batch[lang_col].combine_chunks() if isinstance(
            batch[lang_col], pa.ChunkedArray
        ) else batch[lang_col]
        t = pa.table(
            {
                "lang": langs.take(parent.filter(keep)),
                "term": flat.filter(keep),
            }
        )
        agg = t.group_by(["lang", "term"]).aggregate([([], "count_all")])
        dl = (
            pa.table({"lang": batch[lang_col]})
            .group_by("lang")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "lang": pa.concat_arrays(
                    [
                        agg["lang"].combine_chunks(),
                        dl["lang"].combine_chunks(),
                    ]
                ),
                "term": pa.concat_arrays(
                    [
                        agg["term"].combine_chunks(),
                        pa.array([None] * dl.num_rows, pa.string()),
                    ]
                ),
                "n": pa.concat_arrays(
                    [
                        pc.cast(agg["count_all"], pa.int64()).combine_chunks(),
                        pc.cast(dl["count_all"], pa.int64()).combine_chunks(),
                    ]
                ),
            }
        )

    blocks = exchange.blocks(ds.map_batches(partial, batch_format="pyarrow"))
    term_counts: dict[tuple[str, str], int] = {}
    doc_counts: dict[str, int] = {}
    if blocks:
        # ONE Arrow hash-agg merges all partials (C++, not a Python
        # dict loop over vocab × langs × blocks rows)
        merged = (
            pa.concat_tables(blocks)
            .group_by(["lang", "term"])
            .aggregate([("n", "sum")])
        )
        for lg, tm, n in zip(
            merged["lang"].to_pylist(),
            merged["term"].to_pylist(),
            merged["n_sum"].to_pylist(),
        ):
            if tm is None:
                doc_counts[lg] = n
            else:
                term_counts[(lg, tm)] = n

    langs = sorted(doc_counts)
    vocab = sorted({tm for _, tm in term_counts})
    v = len(vocab)
    total_docs = sum(doc_counts.values())
    lpos = {lg: i for i, lg in enumerate(langs)}
    vpos = {tm: i for i, tm in enumerate(vocab)}
    tok_totals = np.zeros(len(langs), dtype=np.int64)
    for (lg, _), n in term_counts.items():
        tok_totals[lpos[lg]] += n
    W = np.zeros((len(langs), v), dtype=np.int64)
    for li, lg in enumerate(langs):
        denom = int(tok_totals[li]) + v
        W[li, :] = math.floor(math.log(1.0 / denom) * 1e6 + 0.5)
    for (lg, tm), n in term_counts.items():
        li = lpos[lg]
        denom = int(tok_totals[li]) + v
        W[li, vpos[tm]] = math.floor(
            math.log((n + 1.0) / denom) * 1e6 + 0.5
        )
    priors = np.array(
        [
            math.floor(
                math.log(doc_counts[lg] / total_docs) * 1e6 + 0.5
            )
            for lg in langs
        ],
        dtype=np.int64,
    )
    rows_lang, rows_term, rows_w = [], [], []
    for li, lg in enumerate(langs):
        rows_lang.append(lg)
        rows_term.append("")
        rows_w.append(int(priors[li]))
        for ti, tm in enumerate(vocab):
            rows_lang.append(lg)
            rows_term.append(tm)
            rows_w.append(int(W[li, ti]))
    model_tbl = pa.table(
        {
            "lang": pa.array(rows_lang, pa.string()),
            "term": pa.array(rows_term, pa.string()),
            "weight_micros": pa.array(rows_w, pa.int64()),
        }
    )
    return model_tbl, (langs, vocab, W, priors)


def nb_classify(ds, model_state, text_col: str = "text"):
    """→ (doc_id, lang, pred_nb): argmax-lang under the trained NB
    model — broadcast (sorted vocab, weight matrix, priors) once via
    ``ray.put``; per batch the doc×term tf counts map onto vocab codes
    with one searchsorted, and each lang's score accumulates with one
    vectorized ``np.add.at`` (L small).  Integer scores ⇒ the argmax
    (ties → earlier lang in sorted order) is bit-deterministic and
    SQL-reproducible."""
    import ray

    langs, vocab, W, priors = model_state
    vocab_arr = np.array(vocab, dtype=object)
    ref = ray.put((vocab_arr, W, priors))

    def score(batch: pa.Table) -> pa.Table:
        varr, w, pri = ray.get(ref)
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        toks = (
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        words = flat.filter(keep).to_numpy(zero_copy_only=False)
        docs = parent.filter(keep).to_numpy(zero_copy_only=False)
        n_docs = batch.num_rows
        scores = np.tile(pri, (n_docs, 1))  # (docs, L)
        if len(words):
            pos = np.searchsorted(varr, words)
            pos_c = np.minimum(pos, len(varr) - 1)
            hit = varr[pos_c] == words
            d, p = docs[hit], pos_c[hit]
            for li in range(w.shape[0]):
                np.add.at(scores[:, li], d, w[li, p])
        best = np.argmax(scores, axis=1)  # first max wins ⇒ ties →
        # earlier lang in sorted order, same rule as the SQL row_number
        langs_np = np.array(langs, dtype=object)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_nb": pa.array(langs_np[best].tolist(), pa.string()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def nb_train_sparse(
    ds,
    text_col: str = "text",
    lang_col: str = "lang",
    num_buckets: int = 64,
):
    """Driver-state-free tier of `nb_train` (closes that docstring's
    declared vocab boundary): the (lang, term) count state merges
    inside term-hash buckets — the `_ngram_score_plan` count merge —
    and the weights are DERIVED in those same buckets, so the only
    driver state is per-lang scalars (token totals, doc counts,
    priors, absent-pair floors) plus the global distinct-term count V
    (summed from per-bucket distincts; a term lives in exactly one
    bucket, so the sum is exact).

    Returns ``(model_ds, scalars)``:
      * ``model_ds`` — Dataset of (lang, term, weight_micros) for the
        OBSERVED (lang, term) pairs plus per-lang prior rows
        (term = ''): the sparse complement of `nb_train`'s dense
        lang × vocab grid (absent pairs are implied by the floor);
      * ``scalars = (langs, priors, floors)`` — ``floors[i]`` is the
        +1-smoothed absent-pair weight
        ``floor(ln(1/(n_i+V))·1e6+0.5)``, the dense grid's fill value,
        which `nb_classify_bucketed` re-adds for in-vocab terms unseen
        in lang i.  ``langs`` is sorted (the dense tie order).
    Weight math is `math.log` per merged row — the same libm call the
    dense tier makes — so observed-pair weights and downstream scores
    are bit-equal (path-agreement test)."""
    import math

    import ray

    nb = num_buckets

    def _empty_partial() -> pa.Table:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "term": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int32()),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # schema-less empty blocks (CLAUDE.md)
            return _empty_partial()
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        langs_col = batch[lang_col]
        if isinstance(langs_col, pa.ChunkedArray):
            langs_col = langs_col.combine_chunks()
        t = pa.table(
            {
                "lang": langs_col.take(parent.filter(keep)),
                "term": flat.filter(keep),
            }
        )
        agg = t.group_by(["lang", "term"]).aggregate([([], "count_all")])
        th = _term_h64_arr(agg["term"].to_pylist())
        dl = (
            pa.table({"lang": batch[lang_col]})
            .group_by("lang")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "lang": pa.concat_arrays(
                    [
                        agg["lang"].combine_chunks(),
                        dl["lang"].combine_chunks(),
                    ]
                ),
                "term": pa.concat_arrays(
                    [
                        agg["term"].combine_chunks(),
                        pa.array([None] * dl.num_rows, pa.string()),
                    ]
                ),
                "n": pa.concat_arrays(
                    [
                        pc.cast(
                            agg["count_all"], pa.int64()
                        ).combine_chunks(),
                        pc.cast(
                            dl["count_all"], pa.int64()
                        ).combine_chunks(),
                    ]
                ),
                "bucket": pa.array(
                    np.concatenate(
                        [
                            (th % nb).astype(np.int32),
                            np.full(dl.num_rows, -1, np.int32),
                        ]
                    ),
                    pa.int32(),
                ),
            }
        )

    def merge_group(group: pa.Table) -> pa.Table:
        """One bucket's complete partials → unique (lang, term, n_sum)
        rows.  Term buckets also emit one (NULL, NULL, V_bucket)
        distinct-count row (complete here — nowhere else is a bucket's
        term set whole); bucket -1 holds the per-lang doc counts."""
        agg = group.group_by(["lang", "term"]).aggregate([("n", "sum")])
        out = pa.table(
            {
                "lang": agg["lang"],
                "term": agg["term"],
                "n": pc.cast(agg["n_sum"], pa.int64()),
            }
        )
        if group["bucket"][0].as_py() >= 0:
            v_bucket = pc.count_distinct(agg["term"]).as_py()
            out = pa.concat_tables(
                [
                    out,
                    pa.table(
                        {
                            "lang": pa.array([None], pa.string()),
                            "term": pa.array([None], pa.string()),
                            "n": pa.array([v_bucket], pa.int64()),
                        }
                    ),
                ]
            )
        return out

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge_group, batch_format="pyarrow")
        .materialize()
    )

    # scalar reduce: additive (lang, kind) partials only — L-sized
    def summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "kind": pa.array([], pa.int32()),
                    "n": pa.array([], pa.int64()),
                }
            )
        lang_null = pc.is_null(batch["lang"]).to_numpy(
            zero_copy_only=False
        )
        term_null = pc.is_null(batch["term"]).to_numpy(
            zero_copy_only=False
        )
        # kind 0 = token count (term rows), 1 = doc count (lang-only
        # rows), 2 = distinct-vocab partial (all-null rows)
        kind = np.where(lang_null, 2, np.where(term_null, 1, 0))
        t = pa.table(
            {
                "lang": pc.fill_null(batch["lang"], ""),
                "kind": pa.array(kind.astype(np.int32), pa.int32()),
                "n": batch["n"],
            }
        )
        agg = t.group_by(["lang", "kind"]).aggregate([("n", "sum")])
        return pa.table(
            {
                "lang": agg["lang"],
                "kind": agg["kind"],
                "n": pc.cast(agg["n_sum"], pa.int64()),
            }
        )

    parts = exchange.blocks(
        merged.map_batches(summarize, batch_format="pyarrow")
    )
    tok_totals: dict[str, int] = {}
    doc_counts: dict[str, int] = {}
    v_total = 0
    if parts:
        s = (
            pa.concat_tables(parts)
            .group_by(["lang", "kind"])
            .aggregate([("n", "sum")])
        )
        for lg, kd, n in zip(
            s["lang"].to_pylist(),
            s["kind"].to_pylist(),
            s["n_sum"].to_pylist(),
        ):
            if kd == 2:
                v_total += n
            elif kd == 1:
                doc_counts[lg] = n
            else:
                tok_totals[lg] = n

    langs = sorted(doc_counts)
    total_docs = sum(doc_counts.values())
    denoms = {
        lg: tok_totals.get(lg, 0) + v_total for lg in langs
    }
    floors = [
        (
            math.floor(math.log(1.0 / denoms[lg]) * 1e6 + 0.5)
            if denoms[lg] > 0
            else 0
        )
        for lg in langs
    ]
    priors = [
        math.floor(math.log(doc_counts[lg] / total_docs) * 1e6 + 0.5)
        for lg in langs
    ]

    def weights(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("lang", pa.string()),
                ("term", pa.string()),
                ("weight_micros", pa.int64()),
            ]
        )
        if batch.num_rows == 0:
            return out_schema.empty_table()
        keep = pc.and_(
            pc.is_valid(batch["lang"]), pc.is_valid(batch["term"])
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return out_schema.empty_table()
        w = [
            math.floor(
                math.log((n + 1.0) / denoms[lg]) * 1e6 + 0.5
            )
            for lg, n in zip(
                t["lang"].to_pylist(), t["n"].to_pylist()
            )
        ]
        return pa.table(
            {
                "lang": t["lang"],
                "term": t["term"],
                "weight_micros": pa.array(w, pa.int64()),
            }
        )

    prior_tbl = pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "term": pa.array([""] * len(langs), pa.string()),
            "weight_micros": pa.array(priors, pa.int64()),
        }
    )
    model_ds = merged.map_batches(
        weights, batch_format="pyarrow"
    ).union(ray.data.from_arrow(prior_tbl))
    return model_ds, (langs, priors, floors)


def nb_classify_bucketed(
    ds,
    model_ds,
    scalars,
    text_col: str = "text",
    num_buckets: int = 64,
):
    """→ (doc_id, lang, pred_nb) bit-equal to `nb_classify` without
    the vocab-sized broadcast: for in-vocab terms,
    ``Σ tf·W[L,t] = floor_L·(Σ tf) + Σ tf·(W[L,t] − floor_L)`` is an
    exact integer identity with the dense grid (absent pairs carry the
    floor), so sparse model rows and doc TF rows meet in term-hash
    buckets, pre-aggregate per (doc, lang-index), and roll up in
    doc-id buckets where the L-scalar priors/floors finish the argmax
    (ties → earlier lang in sorted order — the dense rule)."""
    import ray

    langs, priors, floors = scalars
    lcount = len(langs)
    lpos = {lg: i for i, lg in enumerate(langs)}
    floors_np = np.array(floors, dtype=np.int64)
    priors_np = np.array(priors, dtype=np.int64)
    langs_np = np.array(langs, dtype=object)
    nb = num_buckets

    def _empty_tagged() -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "h": pa.array([], pa.uint64()),
                "li": pa.array([], pa.int32()),
                "v": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "bucket": pa.array([], pa.int32()),
            }
        )

    def tag_model(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_tagged()
        t = batch.filter(pc.not_equal(batch["term"], ""))
        if t.num_rows == 0:
            return _empty_tagged()
        h = _term_h64_arr(t["term"].to_pylist())
        li = np.array(
            [lpos[lg] for lg in t["lang"].to_pylist()], dtype=np.int32
        )
        w = t["weight_micros"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": pa.array(
                    np.full(len(h), -1, np.int64), pa.int64()
                ),
                "h": pa.array(h, pa.uint64()),
                "li": pa.array(li, pa.int32()),
                "v": pa.array(w - floors_np[li], pa.int64()),
                "lang": pa.array([None] * len(h), pa.string()),
                "bucket": pa.array(
                    (h % nb).astype(np.int32), pa.int32()
                ),
            }
        )

    def tag_tf(batch: pa.Table) -> pa.Table:
        tf = _tf_rows_batch(batch, num_buckets=1)
        if tf.num_rows == 0:
            return _empty_tagged()
        h = _term_h64_arr(tf["term"].to_pylist())
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.argsort(ids)
        doc_langs = np.array(
            batch["lang"].to_pylist(), dtype=object
        )[order]
        td = tf["doc_id"].to_numpy(zero_copy_only=False)
        lang_of = doc_langs[np.searchsorted(ids[order], td)]
        return pa.table(
            {
                "doc_id": tf["doc_id"],
                "h": pa.array(h, pa.uint64()),
                "li": pa.array(
                    np.full(len(h), -1, np.int32), pa.int32()
                ),
                "v": tf["tf"],
                "lang": pa.array(lang_of.tolist(), pa.string()),
                "bucket": pa.array(
                    (h % nb).astype(np.int32), pa.int32()
                ),
            }
        )

    def join_group(group: pa.Table) -> pa.Table:
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        h = group["h"].to_numpy(zero_copy_only=False)
        li = group["li"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_model = doc < 0
        mh, mli, mv = h[is_model], li[is_model], v[is_model]
        o = np.argsort(mh, kind="stable")
        mh, mli, mv = mh[o], mli[o], mv[o]
        td, th, tv = doc[~is_model], h[~is_model], v[~is_model]
        tlang = np.array(
            group["lang"].to_pylist(), dtype=object
        )[~is_model]
        lo = np.searchsorted(mh, th, "left")
        hi = np.searchsorted(mh, th, "right")
        cnt = hi - lo
        total = int(cnt.sum())
        rep = np.repeat(np.arange(len(th), dtype=np.int64), cnt)
        idx = np.repeat(lo, cnt) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
        )
        inv = cnt > 0  # in-vocab TF rows (term observed in ANY lang)
        t = pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([td[rep], td[inv]]), pa.int64()
                ),
                "lang": pa.array(
                    np.concatenate([tlang[rep], tlang[inv]]).tolist(),
                    pa.string(),
                ),
                "li": pa.array(
                    np.concatenate(
                        [mli[idx], np.full(int(inv.sum()), -2, np.int32)]
                    ),
                    pa.int32(),
                ),
                "s": pa.array(
                    np.concatenate([tv[rep] * mv[idx], tv[inv]]),
                    pa.int64(),
                ),
            }
        )
        agg = t.group_by(["doc_id", "lang", "li"]).aggregate(
            [("s", "sum")]
        )
        dids = agg["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "lang": agg["lang"],
                "li": agg["li"],
                "s": pc.cast(agg["s_sum"], pa.int64()),
                "dbucket": pa.array(
                    (dids % nb).astype(np.int32), pa.int32()
                ),
            }
        )

    def anchors(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "li": pa.array([], pa.int32()),
                    "s": pa.array([], pa.int64()),
                    "dbucket": pa.array([], pa.int32()),
                }
            )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": batch["lang"],
                "li": pa.array(
                    np.full(len(ids), -3, np.int32), pa.int32()
                ),
                "s": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "dbucket": pa.array(
                    (ids % nb).astype(np.int32), pa.int32()
                ),
            }
        )

    def rollup(group: pa.Table) -> pa.Table:
        agg = group.group_by(["doc_id", "lang", "li"]).aggregate(
            [("s", "sum")]
        )
        dids = agg["doc_id"].to_numpy(zero_copy_only=False)
        lis = agg["li"].to_numpy(zero_copy_only=False)
        ss = agg["s_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        udocs, dcode = np.unique(dids, return_inverse=True)
        n = len(udocs)
        scores = np.tile(priors_np, (n, 1))
        inv_rows = lis == -2
        if inv_rows.any():
            inv_tot = np.zeros(n, np.int64)
            np.add.at(inv_tot, dcode[inv_rows], ss[inv_rows])
            scores += inv_tot[:, None] * floors_np[None, :]
        part = lis >= 0
        if part.any():
            np.add.at(
                scores, (dcode[part], lis[part]), ss[part]
            )
        best = np.argmax(scores, axis=1)
        # lang per doc: any row carries it (functionally dependent)
        lang_by_doc = np.empty(n, dtype=object)
        lang_by_doc[dcode] = np.array(
            agg["lang"].to_pylist(), dtype=object
        )
        return pa.table(
            {
                "doc_id": pa.array(udocs, pa.int64()),
                "lang": pa.array(lang_by_doc.tolist(), pa.string()),
                "pred_nb": pa.array(
                    langs_np[best].tolist(), pa.string()
                ),
            }
        )

    unioned = model_ds.map_batches(
        tag_model, batch_format="pyarrow"
    ).union(ds.map_batches(tag_tf, batch_format="pyarrow"))
    stage1 = unioned.groupby("bucket").map_groups(
        join_group, batch_format="pyarrow"
    )
    return (
        stage1.union(ds.map_batches(anchors, batch_format="pyarrow"))
        .groupby("dbucket")
        .map_groups(rollup, batch_format="pyarrow")
    )


# --- winnowing fingerprints (MOSS, Schleimer et al. 2003) -----------------

_WORD_RE_PY = re.compile(r"[a-z]+")

def winnow_batch(
    batch: pa.Table, k: int = 5, w: int = 4, text_col: str = "text"
) -> pa.Table:
    """doc → distinct selected (doc_id, pos, fp_md5) winnowing
    fingerprints: word-k-gram md5 position hashes, a sliding window of
    ``w`` consecutive positions, select each window's MINIMUM hash
    (ties → RIGHTMOST position, the MOSS rule), dedupe selections.
    Guarantees any shared run of ≥ w+k-1 tokens yields a shared
    fingerprint — the document-fingerprinting step of plagiarism /
    near-dup detection at sub-document granularity.

    Hashing is ``md5_number_lower`` semantics (selection order) with
    the full hex digest emitted (comparison), so the DuckDB oracle
    recomputes hashes, window argmins AND the dedup from the n-gram
    STRINGS themselves.  Docs with < k tokens have no positions; docs
    with fewer than w positions winnow over one short window."""
    import hashlib

    out_id: list[int] = []
    out_pos: list[int] = []
    out_fp: list[str] = []
    if batch.num_rows == 0:  # schema-less empty blocks (CLAUDE.md rule)
        ids, texts = [], []
    else:
        ids = batch["doc_id"].to_pylist()
        texts = batch[text_col].to_pylist()
    for did, t in zip(ids, texts):
        toks = _WORD_RE_PY.findall((t or "").lower())
        p = len(toks) - k + 1
        if p < 1:
            continue
        digs = [
            hashlib.md5(" ".join(toks[i : i + k]).encode()).digest()
            for i in range(p)
        ]
        h = np.frombuffer(b"".join(d[8:] for d in digs), dtype="<u8")
        nw = max(p - w + 1, 1)
        sel: set[int] = set()
        if p <= w:
            col = h
            i = p - 1 - int(np.argmin(col[::-1]))
            sel.add(i)
        else:
            from numpy.lib.stride_tricks import sliding_window_view

            win = sliding_window_view(h, w)  # (nw, w)
            right_arg = w - 1 - np.argmin(win[:, ::-1], axis=1)
            sel = set((np.arange(nw) + right_arg).tolist())
        for i in sorted(sel):
            out_id.append(did)
            out_pos.append(i + 1)  # 1-based, matches SQL generate_series
            out_fp.append(digs[i].hex())
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "fp_md5": pa.array(out_fp, pa.string()),
        }
    )


def winnow_fingerprints(
    ds, k: int = 5, w: int = 4, text_col: str = "text"
):
    """documents → selected winnowing fingerprints: one streaming
    ``map_batches`` pass, no shuffle, no state — downstream dedup
    groups on fp_md5 exactly like the segment/ngram families."""
    return ds.map_batches(
        lambda b: winnow_batch(b, k=k, w=w, text_col=text_col),
        batch_format="pyarrow",
    )


def pmi_topk(
    ds,
    k: int = 50,
    num_buckets: int = 64,
    max_terms_per_doc: int = 256,
    text_col: str = "text",
):
    """top-k co-occurring pairs annotated with integer PMI lift:
    ``lift_ppm = (n_docs(a,b) · N · 1e6) // (df_a · df_b)`` with N =
    total documents and df over the SAME capped distinct-(doc, term)
    set the pair counts use — log-free pointwise mutual information
    (PMI = ln(lift); collocation mining ranks by it), exact integers
    on both sides.

    Scale shape: winners come from `cooccurrence_topk` (driver-sized
    k rows); the df pass streams the corpus ONCE more counting only
    the ≤2k winning terms against a broadcast term set (the
    `top_customers` targeted-attach argument) — never a full term
    histogram exchange."""
    import ray

    ds = ds.materialize()
    pairs = cooccurrence_topk(
        ds,
        k=k,
        num_buckets=num_buckets,
        max_terms_per_doc=max_terms_per_doc,
        text_col=text_col,
    )
    n_total = ds.count()
    terms = sorted(
        set(pairs["term_a"].to_pylist()) | set(pairs["term_b"].to_pylist())
    )
    if not terms:
        return pairs.append_column(
            "lift_ppm", pa.array([], pa.int64())
        )
    t_ref = ray.put(pa.array(terms, pa.string()))

    def df_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        if batch.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), "[^a-z]+"
        )
        toks = (
            toks.combine_chunks()
            if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = pc.list_flatten(toks)
        doc = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        dt = (
            pa.table({"d": doc.filter(keep), "t": flat.filter(keep)})
            .group_by(["d", "t"])
            .aggregate([])
        )
        if dt.num_rows == 0:
            return empty
        # the SAME alphabetic-rank cap the pair pass applies
        dt = dt.sort_by([("d", "ascending"), ("t", "ascending")])
        d = dt["d"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.diff(d, prepend=np.int64(-1)))
        rank = np.arange(len(d)) - np.repeat(
            starts, np.diff(np.append(starts, len(d)))
        )
        dt = dt.filter(pa.array(rank < max_terms_per_doc))
        dt = dt.filter(pc.is_in(dt["t"], value_set=ray.get(t_ref)))
        agg = dt.group_by("t").aggregate([("d", "count")])
        return pa.table(
            {
                "term": agg["t"],
                "n": pc.cast(agg["d_count"], pa.int64()),
            }
        )

    parts = exchange.blocks(
        ds.map_batches(df_partial, batch_format="pyarrow")
    )
    df: dict[str, int] = {}
    if parts:
        agg = (
            pa.concat_tables(parts).group_by("term").aggregate([("n", "sum")])
        )
        df = dict(zip(agg["term"].to_pylist(), agg["n_sum"].to_pylist()))
    lifts = [
        (int(nd) * int(n_total) * 1_000_000)
        // (int(df[a]) * int(df[b]))
        for a, b, nd in zip(
            pairs["term_a"].to_pylist(),
            pairs["term_b"].to_pylist(),
            pairs["n_docs"].to_pylist(),
        )
    ]
    return pairs.append_column("lift_ppm", pa.array(lifts, pa.int64()))


def percentile_rank_by(
    ds,
    value_col: str = "n_chars",
    by: str = "lang",
    id_col: str = "doc_id",
):
    """→ (doc_id, by, value_col, pct_rank_ppm): each row's integer-ppm
    percentile rank of ``value_col`` WITHIN its ``by`` group —
    ``((rank − 1) · 1e6) // (n − 1)`` with SQL ``rank()`` tie semantics
    (ties share the minimum rank; single-row groups are 0) — the
    curriculum-ordering / per-language difficulty normalization signal.

    Scale shape: pass 1 collapses to (by, value, count) combiner
    partials per batch (cardinality bounded by the VALUE DOMAIN — for
    unbounded/continuous values use the DDSketch quantile path
    instead); the driver cumsums each group's sorted histogram into a
    rank map (domain-sized, broadcast once); pass 2 assigns by
    ``searchsorted`` — two streaming passes, no shuffle."""
    import ray

    ds = ds.materialize()

    def hist_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "v": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t = pa.table({"g": batch[by], "v": batch[value_col]})
        # null-group rows are outside the output domain (a None in the
        # driver's np.unique over an object array crashes; mirrored by
        # the oracle's implicit WHERE by IS NOT NULL)
        t = t.filter(pc.is_valid(t["g"]))
        agg = t.group_by(["g", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "g": agg["g"],
                "v": pc.cast(agg["v"], pa.int64()),
                "n": pc.cast(agg["v_count"], pa.int64()),
            }
        )

    parts = exchange.blocks(
        ds.map_batches(hist_partial, batch_format="pyarrow")
    )
    ranks: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    if parts:
        agg = (
            pa.concat_tables(parts)
            .group_by(["g", "v"])
            .aggregate([("n", "sum")])
        )
        gs = np.array(agg["g"].to_pylist())
        vs = agg["v"].to_numpy(zero_copy_only=False)
        ns = agg["n_sum"].to_numpy(zero_copy_only=False)
        for g in np.unique(gs):
            m = gs == g
            order = np.argsort(vs[m])
            v_sorted = vs[m][order]
            n_sorted = ns[m][order].astype(np.int64)
            # rank(v) = 1 + count of strictly smaller rows
            below = np.concatenate([[0], np.cumsum(n_sorted)[:-1]])
            ranks[str(g)] = (v_sorted, below + 1, int(n_sorted.sum()))
    r_ref = ray.put(ranks)

    def assign(batch: pa.Table) -> pa.Table:
        rk = ray.get(r_ref)
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    by: pa.array([], pa.string()),
                    value_col: pa.array([], pa.int64()),
                    "pct_rank_ppm": pa.array([], pa.int64()),
                }
            )
        garr = batch[by]
        if isinstance(garr, pa.ChunkedArray):
            garr = garr.combine_chunks()
        valid = pc.is_valid(garr).to_numpy(zero_copy_only=False)
        if not valid.all():
            batch = batch.filter(pa.array(valid))
            garr = batch[by]
            if isinstance(garr, pa.ChunkedArray):
                garr = garr.combine_chunks()
        # factorize once (C++ dictionary-encode), then one vectorized
        # mask per DISTINCT group — not a Python equality scan per row
        enc = garr.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        groups = enc.dictionary.to_pylist()
        vs = batch[value_col].to_numpy(zero_copy_only=False)
        out = np.zeros(len(codes), dtype=np.int64)
        for gi, g in enumerate(groups):
            v_sorted, rnk, total = rk[g]
            if total > 1:
                m = codes == gi
                r = rnk[np.searchsorted(v_sorted, vs[m])]
                out[m] = ((r - 1) * 1_000_000) // (total - 1)
        return pa.table(
            {
                id_col: batch[id_col],
                by: batch[by],
                value_col: pa.array(
                    vs.astype(np.int64), pa.int64()
                ),
                "pct_rank_ppm": pa.array(out, pa.int64()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


# --- readability (LIX / RIX) ----------------------------------------------

_READ_WORD_RE = r"[A-Za-z0-9]+"
_READ_LONG_RE = r"[A-Za-z0-9]{7,}"
_READ_SENT_RE = r"[.!?]+"


def readability_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """→ (doc_id, n_words, n_long_words, n_sentences, lix_micros,
    rix_micros): LIX readability (Björnsson 1968 — the language-
    agnostic index corpus-quality filters use where English-only
    syllable counters break) and Anderson's RIX variant.

        LIX = words/sentences + 100·longwords/words     (long = ≥7 chars)
        RIX = longwords/sentences

    All counts are non-overlapping RE2 matches (``[A-Za-z0-9]+`` word
    runs — a maximal run of ≥7 matches ``{7,}`` exactly once, greedy;
    ``[.!?]+`` terminator runs), vectorized via
    ``pc.count_substring_regex``; DuckDB's ``regexp_extract_all`` is
    the same RE2, so the oracle's counts agree exactly.  Scores are
    the repo's integer-micros convention: one floor division per term
    over positive integers (``sentences`` floored at 1), so the match
    is bit-exact."""
    t = batch[text_col]
    words = pc.cast(_count(t, _READ_WORD_RE), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    longw = pc.cast(_count(t, _READ_LONG_RE), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    sents = pc.cast(_count(t, _READ_SENT_RE), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    s1 = np.maximum(sents, 1)
    lix = np.where(
        words > 0,
        (words * 1_000_000) // s1 + (longw * 100_000_000) // np.maximum(words, 1),
        0,
    )
    rix = (longw * 1_000_000) // s1
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(words, pa.int64()),
            "n_long_words": pa.array(longw, pa.int64()),
            "n_sentences": pa.array(sents, pa.int64()),
            "lix_micros": pa.array(lix, pa.int64()),
            "rix_micros": pa.array(rix, pa.int64()),
        }
    )


# --- RAKE keyword extraction ----------------------------------------------

# RAKE delimiter stopwords = the quality-score stopword list (shared
# with QUALITY_STOPWORD_RE so engine and oracle agree on one literal).
_RAKE_STOPS = (
    "the|a|an|and|or|but|of|to|in|on|at|for|with|is|are|was|were"
)
_RAKE_STOP_RE = re.compile(r" (" + _RAKE_STOPS + r") ")
_RAKE_PUNCT_RE = re.compile(r"[^a-z\s]+")
_RAKE_WS_RE = re.compile(r"\s+")
_RAKE_PHRASE_RE = re.compile(r"[a-z]+( [a-z]+)*")


def _rake_canon(text: str) -> str:
    """lower → punctuation/digit runs to ``|`` DELIMITERS (Rose et
    al.'s rule: phrase candidates break at punctuation, not just
    stopwords) → whitespace runs to single spaces → pad → stopwords to
    ``|`` in TWO passes (RE2 global replace consumes the trailing
    space, so adjacent stopwords need the second pass — each pass
    replaces every other stopword in a run).  The oracle runs the
    identical four ``regexp_replace(…, 'g')`` passes."""
    s = _RAKE_PUNCT_RE.sub(" | ", text.lower())
    s = " " + _RAKE_WS_RE.sub(" ", s) + " "
    s = _RAKE_STOP_RE.sub(" | ", s)
    s = _RAKE_STOP_RE.sub(" | ", s)
    return s


def rake_keywords_batch(
    batch: pa.Table, top_k: int = 5, text_col: str = "text"
) -> pa.Table:
    """→ (doc_id, rank, phrase, score_micros): per-document RAKE
    keywords (Rose et al. 2010, "Automatic Keyword Extraction from
    Individual Documents") — the unsupervised phrase labeler a corpus
    report uses for topic profiling without a model.

    Candidate phrases = maximal word runs between stopword/punctuation
    delimiters; word score = degree·1e6 // freq over the DOC's phrase
    occurrences (degree = Σ phrase lengths containing the word, freq =
    occurrence count); phrase score = Σ word score_micros over the
    phrase's words (repeats counted); top_k DISTINCT phrases per doc,
    ties → lexicographically smallest phrase.  All counts and the one
    floor division are integers, and tokenization is shared-RE2
    canonicalization (`_rake_canon`), so a DuckDB oracle reproduces
    every score bit-exactly.

    Scale shape: embarrassingly parallel per-doc map (state = three
    module-level compiled regexes); output is ≤ top_k rows/doc."""
    ids, ranks, phrases, scores = [], [], [], []
    for doc_id, text in zip(
        batch["doc_id"].to_pylist(), batch[text_col].to_pylist()
    ):
        s = _rake_canon(text or "")
        plist = [m.group(0) for m in _RAKE_PHRASE_RE.finditer(s)]
        if not plist:
            continue
        freq: dict = {}
        deg: dict = {}
        split_cache: dict = {}
        for p in plist:
            ws = split_cache.setdefault(p, p.split(" "))
            for w in ws:
                freq[w] = freq.get(w, 0) + 1
                deg[w] = deg.get(w, 0) + len(ws)
        wscore = {w: (deg[w] * 1_000_000) // freq[w] for w in freq}
        pscore: dict = {}
        for p in plist:
            if p not in pscore:
                pscore[p] = sum(wscore[w] for w in split_cache[p])
        top = sorted(pscore.items(), key=lambda kv: (-kv[1], kv[0]))[
            :top_k
        ]
        for r, (p, sc) in enumerate(top, start=1):
            ids.append(doc_id)
            ranks.append(r)
            phrases.append(p)
            scores.append(sc)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "rank": pa.array(ranks, pa.int64()),
            "phrase": pa.array(phrases, pa.string()),
            "score_micros": pa.array(scores, pa.int64()),
        }
    )


def fluency_buckets(ds, text_col: str = "text", lang_col: str = "lang"):
    """→ (doc_id, lang, n_pairs, fluency_ppm, bucket): CCNet's
    per-language perplexity terciles (Wenzek et al. 2020, CCNet §4.3 —
    "head/middle/tail" quality buckets, the split its pipeline ships
    every Common Crawl dump in) over the integer bigram-LM fluency
    signal (`bigram_fluency`; HIGH fluency = LOW perplexity = head).

    bucket = equal-split rank rule within each language: rank₀ over
    (fluency_ppm DESC, doc_id ASC), ``(rank₀·3) // n_lang`` → head /
    middle / tail — the explicit integer rule a SQL ``row_number``
    window reproduces bit-for-bit (the repo's no-ntile convention).

    Scale shape: the fluency passes are `bigram_fluency`'s count-and-
    score plan; the tercile rank is the per-language sort a
    CCNet-style split inherently needs — here the doc-sized
    (id, lang, score) triple ranks driver-side like `pca_project`'s
    bin step (a Ray sort-by-(lang, score) + per-partition offsets is
    the above-gate extension)."""

    flu_parts = exchange.blocks(bigram_fluency(ds, text_col))
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "lang": pa.array([], pa.string()),
            "n_pairs": pa.array([], pa.int64()),
            "fluency_ppm": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.string()),
        }
    )
    if not flu_parts:
        return empty
    flu = pa.concat_tables(flu_parts)

    def lang_rows(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                }
            )
        return batch.select(["doc_id", lang_col]).rename_columns(
            ["doc_id", "lang"]
        )

    lang_parts = exchange.blocks(
        ds.map_batches(lang_rows, batch_format="pyarrow")
    )
    lt = pa.concat_tables(lang_parts)
    lids = lt["doc_id"].to_numpy(zero_copy_only=False)
    lorder = np.argsort(lids)
    langs_sorted = np.asarray(lt["lang"].to_pylist())[lorder]
    lids_sorted = lids[lorder]

    ids = flu["doc_id"].to_numpy(zero_copy_only=False)
    score = flu["fluency_ppm"].to_numpy(zero_copy_only=False)
    npairs = flu["n_pairs"].to_numpy(zero_copy_only=False)
    lang = langs_sorted[np.searchsorted(lids_sorted, ids)]

    uniq, code = np.unique(lang, return_inverse=True)
    # rank within language by (fluency DESC, doc_id ASC)
    order = np.lexsort((ids, -score, code))
    n = len(ids)
    ng = np.bincount(code, minlength=len(uniq)).astype(np.int64)
    start = np.zeros(len(uniq), np.int64)
    np.cumsum(ng[:-1], out=start[1:])
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    rank0 = pos - start[code[np.arange(n)]]
    tier = (rank0 * 3) // ng[code]
    names = np.array(["head", "middle", "tail"])
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lang": pa.array(lang, pa.string()),
            "n_pairs": pa.array(npairs, pa.int64()),
            "fluency_ppm": pa.array(score, pa.int64()),
            "bucket": pa.array(names[tier], pa.string()),
        }
    )


# --- Zipf's-law fit over the term-frequency distribution -------------------

def _div_half_away(a: int, b: int) -> int:
    """round(a/b) with HALF-AWAY-FROM-ZERO ties, in exact integer
    arithmetic (b > 0).  Mirrors the SQL ``(abs(a)*1 + b//2)//b`` form
    exactly — DuckDB's ``//`` truncates toward zero, so both sides take
    the absolute value first."""
    if a >= 0:
        return (a + b // 2) // b
    return -((-a + b // 2) // b)


def zipf_fit(ds, k: int = 100, text_col: str = "text") -> pa.Table:
    """Least-squares fit of the Zipf exponent over the top-``k`` term
    frequencies — the corpus-health diagnostic (natural text shows
    slope ≈ −1 on log rank vs log frequency; spam/boilerplate-heavy or
    truncated corpora bend away from it).

    One row: ``(n_terms, slope_micro, intercept_micro)``.

    Shape: rides the exact distributed `top_terms` pass (per-batch
    Arrow combiner → term-hash bucket shuffle → driver rank of
    ≤ buckets×k rows); the regression itself is driver-side over k
    rows.  EXACTNESS: each ln(rank)/ln(freq) is quantized to micro
    ints (``floor(ln·1e6 + 0.5)`` — verified bit-equal between libm
    and DuckDB ``ln()``), all OLS sums are exact Python ints, and the
    slope/intercept are single half-away integer divisions — so the
    DuckDB oracle reproduces every output bit-for-bit with no
    order-dependent float sums anywhere."""
    import math

    top = top_terms(ds, k=k, text_col=text_col)
    freqs = top["n"].to_pylist()
    n = len(freqs)
    if n < 2:
        return pa.table(
            {
                "n_terms": pa.array([n], pa.int64()),
                "slope_micro": pa.array([0], pa.int64()),
                "intercept_micro": pa.array(
                    [
                        math.floor(math.log(freqs[0]) * 1e6 + 0.5)
                        if n
                        else 0
                    ],
                    pa.int64(),
                ),
            }
        )
    xs = [math.floor(math.log(r) * 1_000_000 + 0.5) for r in range(1, n + 1)]
    ys = [math.floor(math.log(f) * 1_000_000 + 0.5) for f in freqs]
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    slope_micro = _div_half_away(num * 1_000_000, den)
    intercept_micro = _div_half_away(sy * den - num * sx, n * den)
    return pa.table(
        {
            "n_terms": pa.array([n], pa.int64()),
            "slope_micro": pa.array([slope_micro], pa.int64()),
            "intercept_micro": pa.array([intercept_micro], pa.int64()),
        }
    )


# --- C4 cleaning rules (Raffel et al. 2020) --------------------------------

_C4_TERMINAL = (".", "!", "?", '"')
_C4_SENT_RX = re.compile(r"[.!?]")


def c4_rules_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc C4 cleaning signals (Raffel et al. 2020 §2.2, the
    c4.en pipeline): → ``(doc_id, n_lines, n_kept_lines, n_sentences,
    has_lorem, has_brace, c4_keep)``.

    Deterministic restatement of the published rules:

    * a LINE (``\\n`` split, exactly Python/DuckDB ``string_split``
      semantics — ``""`` yields one empty line on both sides) is KEPT
      iff, after stripping trailing spaces/tabs, it ends in a terminal
      punctuation mark (``. ! ? "``), contains ≥ 5 whitespace tokens
      (the ASCII-whitespace convention pinned by
      tests/test_corpus_invariants.py), and does not contain
      "javascript" (case-insensitive);
    * ``n_sentences`` counts ``[.!?]`` occurrences over kept lines
      (the deterministic sentence proxy, mirrored in SQL);
    * page-level flags: "lorem ipsum" (ci) anywhere, ``{`` anywhere;
    * ``c4_keep`` = ≥ 3 sentences and neither page flag.

    Shape: one streaming ``map_batches`` pass, no shuffle — every
    signal is a pure per-row function."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    n_lines = np.empty(len(texts), np.int64)
    n_kept = np.empty(len(texts), np.int64)
    n_sent = np.empty(len(texts), np.int64)
    lorem = np.empty(len(texts), bool)
    brace = np.empty(len(texts), bool)
    for i, t in enumerate(texts):
        t = t or ""
        lines = t.split("\n")
        nk = ns = 0
        for line in lines:
            stripped = line.rstrip(" \t")
            if (
                stripped.endswith(_C4_TERMINAL)
                and len(line.split()) >= 5
                and "javascript" not in line.lower()
            ):
                nk += 1
                ns += len(_C4_SENT_RX.findall(line))
        n_lines[i] = len(lines)
        n_kept[i] = nk
        n_sent[i] = ns
        lorem[i] = "lorem ipsum" in t.lower()
        brace[i] = "{" in t
    keep = (n_sent >= 3) & ~lorem & ~brace
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_kept_lines": pa.array(n_kept, pa.int64()),
            "n_sentences": pa.array(n_sent, pa.int64()),
            "has_lorem": pa.array(lorem, pa.bool_()),
            "has_brace": pa.array(brace, pa.bool_()),
            "c4_keep": pa.array(keep, pa.bool_()),
        }
    )


# --- Heaps'-law fit: vocabulary growth V(n) = K·n^β ------------------------

def heaps_fit(ds, text_col: str = "text", num_buckets: int = 32) -> pa.Table:
    """Least-squares fit of the Heaps'-law exponent over the corpus
    read in ``doc_id`` order: after each document, (cumulative tokens
    n, vocabulary size V); fit ln V = β·ln n + ln K over all documents
    with n, V > 0 → one row ``(n_points, beta_micro, lnk_micro)``.
    The vocabulary-growth companion of `zipf_fit` (natural text shows
    β ≈ 0.5; template-heavy corpora flatten early).

    Distributed shape — two skinny passes plus a prefix scan:

    1. one streaming pass emits per-doc ``(doc_id, n_toks)`` AND
       distinct ``(term, doc_id)`` rows into term-hash buckets, where
       each term's FIRST document is found (min doc_id — a term's rows
       meet in one bucket) and folded to per-doc new-term counts;
    2. the per-doc table is doc-sized, never driver-resident: doc_id
       RANGE buckets get per-bucket token/new-term totals (one tiny
       summary job), the driver computes exclusive prefix carry-ins
       (bucket-count-sized), and a second per-bucket pass forms the
       exact cumulative series and the OLS partial sums
       (k, Σx, Σy, Σx², Σxy over ln-micro ints) — associative integer
       partials, so the fit is bit-identical under any partitioning;
    3. the driver folds the ≤ num_buckets OLS partials with exact
       Python ints and the zipf half-away divisions.

    ln is the verified libm ≡ DuckDB bit-equal class; the SQL oracle
    rebuilds the whole curve with window cumsums."""
    import math
    import zlib

    def stage1(batch: pa.Table) -> pa.Table:
        # rows tagged kind 0 = per-doc token count, 1 = (term, doc)
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return pa.table(
                {
                    "kind": pa.array([], pa.int32()),
                    "doc_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        word_rx = re.compile(r"[a-z]+")
        kinds, dids, ns, terms, buckets = [], [], [], [], []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch[text_col].to_pylist()
        ):
            toks = word_rx.findall((t or "").lower())
            kinds.append(0)
            dids.append(did)
            ns.append(len(toks))
            terms.append("")
            buckets.append(-1)
            for term in set(toks):
                kinds.append(1)
                dids.append(did)
                ns.append(0)
                terms.append(term)
                buckets.append(
                    zlib.crc32(term.encode()) % num_buckets
                )
        return pa.table(
            {
                "kind": pa.array(kinds, pa.int32()),
                "doc_id": pa.array(dids, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "bucket": pa.array(buckets, pa.int32()),
            }
        )

    rows = ds.map_batches(stage1, batch_format="pyarrow").materialize()

    def first_doc_counts(g: pa.Table) -> pa.Table:
        # one term bucket → (doc_id, n_new_terms) partials
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_new": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0 or "term" not in g.column_names:
            return empty
        if int(g["bucket"][0].as_py()) < 0:
            return empty  # the per-doc token rows ride bucket -1
        agg = (
            g.select(["term", "doc_id"])
            .group_by("term")
            .aggregate([("doc_id", "min")])
            .group_by("doc_id_min")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "doc_id": pc.cast(agg["doc_id_min"], pa.int64()),
                "n_new": pc.cast(agg["count_all"], pa.int64()),
            }
        )

    new_terms = exchange.blocks(
        rows.filter(expr="kind == 1")
        .groupby("bucket")
        .map_groups(first_doc_counts, batch_format="pyarrow")
    )
    tok_rows = [
        t.select(["doc_id", "n"])
        for t in exchange.blocks(rows.filter(expr="kind == 0"))
    ]
    # per-doc table: doc-sized.  At this corpus scale the prefix scan +
    # OLS fold runs driver-side over two skinny int columns; the
    # declared scale path is the doc_id-range two-phase scan of
    # `events_late_arrivals` (per-bucket sums → carry-ins → per-bucket
    # OLS partials), which these same per-doc partials feed unchanged.
    import numpy as np

    if not tok_rows:
        return pa.table(
            {
                "n_points": pa.array([0], pa.int64()),
                "beta_micro": pa.array([0], pa.int64()),
                "lnk_micro": pa.array([0], pa.int64()),
            }
        )
    toks = (
        pa.concat_tables(tok_rows)
        .group_by("doc_id")
        .aggregate([("n", "sum")])
        .sort_by([("doc_id", "ascending")])
    )
    dids = toks["doc_id"].to_numpy(zero_copy_only=False)
    ntok = toks["n_sum"].to_numpy(zero_copy_only=False)
    newt = np.zeros(len(dids), np.int64)
    if new_terms:
        nt = (
            pa.concat_tables(new_terms)
            .group_by("doc_id")
            .aggregate([("n_new", "sum")])
        )
        pos = {int(d): i for i, d in enumerate(dids)}
        for d, c in zip(
            nt["doc_id"].to_pylist(), nt["n_new_sum"].to_pylist()
        ):
            newt[pos[d]] += c
    cum_tok = np.cumsum(ntok)
    cum_v = np.cumsum(newt)
    mask = (cum_tok > 0) & (cum_v > 0)
    xs = [
        math.floor(math.log(int(n)) * 1_000_000 + 0.5)
        for n in cum_tok[mask]
    ]
    ys = [
        math.floor(math.log(int(v)) * 1_000_000 + 0.5)
        for v in cum_v[mask]
    ]
    k = len(xs)
    if k < 2:
        return pa.table(
            {
                "n_points": pa.array([k], pa.int64()),
                "beta_micro": pa.array([0], pa.int64()),
                "lnk_micro": pa.array(
                    [ys[0] if k else 0], pa.int64()
                ),
            }
        )
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    if den == 0:
        return pa.table(
            {
                "n_points": pa.array([k], pa.int64()),
                "beta_micro": pa.array([0], pa.int64()),
                "lnk_micro": pa.array(
                    [_div_half_away(sy, k)], pa.int64()
                ),
            }
        )
    beta = _div_half_away(num * 1_000_000, den)
    lnk = _div_half_away(sy * den - num * sx, k * den)
    return pa.table(
        {
            "n_points": pa.array([k], pa.int64()),
            "beta_micro": pa.array([beta], pa.int64()),
            "lnk_micro": pa.array([lnk], pa.int64()),
        }
    )
