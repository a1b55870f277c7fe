"""End-to-end corpus-curation pipeline over a ``documents`` table —
the canonical 100 TB training-data workflow, expressed as ONE Ray Data
chain: language-ID → quality filter → repetition (Gopher-rules) filter
→ exact dedup (keep-first by content hash) → MinHash-LSH near-dup
dedup (keep cluster canonical) → PII redaction + token stats on the
surviving corpus.

What it composes (all existing, individually-oracled stages):
* ``textstats.langid_batch`` / ``repetition_batch`` / the quality
  integer counts (SURVEY §2.9 text-analysis family);
* ``dedup.md5_batch`` keep-first semantics (reference's job dedup
  keep-first rule, ``job_extraction_service.py`` dedup family,
  generalized to content hashes);
* ``dedup.minhash_pairs_from_sigs`` + driver union-find
  (``pair_labels``) + broadcast label tagging;
* ``textstats`` PII regexes + token counts for the final scrub.

Pipeline shape / scale notes (10^10-doc framing):

* **Stage 1 is one streaming pass** over (doc_id, text, lang): every
  per-doc signal (pred_lang, quality ints, repetition counts, content
  md5, minhash signature) comes out of a single ``map_batches`` —
  text is read once and never shuffled.
* Signatures are computed for ALL stage-1 survivors (not just exact-
  dedup winners): identical texts have identical signatures, so the
  LSH pair graph automatically links exact duplicates (est=1.0 ≥ τ)
  and near-dup clustering subsumes exact dedup for the keep decision;
  this removes the text re-join an exact-first ordering would need.
  The wasted signature work is proportional to the exact-dup rate.
* The stage-1 output (decisions + 1 KB signature per doc, NO text) is
  **materialized once** and consumed twice (pair generation + decision
  assembly).  At cluster scale this is the stage checkpoint a
  resumable pipeline writes as hash-partitioned Parquet; in-object-
  store materialization is the single-node analogue of that artifact.
* The only shuffles are (a) the LSH band exchange inside
  ``minhash_pairs_from_sigs`` (a sort on the uniform band hash, one
  run sweep per sorted block) and (b) one md5-bucket exchange for
  decision assembly — both on uniform hash keys, both carrying
  hashes/booleans, never text.
* The near-dup label map is O(paired docs) — LSH *output*, orders of
  magnitude smaller than the corpus — broadcast zero-copy via
  ``ray.put`` (same pattern as ``minhash_cluster_labels``).
* ``curate_output`` re-attaches text for KEPT docs with one bucketed
  hash join on ``doc_id`` (``relational.hash_bucket_join``) — the
  final-materialization join every curation pipeline ends with — and
  runs the PII scrub + token count on the kept rows only.

Keep rules (integer-exact, bit-reproducible by the DuckDB oracle):
* quality_keep:   n_chars ≥ 100  ∧  2·n_alpha ≥ n_chars  ∧  n_ws ≥ 10
* repetition_keep: the Gopher rule from ``repetition_batch``
* exact_keep:     stage-1 survivor ∧ doc_id == min(doc_id) among
                  survivors sharing md5(text)
* kept:           stage-1 survivor ∧ doc_id == its cluster canonical
                  (min doc_id over the LSH connected component;
                  kept ⊆ exact_keep by construction — identical texts
                  always share a cluster)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.dedup import (
    _N_PERM,
    md5_batch,
    minhash_pairs_from_sigs,
    minhash_signature,
    pair_labels,
)
from ..stages.textstats import (
    ALPHA_RE,
    DIGIT_RE,
    PII_EMAIL_RE,
    PII_PHONE_RE,
    WS_TOKEN_RE,
    langid_batch,
    repetition_batch,
)

__all__ = ["stage1_batch", "curate_decisions", "curate_output",
           "curate_funnel", "curate_pages"]

# quality thresholds (shared verbatim with the oracle SQL)
MIN_CHARS = 100
MIN_WS_TOKENS = 10


def stage1_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text, lang) → per-doc stage-1 record: decisions +
    content hash + minhash signature (signature only for survivors).
    One streaming pass; text does not leave this stage."""
    lid = langid_batch(batch)
    rep = repetition_batch(batch)
    t = batch["text"]
    n_chars = pc.cast(pc.utf8_length(t), pa.int64())
    n_alpha = pc.cast(pc.count_substring_regex(t, ALPHA_RE), pa.int64())
    n_ws = pc.cast(pc.count_substring_regex(t, WS_TOKEN_RE), pa.int64())
    quality_keep = pc.and_(
        pc.and_(
            pc.greater_equal(n_chars, MIN_CHARS),
            pc.greater_equal(pc.multiply(n_alpha, 2), n_chars),
        ),
        pc.greater_equal(n_ws, MIN_WS_TOKENS),
    )
    stage1_keep = pc.and_(quality_keep, rep["repetition_keep"])
    keep_np = stage1_keep.combine_chunks().to_numpy(zero_copy_only=False)
    texts = t.to_pylist()
    sigs = [
        minhash_signature(texts[i]).astype(np.int64).tolist()
        if keep_np[i]
        else None
        for i in range(batch.num_rows)
    ]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "pred_lang": lid["pred_lang"],
            "quality_keep": quality_keep,
            "repetition_keep": rep["repetition_keep"],
            "stage1_keep": stage1_keep,
            "text_md5": md5_batch(batch)["text_md5"],
            "sig": pa.array(sigs, pa.list_(pa.int64(), _N_PERM)),
        }
    )


def _stage1(docs_ds):
    """Run + checkpoint stage 1 (see module docstring on why this is
    materialized: two consumers, text already dropped)."""
    return docs_ds.map_batches(
        stage1_batch, batch_format="pyarrow"
    ).materialize()


def curate_decisions(docs_ds, num_buckets: int = 64,
                     threshold: float = 0.8):
    """documents (doc_id, text, lang) → per-doc decision table
    (doc_id, pred_lang, quality_keep, repetition_keep, exact_keep,
    kept) — the curation manifest: every doc, every stage verdict."""
    import ray

    s1 = _stage1(docs_ds)

    def survivor_sigs(batch: pa.Table) -> pa.Table:
        kept = batch.filter(
            pc.equal(batch["stage1_keep"], True)
        )
        return kept.select(["doc_id", "sig"])

    pairs = minhash_pairs_from_sigs(
        s1.map_batches(survivor_sigs, batch_format="pyarrow"),
        threshold=threshold,
    )
    lk, lv = pair_labels(pairs)
    labels_ref = ray.put((lk, lv))

    def tag_bucket(batch: pa.Table) -> pa.Table:
        # md5 hex prefix → uniform bucket; an md5 group lives in
        # exactly one bucket, so bucket-local keep-first is exact
        pref = pc.utf8_slice_codeunits(batch["text_md5"], 0, 8)
        b = np.array(
            [int(x, 16) % num_buckets for x in pref.to_pylist()],
            dtype=np.int32,
        )
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def assemble(group: pa.Table) -> pa.Table:
        k, v = ray.get(labels_ref)
        ids = group["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        keep = group["stage1_keep"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(bool)
        henc = pc.dictionary_encode(group["text_md5"].combine_chunks())
        codes = henc.indices.to_numpy(zero_copy_only=False)
        n_codes = len(henc.dictionary)
        minid = np.full(n_codes, np.iinfo(np.int64).max, dtype=np.int64)
        if keep.any():
            np.minimum.at(minid, codes[keep], ids[keep])
        exact_keep = keep & (ids == minid[codes])
        if len(k):
            pos = np.clip(np.searchsorted(k, ids), 0, len(k) - 1)
            hit = k[pos] == ids
            canon = np.where(hit, v[pos], ids)
        else:
            canon = ids
        kept = keep & (canon == ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pred_lang": group["pred_lang"],
                "quality_keep": group["quality_keep"],
                "repetition_keep": group["repetition_keep"],
                "exact_keep": pa.array(exact_keep, pa.bool_()),
                "kept": pa.array(kept, pa.bool_()),
            }
        )

    return (
        s1.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(assemble, batch_format="pyarrow")
    )


def curate_output(docs_ds, decisions_ds, num_buckets: int = 32):
    """(documents, decisions) → the curated corpus: kept docs only,
    PII-scrubbed, with (doc_id, pred_lang, n_tokens_ws, n_emails,
    n_phones, text_redacted)."""
    from .relational import hash_bucket_join

    def kept_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["kept"], True)).select(
            ["doc_id", "pred_lang"]
        )

    kept = decisions_ds.map_batches(kept_only, batch_format="pyarrow")

    def scrub(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        red = pc.replace_substring_regex(
            pc.replace_substring_regex(t, PII_EMAIL_RE, "<EMAIL>"),
            PII_PHONE_RE,
            "<PHONE>",
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": batch["pred_lang"],
                "n_tokens_ws": pc.cast(
                    pc.count_substring_regex(t, WS_TOKEN_RE), pa.int64()
                ),
                "n_emails": pc.cast(
                    pc.count_substring_regex(t, PII_EMAIL_RE), pa.int64()
                ),
                "n_phones": pc.cast(
                    pc.count_substring_regex(t, PII_PHONE_RE), pa.int64()
                ),
                "text_redacted": red,
            }
        )

    joined = hash_bucket_join(
        docs_ds,
        kept,
        on="doc_id",
        num_buckets=num_buckets,
        # kept's schema is static — skip the limit-1 schema probe
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("pred_lang", pa.string())]
        ),
    )
    return joined.map_batches(scrub, batch_format="pyarrow")


def curate_funnel(decisions_ds) -> pa.Table:
    """decisions → one-row stage-survival funnel (docs in, per-stage
    keeps) — the run report a curation job logs."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    def ints(batch: pa.Table) -> pa.Table:
        q = pc.cast(batch["quality_keep"], pa.int64())
        r = pc.cast(batch["repetition_keep"], pa.int64())
        s1 = pc.multiply(q, r)
        return pa.table(
            {
                "q": q,
                "s1": s1,
                "ex": pc.cast(batch["exact_keep"], pa.int64()),
                "kp": pc.cast(batch["kept"], pa.int64()),
            }
        )

    agg = decisions_ds.map_batches(ints, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("q", alias_name="n_quality_keep"),
        Sum("s1", alias_name="n_stage1_keep"),
        Sum("ex", alias_name="n_exact_keep"),
        Sum("kp", alias_name="n_kept"),
    )
    return pa.table(
        {
            name: pa.array([int(agg[name])], pa.int64())
            for name in (
                "n_docs",
                "n_quality_keep",
                "n_stage1_keep",
                "n_exact_keep",
                "n_kept",
            )
        }
    )


# ---------------------------------------------------------------------------
# crawl-side curation: deboiler → quality rules → exact dedup → decision
# ---------------------------------------------------------------------------

_PAGE_METRIC_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("n_chars", pa.int64()),
        ("n_tokens", pa.int64()),
        ("n_alpha", pa.int64()),
        ("n_digit", pa.int64()),
        ("fph", pa.uint64()),
        ("bucket", pa.int32()),
    ]
)

_PAGE_DECISION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("n_tokens", pa.int64()),
        ("keep", pa.bool_()),
        ("reason", pa.string()),
        ("dup_of", pa.string()),
    ]
)


def curate_pages(
    text_ds,
    group_col: str = "host",
    id_col: str = "url",
    text_col: str = "text_crawldata",
    seg_words: int = 10,
    min_df: int = 3,
    min_tokens: int = 20,
    num_buckets: int = 64,
    keys_gstats=None,
):
    """Crawl-corpus curation chain: within-host boilerplate removal →
    quality-rule cascade on the CLEAN text → exact dedup (keep the
    min-url copy) → per-page keep/drop decision with reason — the
    extraction-to-training-set pass a webtext pipeline runs between the
    crawler and the document-level curator (``curate_decisions``).

    Rules, applied in order (all integer-exact, mirrored by the SQL
    oracle): ``short`` (tokens < min_tokens), ``low_alpha``
    (2·n_alpha < n_chars), ``digit_heavy`` (10·n_digit > n_chars),
    ``dup`` (identical clean text, non-canonical copy; canonical =
    lexicographically smallest url), else ``kept``.

    Scale shape: ONE streaming pass over the text computes the clean
    rebuild + Arrow-kernel quality counts + a 64-bit content hash —
    text is read once and never shuffles; decisions assemble inside
    ``fph % num_buckets`` groups (an fp's rows all land in one bucket,
    so the dup canonical is exact).  The boilerplate key set broadcasts
    once (template-sized — the ``boilerplate_removal`` boundary)."""
    import hashlib

    import ray

    from ..stages.dedup import _boiler_rebuild_row, boilerplate_keys

    keys, _ = keys_gstats if keys_gstats is not None else boilerplate_keys(
        text_ds, group_col, text_col, seg_words, min_df
    )
    k_ref = ray.put(keys)

    def metrics(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _PAGE_METRIC_SCHEMA.empty_table()
        dk = ray.get(k_ref)
        urls = batch[id_col].to_pylist()
        groups = batch[group_col].to_pylist()
        texts = batch[text_col].to_pylist()
        clean: list[str] = []
        fph = np.empty(len(urls), dtype=np.uint64)
        for i, (g, t) in enumerate(zip(groups, texts)):
            c, _, _ = _boiler_rebuild_row(g, t, seg_words, dk)
            clean.append(c)
            fph[i] = np.uint64(
                int.from_bytes(
                    hashlib.md5(c.encode("utf-8")).digest()[:8], "little"
                )
            )
        ct = pa.array(clean, pa.string())
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "host": pa.array(groups, pa.string()),
                "n_chars": pc.cast(pc.utf8_length(ct), pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(ct, WS_TOKEN_RE), pa.int64()
                ),
                "n_alpha": pc.cast(
                    pc.count_substring_regex(ct, ALPHA_RE), pa.int64()
                ),
                "n_digit": pc.cast(
                    pc.count_substring_regex(ct, DIGIT_RE), pa.int64()
                ),
                "fph": pa.array(fph, pa.uint64()),
                "bucket": pa.array(
                    (fph % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32(),
                ),
            },
            schema=_PAGE_METRIC_SCHEMA,
        )

    def decide(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _PAGE_DECISION_SCHEMA.empty_table()
        urls = np.asarray(group["url"].to_pylist(), dtype=object)
        n_chars = group["n_chars"].to_numpy(zero_copy_only=False)
        n_tok = group["n_tokens"].to_numpy(zero_copy_only=False)
        n_alpha = group["n_alpha"].to_numpy(zero_copy_only=False)
        n_digit = group["n_digit"].to_numpy(zero_copy_only=False)
        fph = group["fph"].to_numpy(zero_copy_only=False)
        short = n_tok < min_tokens
        low_alpha = ~short & (2 * n_alpha < n_chars)
        digit_heavy = ~short & ~low_alpha & (10 * n_digit > n_chars)
        passer = ~(short | low_alpha | digit_heavy)
        dup_of = np.full(len(urls), "", dtype=object)
        is_dup = np.zeros(len(urls), dtype=bool)
        if passer.any():
            pi = np.flatnonzero(passer)
            uu, ucode = np.unique(urls[pi], return_inverse=True)
            order = np.lexsort((ucode, fph[pi]))
            fps = fph[pi][order]
            first = np.empty(len(fps), dtype=bool)
            first[0] = True
            first[1:] = fps[1:] != fps[:-1]
            canon_per_fp = urls[pi][order][first]
            grp = np.cumsum(first) - 1
            canon = np.empty(len(fps), dtype=object)
            canon[:] = canon_per_fp[grp]
            rows = pi[order]
            dup_rows = rows[~first]
            is_dup[dup_rows] = True
            dup_of[dup_rows] = canon[~first]
        reason = np.full(len(urls), "kept", dtype=object)
        reason[is_dup] = "dup"
        reason[digit_heavy] = "digit_heavy"
        reason[low_alpha] = "low_alpha"
        reason[short] = "short"
        keep = passer & ~is_dup
        return pa.table(
            {
                "url": pa.array(urls.astype(str), pa.string()),
                "host": group["host"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "keep": pa.array(keep),
                "reason": pa.array(reason.astype(str), pa.string()),
                "dup_of": pa.array(dup_of.astype(str), pa.string()),
            },
            schema=_PAGE_DECISION_SCHEMA,
        )

    return (
        text_ds.map_batches(metrics, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(decide, batch_format="pyarrow")
    )
