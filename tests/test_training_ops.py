"""Training-data-pipeline operators: dedup / similarity search / text
analysis / multimodal — semantics pinned against DuckDB (same RE2 regex
engine, same integer/fixed-point arithmetic) and against pure-Python
reference computations.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "embeddings", "events", "lineitem", "orders",
              "customer", "supplier", "part", "nation", "region"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def assert_frames_equal(a, b):
    import pandas as pd

    a, b = _canon(a), _canon(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


# --- text analysis --------------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_token_stats_vs_duckdb(docs_ds, duck):
    from crawler_ai_ray.stages.textstats import token_stats_batch, BPE_TOKEN_RE

    eng = docs_ds.map_batches(token_stats_batch, batch_format="pyarrow").to_pandas()
    ora = duck.sql(
        "SELECT doc_id, len(regexp_extract_all(text, '\\S+'))::BIGINT n_tokens_ws,"
        f" len(regexp_extract_all(text, '{BPE_TOKEN_RE}'))::BIGINT n_tokens_bpe,"
        " length(text)::BIGINT n_chars_text FROM documents"
    ).df()
    assert_frames_equal(eng, ora)


def test_langid_known_texts():
    """Real sentences classify correctly (the driver's documents table
    carries random text with arbitrary lang labels, so accuracy there is
    undefined; semantics are pinned on known text + the DuckDB mirror)."""
    from crawler_ai_ray.stages.textstats import langid_batch

    cases = [
        ("The quick brown fox is one of the best tests for this.", "en"),
        ("Der Hund ist nicht mit der Katze zu vergleichen.", "de"),
        ("Le chat est dans la maison pour une bonne raison.", "fr"),
        ("El perro es una de las mascotas más populares del mundo.", "es"),
        ("这是一个中文句子。", "zh"),
        ("xyzzy plugh 12345", "und"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(cases)), pa.int64()),
            "text": [c[0] for c in cases],
            "lang": [c[1] for c in cases],
        }
    )
    df = langid_batch(t).to_pandas()
    assert list(df["pred_lang"]) == [c[1] for c in cases]


@pytest.mark.usefixtures("ray_session")
def test_langid_vs_duckdb(docs_ds, duck):
    from crawler_ai_ray.stages.textstats import LANG_STOPWORDS, langid_batch

    eng = docs_ds.map_batches(langid_batch, batch_format="pyarrow").to_pandas()
    counts = ", ".join(
        f"len(regexp_extract_all(lower(text), '{pat}')) c_{lang}"
        for lang, pat in LANG_STOPWORDS
    )
    ora = duck.sql(f"""
      WITH c AS (SELECT doc_id, lang,
                        len(regexp_extract_all(text, '[一-鿿]')) c_zh, {counts}
                 FROM documents)
      SELECT doc_id, lang,
        CASE WHEN c_zh > 0 THEN 'zh'
             WHEN c_en=0 AND c_de=0 AND c_fr=0 AND c_es=0 THEN 'und'
             WHEN c_en>=c_de AND c_en>=c_fr AND c_en>=c_es THEN 'en'
             WHEN c_de>=c_fr AND c_de>=c_es THEN 'de'
             WHEN c_fr>=c_es THEN 'fr' ELSE 'es' END pred_lang
      FROM c""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_fingerprint_stability(docs_ds):
    from crawler_ai_ray.stages.textstats import fingerprint_batch, _poly_hash_u64

    df = docs_ds.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert df["fingerprint"].nunique() == len(df)  # no collisions at this n
    # stable across calls and equals the direct computation
    assert _poly_hash_u64(b"abc") == _poly_hash_u64(b"abc")
    assert _poly_hash_u64(b"abc") != _poly_hash_u64(b"acb")  # order matters


# --- dedup ----------------------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_keeps_min_docid(ray_session):
    import ray.data
    from crawler_ai_ray.stages.dedup import exact_dedup

    t = pa.table(
        {
            "doc_id": pa.array([5, 3, 9, 1, 7], pa.int64()),
            "text": ["a", "b", "a", "a", "b"],
        }
    )
    out = exact_dedup(ray.data.from_arrow(t)).to_pandas()
    got = {
        r.n_dups: r.keep_doc_id for r in out.itertuples()
    }
    assert got == {3: 1, 2: 3}  # 'a' x3 keeps doc 1, 'b' x2 keeps doc 3


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_vs_duckdb(docs_ds, duck):
    from crawler_ai_ray.stages.dedup import ngram_pairs_jaccard

    eng = ngram_pairs_jaccard(docs_ds, n=3, threshold=0.8, max_df=50).to_pandas()
    ora = duck.sql("""
      WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '\\S+') t
                    FROM documents),
      ng AS (SELECT DISTINCT doc_id, t[i]||' '||t[i+1]||' '||t[i+2] ngram
             FROM toks, unnest(generate_series(1, len(t)-2)) s(i)
             WHERE len(t) >= 3),
      sizes AS (SELECT doc_id, count(*) sz FROM ng GROUP BY 1),
      df AS (SELECT ngram, count(*) c FROM ng GROUP BY 1),
      pairs AS (SELECT a.doc_id doc_a, b.doc_id doc_b, count(*) shared
                FROM ng a JOIN ng b ON a.ngram=b.ngram AND a.doc_id<b.doc_id
                JOIN df ON df.ngram=a.ngram AND df.c<=50 GROUP BY 1,2)
      SELECT doc_a, doc_b, shared,
             shared/(sa.sz+sb.sz-shared)::DOUBLE jaccard
      FROM pairs JOIN sizes sa ON sa.doc_id=doc_a
                 JOIN sizes sb ON sb.doc_id=doc_b
      WHERE shared/(sa.sz+sb.sz-shared)::DOUBLE >= 0.8""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_minhash_estimates_jaccard(docs_ds):
    """MinHash-LSH must find the same planted near-dup pairs as the exact
    n-gram Jaccard join, with estimates close to the true values."""
    from crawler_ai_ray.stages.dedup import minhash_lsh_pairs, ngram_pairs_jaccard

    exact = ngram_pairs_jaccard(docs_ds, n=3, threshold=0.8, max_df=50).to_pandas()
    mh = minhash_lsh_pairs(docs_ds, n=3, threshold=0.8).to_pandas()
    exact_pairs = set(zip(exact.doc_a, exact.doc_b))
    mh_pairs = set(zip(mh.doc_a, mh.doc_b))
    assert exact_pairs, "corpus should contain planted near-dups"
    # recall of LSH vs exact at the same threshold
    assert len(exact_pairs & mh_pairs) / len(exact_pairs) >= 0.9
    merged = mh.merge(exact, on=["doc_a", "doc_b"])
    assert (abs(merged.est_jaccard - merged.jaccard) < 0.15).all()


@pytest.mark.usefixtures("ray_session")
def test_minhash_local_path_agreement(docs_ds):
    """The driver-local small-input branch must be bit-identical to the
    distributed pipeline (same kernels by construction — this pins it
    stays that way), for both pair generation and cluster labels."""
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.dedup import (
        minhash_cluster_labels,
        minhash_cluster_labels_local,
        minhash_lsh_pairs,
        minhash_lsh_pairs_local,
    )

    tab = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    key = ["doc_a", "doc_b"]
    dist = (
        minhash_lsh_pairs(docs_ds, n=3, threshold=0.8)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    loc = (
        minhash_lsh_pairs_local(tab, n=3, threshold=0.8)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    assert dist.equals(loc)

    dist_l = (
        minhash_cluster_labels(
            docs_ds, docs_ds.select_columns(["doc_id"]), n=3, threshold=0.8
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    loc_l = (
        minhash_cluster_labels_local(tab, n=3, threshold=0.8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert dist_l.equals(loc_l)


@pytest.mark.usefixtures("ray_session")
def test_simhash_neardup_symmetric_and_planted(docs_ds):
    from crawler_ai_ray.stages.dedup import simhash64, simhash_neardup_pairs

    pairs = simhash_neardup_pairs(docs_ds, max_hamming=3).to_pandas()
    assert (pairs.doc_a < pairs.doc_b).all()
    assert len(pairs) > 0
    # hamming distance recomputed directly matches
    import pyarrow.parquet as pq

    texts = dict(
        zip(
            pq.read_table(f"{SF}/documents.parquet")["doc_id"].to_pylist(),
            pq.read_table(f"{SF}/documents.parquet")["text"].to_pylist(),
        )
    )
    for r in pairs.head(5).itertuples():
        d = bin(
            (np.uint64(simhash64(texts[r.doc_a])) ^ np.uint64(simhash64(texts[r.doc_b]))).item()
        ).count("1")
        assert d == r.hamming <= 3


# --- similarity search ----------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_knn_vs_duckdb(ray_session, duck):
    import ray.data
    from crawler_ai_ray.stages.dedup import list_col_to_matrix
    from crawler_ai_ray.stages.simsearch import knn_bruteforce
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    anchors = t.filter(pa.array(ids % 97 == 0)).sort_by("vec_id")
    q = list_col_to_matrix(anchors["embedding"])
    qids = anchors["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    eng = (
        knn_bruteforce(ray.data.read_parquet(f"{SF}/embeddings.parquet"), q, qids, k=10)
        .to_pandas()[["query_id", "vec_id", "rank"]]
    )
    ora = duck.sql("""
      WITH q AS (SELECT vec_id qid, embedding qe FROM embeddings WHERE vec_id%97=0),
      s AS (SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.embedding) sim
            FROM q CROSS JOIN embeddings e),
      r AS (SELECT qid query_id, vec_id,
                   row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) rank
            FROM s)
      SELECT query_id, vec_id, rank FROM r WHERE rank <= 10""").df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall(ray_session):
    """ANN with nprobe=3/8 lists must keep high top-10 recall vs exact."""
    import ray.data
    from crawler_ai_ray.stages.dedup import list_col_to_matrix
    from crawler_ai_ray.stages.simsearch import (
        ivf_assign,
        kmeans_train,
        knn_bruteforce,
        knn_ivf,
    )
    import pyarrow.parquet as pq

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    anchors = t.filter(pa.array(ids % 97 == 0)).sort_by("vec_id")
    q = list_col_to_matrix(anchors["embedding"])
    qids = anchors["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    exact = knn_bruteforce(ds, q, qids, k=10).to_pandas()
    cents = kmeans_train(ds, nlist=8, iters=3)
    approx = knn_ivf(ivf_assign(ds, cents), cents, q, qids, k=10, nprobe=3).to_pandas()
    recalls = []
    for qid in qids:
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, f"IVF recall too low: {recalls}"


# --- multimodal plumbing --------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_multimodal_stages(ray_session):
    import ray.data
    from crawler_ai_ray.stages.multimodal import (
        AudioFeatures,
        ImageDecodeResize,
        VideoFrameSample,
        media_batch_size,
        synth_media_table,
    )

    assert media_batch_size(32 << 20) == 4  # floor
    assert media_batch_size(1) == 1024      # cap

    imgs = ray.data.from_arrow(synth_media_table(24, "image"))
    feat = imgs.map_batches(
        ImageDecodeResize,
        fn_constructor_kwargs={"out_w": 16, "out_h": 16},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=(1, 2),
    ).to_pandas()
    assert len(feat) == 24
    assert (feat.width == 16).all()
    assert feat.mean_luma.between(0, 255).all()
    assert all(len(e) == 16 for e in feat.embedding)

    # determinism: same payload -> same features, across two runs
    feat2 = imgs.map_batches(
        ImageDecodeResize,
        fn_constructor_kwargs={"out_w": 16, "out_h": 16},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=(1, 2),
    ).to_pandas()
    assert (
        feat.sort_values("media_id").mean_luma.values
        == feat2.sort_values("media_id").mean_luma.values
    ).all()

    vids = ray.data.from_arrow(synth_media_table(6, "video"))
    frames = vids.map_batches(
        VideoFrameSample,
        fn_constructor_kwargs={"every_n": 10},
        batch_format="pyarrow",
        concurrency=(1, 2),
    ).to_pandas()
    assert (frames.frame_idx % 10 == 0).all()

    auds = ray.data.from_arrow(synth_media_table(8, "audio"))
    af = auds.map_batches(
        AudioFeatures, batch_format="pyarrow", concurrency=(1, 2)
    ).to_pandas()
    assert len(af) == 8
    assert af.duration_s.between(0.4, 2.1).all()
    assert af.rms.between(0.01, 1.0).all()

    with pytest.raises(ValueError):
        ImageDecodeResize(decoder="nope")


def test_media_codecs_roundtrip():
    """The decode stages do REAL byte-level decoding: P6 PPM, RIFF/WAVE
    PCM16 and YUV4MPEG2 streams round-trip exactly, and the PPM parser
    honors netpbm comments."""
    import numpy as np

    from crawler_ai_ray.stages.multimodal import (
        decode_ppm,
        decode_wav,
        decode_y4m,
        encode_ppm,
        encode_wav,
        encode_y4m,
    )

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, size=(17, 23, 3), dtype=np.uint8)
    assert (decode_ppm(encode_ppm(px)) == px).all()
    # netpbm comment + multi-whitespace header
    hand = b"P6 # c\n# full line comment\n 23\t17 \n255\n" + px.tobytes()
    assert (decode_ppm(hand) == px).all()

    pcm = (rng.randn(12345) * 8000).astype(np.int16)
    got, sr = decode_wav(encode_wav(pcm, 22050))
    assert sr == 22050 and (got == pcm).all()

    frames = rng.randint(0, 256, size=(7, 9, 11), dtype=np.uint8)
    got_f, fps = decode_y4m(encode_y4m(frames, fps=25))
    assert fps == 25 and (got_f == frames).all()


def test_media_features_match_direct_compute():
    """Stage outputs equal features computed directly on the decoded
    arrays (decode is not a stub)."""
    import numpy as np
    import pyarrow as pa

    from crawler_ai_ray.stages.multimodal import (
        AudioFeatures,
        VideoFrameSample,
        decode_wav,
        decode_y4m,
        synth_media_table,
    )

    aud = synth_media_table(3, "audio")
    out = AudioFeatures()(aud)
    for i in range(3):
        pcm, sr = decode_wav(aud["payload"][i].as_py())
        x = pcm.astype(np.float64) / 32768.0
        assert out["duration_s"][i].as_py() == len(x) / sr
        assert abs(out["rms"][i].as_py() - float(np.sqrt((x**2).mean()))) < 1e-12

    vid = synth_media_table(2, "video")
    out = VideoFrameSample(every_n=7)(vid)
    frames0, _ = decode_y4m(vid["payload"][0].as_py())
    first = out.filter(
        pa.compute.equal(out["media_id"], 0)
    )
    assert first["frame_idx"].to_pylist() == list(range(0, len(frames0), 7))
    assert first["mean_luma"][0].as_py() == float(frames0[0].mean())


# --- embedding near-dup ---------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_embedding_neardup_vs_duckdb(ray_session, duck):
    import ray.data
    import pyarrow.parquet as pq
    from crawler_ai_ray.stages.dedup import embedding_neardup_pairs, list_col_to_matrix

    t = pq.read_table(f"{SF}/embeddings.parquet")
    eng = embedding_neardup_pairs(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"),
        list_col_to_matrix(t["embedding"]),
        t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        threshold=0.45,
    ).to_pandas()
    ora = duck.sql(
        "SELECT a.vec_id anchor_id, b.vec_id vec_id FROM embeddings a "
        "JOIN embeddings b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45"
    ).df()
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_embedding_lsh_matches_exact_neardup():
    """Random-hyperplane LSH (the O(N) scale path) must recover ≥95 %
    of the exact cosine near-dup pairs with no false pairs."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        embedding_neardup_lsh,
        embedding_neardup_pairs,
        list_col_to_matrix,
    )

    import os

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(os.path.join(sf, "embeddings.parquet"))
    anchors = list_col_to_matrix(t["embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    ds = ray.data.read_parquet(
        os.path.join(sf, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    exact = embedding_neardup_pairs(ds, anchors, ids, threshold=0.45)
    ep = {
        (r["anchor_id"], r["vec_id"]) for r in exact.to_pandas().to_dict("records")
    }
    ds2 = ray.data.read_parquet(
        os.path.join(sf, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    lsh = embedding_neardup_lsh(
        ds2, threshold=0.45, n_bands=24, bits_per_band=3
    )
    lp = {
        (r["anchor_id"], r["vec_id"]) for r in lsh.to_pandas().to_dict("records")
    }
    assert lp <= ep                       # verified cosine → no false pairs
    if ep:
        assert len(lp & ep) / len(ep) >= 0.95


def test_top_terms_exact_vs_duckdb(docs_ds, duck):
    from crawler_ai_ray.stages.textstats import top_terms

    got = top_terms(docs_ds, k=20, num_buckets=8).to_pandas()
    want = duck.sql(
        """
        WITH toks AS (
          SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
          FROM documents),
        c AS (SELECT term, count(*)::BIGINT AS n FROM toks
              WHERE term <> '' GROUP BY 1)
        SELECT term, n FROM c ORDER BY n DESC, term ASC LIMIT 20"""
    ).df()
    assert got["term"].tolist() == want["term"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_top_terms_bucket_count_invariant(docs_ds):
    from crawler_ai_ray.stages.textstats import top_terms

    a = top_terms(docs_ds, k=15, num_buckets=4).to_pandas()
    b = top_terms(docs_ds, k=15, num_buckets=32).to_pandas()
    assert a["term"].tolist() == b["term"].tolist()
    assert a["n"].tolist() == b["n"].tolist()


def test_sample_deterministic_and_hashed():
    import hashlib

    from crawler_ai_ray.stages.textstats import sample_batch

    t = pa.table({"doc_id": pa.array(range(1000), pa.int64())})
    s1 = sample_batch(t)
    s2 = sample_batch(t)
    assert s1.equals(s2)
    kept = set(s1["doc_id"].to_pylist())
    for i in range(1000):
        expect = hashlib.md5(str(i).encode()).hexdigest()[0] in "01"
        assert (i in kept) == expect
    # ~2/16 rate
    assert 60 < len(kept) < 190


def test_neardup_clusters_transitive_min_label(ray_session):
    import ray.data

    from crawler_ai_ray.stages.dedup import minhash_cluster_labels

    base = (
        "the quick brown fox jumps over the lazy dog again and again "
        "while the band plays on and the crowd sings along loudly " * 4
    )
    texts = [base, base + " tail", base + " tail two", "something else "
             "entirely different words only here " * 6]
    tbl = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = (
        minhash_cluster_labels(ds, ds.select_columns(["doc_id"]),
                               threshold=0.7)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    # 10/11/12 form one component labelled by the MIN id; 13 is alone
    assert out["canonical_id"].tolist()[:3] == [10, 10, 10]
    assert out["canonical_id"].tolist()[3] == 13
    assert out["is_canonical"].tolist() == [True, False, False, True]


# --- PII redaction / stratified sample / incremental dedup ----------------

def test_pii_redact_planted_and_vs_duckdb(duck):
    from crawler_ai_ray.stages.textstats import pii_redact_batch

    texts = [
        "contact hr@example.com or +84 94 950 4550 today",
        "two mails a.b+tag@x.co c_d%e@y-z.org and (08) 1234-5678 done",
        "no pii here at all",
        "digits in local 123@nums.net then 0901 234 567",
        "",
    ]
    t = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(len(texts))]),
            "text": pa.array(texts),
        }
    )
    out = pii_redact_batch(t)
    assert out["n_emails"].to_pylist() == [1, 2, 0, 1, 0]
    assert out["n_phones"].to_pylist() == [1, 1, 0, 1, 0]
    red = out["text_redacted"].to_pylist()
    assert red[0] == "contact <EMAIL> or <PHONE> today"
    assert "<EMAIL>" in red[3] and "<PHONE>" in red[3]
    assert red[2] == texts[2] and red[4] == ""
    # byte-identical vs DuckDB's RE2 on the same rows
    from crawler_ai_ray.stages.textstats import PII_EMAIL_RE, PII_PHONE_RE

    duck.register("pii_in", t)
    ora = duck.sql(
        "SELECT url, regexp_replace(regexp_replace(text, "
        f"'{PII_EMAIL_RE}', '<EMAIL>', 'g'), '{PII_PHONE_RE}', "
        "'<PHONE>', 'g') AS text_redacted FROM pii_in"
    ).df()
    assert ora["text_redacted"].tolist() == red


@pytest.mark.usefixtures("ray_session")
def test_stratified_sample_vs_duckdb_and_partition_invariant(docs_ds, duck):
    from crawler_ai_ray.stages.textstats import stratified_sample

    quota = 7
    eng = stratified_sample(
        docs_ds.select_columns(["doc_id", "lang", "n_chars"]), quota=quota
    ).to_pandas()
    ora = duck.sql(
        "WITH r AS (SELECT doc_id, lang, n_chars, row_number() OVER ("
        "PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)"
        " AS sample_rank FROM documents) SELECT * FROM r "
        f"WHERE sample_rank <= {quota}"
    ).df()
    assert_frames_equal(eng, ora)
    # combiner correctness must not depend on the block layout
    eng2 = stratified_sample(
        docs_ds.select_columns(["doc_id", "lang", "n_chars"]).repartition(13),
        quota=quota,
    ).to_pandas()
    assert_frames_equal(eng, eng2)


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_anti_join_and_keep_first(ray_session):
    import ray.data

    from crawler_ai_ray.stages.dedup import incremental_dedup

    existing = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["alpha", "beta"]),
        }
    )
    incoming = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            # alpha collides with the corpus; gamma duplicated in-batch
            "text": pa.array(["alpha", "gamma", "gamma", "delta"]),
        }
    )
    out = (
        incremental_dedup(
            ray.data.from_arrow(existing), ray.data.from_arrow(incoming)
        )
        .to_pandas()
        .sort_values("keep_doc_id", ignore_index=True)
    )
    assert out["keep_doc_id"].tolist() == [11, 13]
    assert out["n_new"].tolist() == [2, 1]


def test_repetition_batch_planted_and_vs_duckdb(duck):
    from crawler_ai_ray.stages.textstats import repetition_batch

    texts = [
        "spam spam spam spam spam spam spam spam spam spam",  # degenerate
        "one two three four five six seven eight nine ten eleven twelve",
        "ab cd ab cd ab cd xy zz pq rs tu vw",  # heavy dup bigrams
        "",  # empty
        "lone",  # single token
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(texts),
        }
    )
    out = repetition_batch(t)
    assert out["n_tokens"].to_pylist() == [10, 12, 12, 0, 1]
    assert out["top_unigram_occ"].to_pylist() == [10, 1, 3, 0, 1]
    # doc0: all 9 bigrams are 'spam spam'; doc2: 'ab cd'x3 + 'cd ab'x2
    assert out["dup_bigram_occ"].to_pylist() == [9, 0, 5, 0, 0]
    assert out["repetition_keep"].to_pylist() == [
        False,  # top1 frac 1.0
        True,
        False,  # dup bigram frac 5/11 > 0.4
        False,  # too short
        False,  # too short
    ]
    # exact parity with the oracle SQL shape on real corpus text
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    eng = (
        repetition_batch(docs).to_pandas().sort_values("doc_id",
                                                       ignore_index=True)
    )
    import __ray_entry__ as m

    ora = (
        duck.sql(m.oracle_sql()["doc_repetition"])
        .df()
        .sort_values("doc_id", ignore_index=True)
    )
    assert_frames_equal(eng, ora)


@pytest.mark.usefixtures("ray_session")
def test_distinctive_terms_vs_duckdb_and_partition_invariant(docs_ds, duck):
    from crawler_ai_ray.stages.textstats import distinctive_terms

    import __ray_entry__ as m

    eng = distinctive_terms(
        docs_ds.select_columns(["doc_id", "text"]), k=3
    ).to_pandas()
    ora = duck.sql(m.oracle_sql()["doc_distinctive_terms"]).df()
    assert_frames_equal(eng, ora)
    eng2 = distinctive_terms(
        docs_ds.select_columns(["doc_id", "text"]).repartition(11),
        k=3,
        num_buckets=17,
    ).to_pandas()
    assert_frames_equal(eng, eng2)


def test_pack_blocks_scan_and_unordered_fallback(ray_session):
    """Distributed prefix-sum packing: (a) global cum_before equals a
    serial cumsum in doc_id order; (b) feeding the docs as interleaved
    (overlapping-range) blocks triggers the sort fallback and yields
    the identical assignment."""
    import ray
    import ray.data

    from crawler_ai_ray.stages.textstats import pack_blocks

    rng = np.random.default_rng(3)
    n = 300
    texts = [" ".join(["w"] * int(k)) for k in rng.integers(1, 40, n)]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )

    def serial(t):
        toks = [len(x.split()) for x in t["text"].to_pylist()]
        cum = 0
        out = []
        for d, k in zip(t["doc_id"].to_pylist(), toks):
            out.append((d, k, cum, cum // 128))
            cum += k
        return out

    expected = serial(tbl)

    def run(ds):
        got = pa.concat_tables(
            [t for t in ray.get(pack_blocks(
                ds, block_tokens=128).to_arrow_refs()) if t.num_rows]
        ).sort_by("doc_id")
        return list(
            zip(
                got["doc_id"].to_pylist(),
                got["n_tokens"].to_pylist(),
                got["cum_before"].to_pylist(),
                got["block_id"].to_pylist(),
            )
        )

    # ordered range-partitioned input (fast path, no shuffle)
    ordered = ray.data.from_arrow(
        [tbl.slice(i, 50) for i in range(0, n, 50)]
    )
    assert run(ordered) == expected

    # interleaved blocks: even/odd doc_ids → overlapping ranges →
    # fallback sort path
    even = tbl.filter(pa.array([i % 2 == 0 for i in range(n)]))
    odd = tbl.filter(pa.array([i % 2 == 1 for i in range(n)]))
    interleaved = ray.data.from_arrow([even, odd])
    assert run(interleaved) == expected


def test_decontaminate_planted_overlap(ray_session):
    """Planted eval overlap: doc 10 IS an eval doc verbatim (all
    n-grams shared -> contaminated), doc 11 shares half a sentence
    (minority overlap -> clean), doc 12 disjoint."""
    import ray.data

    from crawler_ai_ray.stages.dedup import decontaminate

    eval_tbl = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(
                ["the quick brown fox jumps over the lazy dog"]
            ),
        }
    )
    corpus_tbl = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox jumps over the lazy dog",
                    "the quick brown cat naps quietly all afternoon today",
                    "completely different words in this sentence here",
                ]
            ),
        }
    )
    out = pa.concat_tables(
        [
            t
            for t in __import__("ray").get(
                decontaminate(
                    ray.data.from_arrow(corpus_tbl),
                    ray.data.from_arrow(eval_tbl),
                    n=3,
                ).to_arrow_refs()
            )
            if t.num_rows
        ]
    ).sort_by("doc_id")
    rows = {
        d: (s, c)
        for d, s, c in zip(
            out["doc_id"].to_pylist(),
            out["n_shared"].to_pylist(),
            out["contaminated"].to_pylist(),
        )
    }
    assert rows[10] == (7, True)      # 9 tokens -> 7 trigrams, all shared
    assert rows[11] == (1, False)     # only 'the quick brown' -> minority
    assert rows[12] == (0, False)


def test_dup_span_stats_planted_and_vs_duckdb(ray_session, duck):
    """Planted tiny corpus with known duplicated spans, then the sf
    corpus against the same DuckDB SQL the oracle uses."""
    import ray.data

    from crawler_ai_ray.stages.dedup import dup_span_stats

    # doc 0 and 1 share the span "a b c d e f" (two 5-gram positions
    # each); doc 2 is unique; doc 3 repeats a corpus-shared 5-gram so
    # BOTH positions count (position semantics, not set semantics).
    tiny = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f x y z w",          # pos 1-2 dup (shared w/ 1)
                    "q a b c d e f r s t",          # pos 2-3 dup
                    "u v w x y z p q r s",          # all unique
                    "a b c d e a b c d e",          # "a b c d e" twice → 2 dup
                ],
                pa.string(),
            ),
        }
    )
    out = (
        dup_span_stats(ray.data.from_arrow(tiny), n=5)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_positions"] == 6
    assert out.loc[0, "n_dup_positions"] == 2
    assert out.loc[1, "n_dup_positions"] == 2
    assert out.loc[2, "n_dup_positions"] == 0
    assert out.loc[3, "n_positions"] == 6
    assert out.loc[3, "n_dup_positions"] == 2  # both positions of the repeat
    assert out.loc[0, "dup_fraction"] == pytest.approx(2 / 6)

    # sf corpus vs DuckDB (identical SQL to oracle_sql()["doc_dup_spans"])
    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = dup_span_stats(docs, n=5).to_pandas()
    want = duck.sql(
        """
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(lower(text), '\\S+') t
          FROM documents),
        ng AS (
          SELECT doc_id,
                 t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' ||
                 t[i+3] || ' ' || t[i+4] AS g
          FROM toks, unnest(generate_series(1, len(t)-4)) AS s(i)
          WHERE len(t) >= 5),
        df AS (SELECT g, count(DISTINCT doc_id) d FROM ng GROUP BY 1)
        SELECT ng.doc_id,
               count(*)::BIGINT AS n_positions,
               sum(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END)::BIGINT
                 AS n_dup_positions,
               sum(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END)::BIGINT::DOUBLE
                 / count(*) AS dup_fraction
        FROM ng JOIN df ON df.g = ng.g
        GROUP BY 1"""
    ).df()
    assert_frames_equal(got, want)


def test_dup_span_stats_partition_invariant(ray_session):
    """Bucket counts and input block counts must not change the result
    (the DF count is exact within each ngram-hash bucket by construction)."""
    import ray.data

    from crawler_ai_ray.stages.dedup import dup_span_stats

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    a = (
        dup_span_stats(docs, n=5, num_buckets=512, doc_buckets=64)
        .to_pandas()
    )
    b = (
        dup_span_stats(
            docs.repartition(7), n=5, num_buckets=32, doc_buckets=8
        ).to_pandas()
    )
    assert_frames_equal(a, b)


def test_grouped_quantiles_planted_and_vs_duckdb(ray_session, duck):
    import ray.data

    from crawler_ai_ray.stages.textstats import grouped_quantiles

    # planted: group 'a' = [10,20,30,40] → percentile_disc ranks
    tiny = pa.table(
        {
            "lang": pa.array(["a"] * 4 + ["b"], pa.string()),
            "n_chars": pa.array([40, 10, 30, 20, 7], pa.int64()),
        }
    )
    out = grouped_quantiles(
        ray.data.from_arrow(tiny), ps=(0.25, 0.5, 0.51, 0.75, 0.99)
    ).to_pandas()
    a = out[out.lang == "a"].set_index("p")["q_value"]
    assert a[0.25] == 10 and a[0.5] == 20 and a[0.51] == 30
    assert a[0.75] == 30 and a[0.99] == 40
    b = out[out.lang == "b"].set_index("p")["q_value"]
    assert (b == 7).all()  # single-element group: every quantile is it

    # sf corpus: engine vs BOTH the window-function oracle formula and
    # DuckDB's native quantile_disc (convention agreement check)
    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["lang", "n_chars"]
    )
    got = grouped_quantiles(docs).to_pandas()
    want = duck.sql(
        """
        WITH q AS (
          SELECT lang,
                 quantile_disc(n_chars, [0.25, 0.5, 0.75, 0.9, 0.99]) ql
          FROM documents GROUP BY 1)
        SELECT lang, [0.25, 0.5, 0.75, 0.9, 0.99][i] AS p,
               ql[i]::BIGINT AS q_value
        FROM q, unnest(generate_series(1, 5)) s(i)"""
    ).df()
    assert_frames_equal(got, want)


def test_grouped_quantiles_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.textstats import grouped_quantiles

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["lang", "n_chars"]
    )
    a = grouped_quantiles(docs).to_pandas()
    b = grouped_quantiles(docs.repartition(11)).to_pandas()
    assert_frames_equal(a, b)


def test_semantic_dedup_global_vs_duckdb(ray_session, duck):
    """nlist=1 (one cluster = exact global dedup) against the same
    recursive-CTE connected-components SQL the oracle uses."""
    import ray.data

    from crawler_ai_ray.stages.simsearch import semantic_dedup

    emb = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    got = semantic_dedup(emb, nlist=1, threshold=0.45).to_pandas()
    want = duck.sql(
        """
        WITH RECURSIVE pr AS (
          SELECT a.vec_id AS a, b.vec_id AS b
          FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
          WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45),
        e AS (SELECT a, b FROM pr UNION ALL SELECT b AS a, a AS b FROM pr),
        reach(v, lbl) AS (
          SELECT vec_id, vec_id FROM embeddings
          UNION
          SELECT e.a, r.lbl FROM e JOIN reach r ON e.b = r.v)
        SELECT v AS vec_id, 0::INTEGER AS cluster,
               min(lbl)::BIGINT AS canonical_id,
               (min(lbl) = v) AS is_canonical
        FROM reach GROUP BY v"""
    ).df()
    assert_frames_equal(got, want)


def test_semantic_dedup_refines_global_and_dedups_exact_copies(ray_session):
    """Clustered SemDeDup may split a global duplicate group across
    clusters (the documented approximation) but must never merge two
    globally-distinct groups; identical vectors always co-cluster and
    always dedup."""
    import ray.data

    from crawler_ai_ray.stages.simsearch import semantic_dedup

    emb = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    glob = (
        semantic_dedup(emb, nlist=1, threshold=0.45)
        .to_pandas()
        .set_index("vec_id")["canonical_id"]
    )
    clus = semantic_dedup(emb, nlist=8, threshold=0.45).to_pandas()
    assert len(clus) == len(glob)
    # refinement: everything the clustered variant groups together is
    # also together globally
    for vid, canon in zip(clus.vec_id, clus.canonical_id):
        assert glob[vid] == glob[canon]
    # at least one true merge happened at this threshold on this corpus
    assert (~clus.is_canonical).sum() > 0

    # planted exact copies land in one cluster and dedup to the min id
    base = np.random.RandomState(3).randn(4, 8)
    tiny = pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "embedding": pa.array(
                [list(base[0]), list(base[1]), list(base[2]),
                 list(base[3]), list(base[1])],  # 4 == copy of 1
                pa.list_(pa.float64()),
            ),
        }
    )
    out = (
        semantic_dedup(
            ray.data.from_arrow(tiny), nlist=2, threshold=0.999999
        )
        .to_pandas()
        .set_index("vec_id")
    )
    assert out.loc[4, "canonical_id"] == 1
    assert not out.loc[4, "is_canonical"]
    assert out.loc[[0, 1, 2, 3], "is_canonical"].all()


def test_semantic_dedup_global_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.simsearch import semantic_dedup

    emb = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    a = semantic_dedup(emb, nlist=1, threshold=0.45).to_pandas()
    b = semantic_dedup(
        emb.repartition(9), nlist=1, threshold=0.45
    ).to_pandas()
    assert_frames_equal(a, b)


def test_segment_dedup_planted_and_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.dedup import segment_dedup

    seg_a = " ".join(f"a{i}" for i in range(20))
    seg_b = " ".join(f"b{i}" for i in range(20))
    tail = "unique tail words"
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"{seg_a} {seg_b}",        # first occurrences
                    f"{seg_b} {tail}",          # seg_b dup → dropped
                    f"{seg_a} {seg_a} other tail",  # both copies dropped
                ],
                pa.string(),
            ),
        }
    )
    got = (
        segment_dedup(ray.data.from_arrow(tbl))
        .to_pandas()
        .set_index("doc_id")
    )
    assert got.loc[1, "clean_text"] == f"{seg_a} {seg_b}"
    assert got.loc[1, "n_dropped"] == 0
    # doc 2: seg_b (idx 0) dropped, partial tail segment survives
    assert got.loc[2, "clean_text"] == tail
    assert got.loc[2, "n_dropped"] == 1
    # doc 3: both seg_a copies dropped (first lives in doc 1)
    assert got.loc[3, "clean_text"] == "other tail"
    assert got.loc[3, "n_dropped"] == 2
    assert got.loc[3, "n_segments"] == 3

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    a = (
        segment_dedup(docs)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    b = (
        segment_dedup(docs.repartition(7), num_buckets=32)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert a.equals(b)


def test_search_topk_planted_and_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.search import (
        bm25_topk,
        corpus_term_stats,
        tfidf_topk,
    )

    filler = " ".join(["pad"] * 30)
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "spark spark spark " + filler,  # heavy on one term
                    "spark window " + filler,       # two distinct terms
                    filler,                          # no query terms
                    "window " + filler,
                ],
                pa.string(),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    n, df, tot = corpus_term_stats(ds, ["spark", "window"])
    assert (n, tot) == (4, 33 + 32 + 30 + 31)
    assert list(df) == [2, 2]

    got = tfidf_topk(ds, ["spark", "window"], k=3).to_pydict()
    # idf = 4*1e6 // 2 = 2e6 for both terms; scores: d1=6e6, d2=4e6, d4=2e6
    assert got["doc_id"] == [1, 2, 4]
    assert got["score"] == [6_000_000, 4_000_000, 2_000_000]

    bm = bm25_topk(ds, ["spark", "window"], k=4).to_pydict()
    assert bm["doc_id"][0] in (1, 2)  # saturated tf vs two terms
    assert 3 not in bm["doc_id"]      # zero-score doc excluded
    assert bm["rank"] == list(range(1, len(bm["doc_id"]) + 1))

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    terms = ["spark", "window", "vector", "merge"]
    a = tfidf_topk(docs, terms, k=20).to_pydict()
    b = tfidf_topk(docs.repartition(7), terms, k=20).to_pydict()
    assert a == b
    ra = bm25_topk(docs, terms, k=20).to_pydict()
    rb = bm25_topk(docs.repartition(5), terms, k=20).to_pydict()
    assert ra == rb


def test_mix_weights_hand_computed(ray_session):
    import ray.data

    from crawler_ai_ray.stages.textstats import mix_weights

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "lang": pa.array(["en", "en", "vi"], pa.string()),
            "text": pa.array(
                ["one two three", "four five six seven", "tam chin"],
                pa.string(),
            ),
        }
    )
    got = (
        mix_weights(ray.data.from_arrow(tbl))
        .to_pandas()
        .set_index("lang")
    )
    # en: 7 tokens, vi: 2 tokens, total 9; uniform target = 500000 ppm
    assert got.loc["en", "n_tokens"] == 7
    assert got.loc["vi", "n_tokens"] == 2
    assert got.loc["en", "actual_ppm"] == 7 * 1_000_000 // 9
    assert got.loc["en", "weight_micros"] == 500_000 * 9 // 7
    assert got.loc["vi", "weight_micros"] == 500_000 * 9 // 2  # upsample


def test_doc_commonness_partition_invariant_and_planted(ray_session):
    import ray.data

    from crawler_ai_ray.stages.textstats import doc_commonness

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                # doc 1 = common words only, doc 2 = half rare
                ["cat cat cat", "cat zyx"],
                pa.string(),
            ),
        }
    )
    got = (
        doc_commonness(ray.data.from_arrow(tbl))
        .to_pandas()
        .set_index("doc_id")
    )
    # counts: cat=4, zyx=1, total=5
    # doc1: s=12, n=3 -> ((12//3)*1e6)//5 = 800000
    # doc2: s=5,  n=2 -> ((5//2)*1e6)//5  = 400000
    assert got.loc[1, "commonness_ppm"] == 800_000
    assert got.loc[2, "commonness_ppm"] == 400_000

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    a = doc_commonness(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    b = doc_commonness(docs.repartition(7)).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    assert a.equals(b)


def test_bigram_fluency_planted_and_partition_invariant(ray_session):
    import ray.data

    from crawler_ai_ray.stages.textstats import bigram_fluency

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a b a b a", "a c!"], pa.string()),
        }
    )
    got = (
        bigram_fluency(ray.data.from_arrow(tbl))
        .to_pandas()
        .set_index("doc_id")
    )
    # pair counts: (a,b)=2 (b,a)=2 (a,c)=1; prefix: a·=3 b·=2
    # pmic: (a,b)=(1e6*2)//3=666666, (b,a)=1000000, (a,c)=333333
    # doc1: (666666+1000000)*2 // 4 = 833333 ; doc2: 333333 // 1
    assert got.loc[1, "n_pairs"] == 4
    assert got.loc[1, "fluency_ppm"] == 833_333
    assert got.loc[2, "fluency_ppm"] == 333_333

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    a = bigram_fluency(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    b = bigram_fluency(docs.repartition(7)).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    assert a.equals(b)


def test_video_keyframes_planted():
    import numpy as np

    from crawler_ai_ray.stages.multimodal import (
        VideoKeyframes,
        encode_y4m,
    )

    # 6 frames: constant, constant, jump, constant, jump, constant
    f = np.zeros((6, 8, 8), dtype=np.uint8)
    f[2:] = 100
    f[4:] = 200
    payload = encode_y4m(f, fps=30)
    batch = pa.table(
        {
            "media_id": pa.array([7], pa.int64()),
            "payload": pa.array([payload], pa.binary()),
            "meta": pa.array(
                [{"n_frames": 6}],
                pa.struct([("n_frames", pa.int32())]),
            ),
        }
    )
    out = VideoKeyframes(threshold_milli=8000)(batch).to_pydict()
    # keyframes: 0 (always), 2 (|100-0|=100 >= 8), 4 (|200-100|=100)
    assert out["frame_idx"] == [0, 2, 4]
    assert out["sad"] == [0, 100 * 64, 100 * 64]


def test_image_phash_neardup_planted(ray_session):
    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.dedup import hash64_neardup_pairs
    from crawler_ai_ray.stages.multimodal import (
        ImagePHash,
        synth_media_neardup_table,
    )

    tbl = synth_media_neardup_table(32)
    hashed = ray.data.from_arrow(tbl).map_batches(
        ImagePHash, batch_format="pyarrow", concurrency=(1, 2), batch_size=16
    )
    pairs = hash64_neardup_pairs(
        hashed, id_col="media_id", hash_col="phash"
    ).to_pandas()
    got = {
        (min(a, b), max(a, b))
        for a, b in zip(pairs.media_a if "media_a" in pairs else pairs.doc_a,
                        pairs.media_b if "media_b" in pairs else pairs.doc_b)
    }
    # every planted copy pairs with its original (hamming <= 3 by
    # construction at this perturbation size)
    planted = {(i, i + 100000) for i in range(0, 32, 4)}
    assert planted <= got
    # and nothing pairs across unrelated noise images
    assert all(b - a == 100000 for a, b in got)


def test_audio_fp_neardup_planted(ray_session):
    import ray.data

    from crawler_ai_ray.stages.dedup import hash64_neardup_pairs
    from crawler_ai_ray.stages.multimodal import (
        AudioFingerprint,
        synth_audio_neardup_table,
    )

    tbl = synth_audio_neardup_table(32)
    hashed = ray.data.from_arrow(tbl).map_batches(
        AudioFingerprint, batch_format="pyarrow", concurrency=(1, 2),
        batch_size=16,
    )
    pairs = hash64_neardup_pairs(
        hashed, id_col="media_id", hash_col="afp"
    ).to_pandas()
    got = {
        (min(a, b), max(a, b)) for a, b in zip(pairs.doc_a, pairs.doc_b)
    }
    planted = {(i, i + 100000) for i in range(0, 32, 4)}
    assert planted <= got
    assert all(b - a == 100000 for a, b in got)


def test_classifier_score_hand_computed():
    import pyarrow as pa

    from crawler_ai_ray.stages.textstats import classifier_batch

    def w(term):
        return (sum(term.encode()) * 2654435761 + len(term) * 97) % 2001 - 1000

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "Hello HELLO world",       # case-folds to 2x hello + world
                "a zz",
                "123 !!!",                 # no [a-z]+ tokens -> no row
            ],
        }
    )
    out = classifier_batch(t).to_pydict()
    assert out["doc_id"] == [1, 2]
    assert out["n_terms"] == [3, 2]
    assert out["clf_margin"] == [2 * w("hello") + w("world"), w("a") + w("zz")]
    assert out["clf_keep"] == [m >= 0 for m in out["clf_margin"]]

    empty = classifier_batch(t.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.names == ["doc_id", "n_terms", "clf_margin", "clf_keep"]


def test_snapshot_diff_planted(ray_session):
    import pyarrow as pa
    import ray

    from crawler_ai_ray.stages.snapshot import snapshot_diff

    a = pa.table(
        {
            "url": ["u/same", "u/changed", "u/removed"],
            "fp": ["f1", "f2", "f3"],
        }
    )
    b = pa.table(
        {
            "url": ["u/same", "u/changed", "u/added"],
            "fp": ["f1", "f2x", "f4"],
        }
    )
    out = (
        snapshot_diff(ray.data.from_arrow(a), ray.data.from_arrow(b))
        .to_pandas()
        .set_index("url")["status"]
        .to_dict()
    )
    assert out == {
        "u/changed": "changed",
        "u/removed": "removed",
        "u/added": "added",
    }

    # one-sided snapshots: everything is added / removed respectively
    empty = pa.table(
        {"url": pa.array([], pa.string()), "fp": pa.array([], pa.string())}
    )
    all_added = snapshot_diff(
        ray.data.from_arrow(empty), ray.data.from_arrow(b)
    ).to_pandas()
    assert set(all_added["status"]) == {"added"} and len(all_added) == 3


def test_snapshot_churn_combined_pass_agrees(ray_session):
    """The shared churn checkpoint (one exchange serving diff +
    recrawl + freshness) must reproduce BOTH split implementations:
    kind='d' rows ≡ snapshot_diff_tagged's delta, and the summed
    kind='h' partials ≡ an independent per-host fold."""
    import zlib
    from collections import defaultdict

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from crawler_ai_ray.stages.snapshot import (
        snapshot_churn_tagged,
        snapshot_diff_tagged,
    )

    n = 240
    urls = [f"https://h{i % 13}.test/p{i}" for i in range(n)]
    # sel: 0 removed, 1 changed, 2 same, 3 added
    sel = [i % 4 for i in range(n)]
    rows = []
    for u, s in zip(urls, sel):
        bk = zlib.crc32(u.encode()) % 8
        if s != 3:
            rows.append((bk, u, f"f{u}", True))
        if s != 0:
            rows.append((bk, u, f"f{u}x" if s == 1 else f"f{u}", False))
    tagged = pa.table(
        {
            "bucket": pa.array([r[0] for r in rows], pa.int32()),
            "key": pa.array([r[1] for r in rows], pa.string()),
            "fp": pa.array([r[2] for r in rows], pa.string()),
            "is_a": pa.array([r[3] for r in rows], pa.bool_()),
        }
    )
    both = ray.data.from_arrow(tagged)
    combined = snapshot_churn_tagged(both, num_buckets=8).materialize()

    want_delta = (
        snapshot_diff_tagged(ray.data.from_arrow(tagged), num_buckets=8)
        .to_pandas()
        .set_index("url")["status"]
        .to_dict()
    )
    got_delta = (
        combined.filter(expr="kind == 'd'")
        .select_columns(["url", "status"])
        .to_pandas()
        .set_index("url")["status"]
        .to_dict()
    )
    assert got_delta == want_delta and len(got_delta) == 3 * (n // 4)

    # independent per-host fold from first principles
    want_h = defaultdict(lambda: [0, 0, 0, 0])
    for u, s in zip(urls, sel):
        host = u.split("/")[2]
        if s != 0:
            want_h[host][0] += 1  # in B
        if s == 3:
            want_h[host][1] += 1
        if s == 0:
            want_h[host][2] += 1
        if s == 1:
            want_h[host][3] += 1
    hp = pa.concat_tables(
        [
            t.filter(pc.equal(t["kind"], "h"))
            for t in ray.get(combined.to_arrow_refs())
            if t.num_rows
        ]
    )
    agg = hp.group_by("host").aggregate(
        [
            ("n_pages_b", "sum"),
            ("n_added", "sum"),
            ("n_removed", "sum"),
            ("n_changed", "sum"),
        ]
    )
    got_h = {
        r["host"]: [
            r["n_pages_b_sum"],
            r["n_added_sum"],
            r["n_removed_sum"],
            r["n_changed_sum"],
        ]
        for r in agg.to_pylist()
    }
    assert got_h == {k: v for k, v in want_h.items()}


def test_snapshot_diff_partition_invariant(ray_session):
    import pyarrow as pa
    import ray

    from crawler_ai_ray.stages.snapshot import snapshot_diff

    n = 300
    urls = [f"https://h{i%17}.test/p{i}" for i in range(n)]
    a = pa.table({"url": urls, "fp": [f"f{i}" for i in range(n)]})
    # b: drop i%5==0 (removed), change i%5==1, add n..n+20
    keep = [i for i in range(n) if i % 5 != 0]
    b = pa.table(
        {
            "url": [urls[i] for i in keep] + [f"https://new.test/p{i}" for i in range(20)],
            "fp": [f"f{i}x" if i % 5 == 1 else f"f{i}" for i in keep]
            + [f"g{i}" for i in range(20)],
        }
    )
    expect = (
        {urls[i]: "removed" for i in range(0, n, 5)}
        | {urls[i]: "changed" for i in range(1, n, 5)}
        | {f"https://new.test/p{i}": "added" for i in range(20)}
    )
    for blocks in (1, 7):
        da = ray.data.from_arrow(
            [a.slice(i, max(1, n // blocks)) for i in range(0, n, max(1, n // blocks))]
        )
        db = ray.data.from_arrow(b)
        got = (
            snapshot_diff(da, db, num_buckets=8)
            .to_pandas()
            .set_index("url")["status"]
            .to_dict()
        )
        assert got == expect


# --- DSIR importance scores ------------------------------------------------

def _naive_dsir(rows, target_lang="en", num_feats=4096):
    """Independent dict-based reimplementation (no numpy, no Arrow):
    feature histograms over token occurrences, add-one-smoothed
    probability-difference weights, per-doc occurrence sums."""
    import hashlib
    import re

    def feats(text):
        return [
            int.from_bytes(
                hashlib.md5(t.encode()).digest()[8:], "little"
            )
            % num_feats
            for t in re.findall(r"[a-z]+", text.lower())
        ]

    raw, tgt = {}, {}
    for r in rows:
        for f in feats(r["text"]):
            raw[f] = raw.get(f, 0) + 1
            if r["lang"] == target_lang:
                tgt[f] = tgt.get(f, 0) + 1
    R, T = sum(raw.values()), sum(tgt.values())
    out = {}
    for r in rows:
        fs = feats(r["text"])
        if not fs:
            continue
        out[r["doc_id"]] = sum(
            (tgt.get(f, 0) + 1) * (R + num_feats)
            - (raw.get(f, 0) + 1) * (T + num_feats)
            for f in fs
        )
    return out


def test_dsir_feature_hash_matches_duckdb(duck):
    from crawler_ai_ray.stages.importance import md5_feature

    for tok in ["hello", "a", "zebra", "importanceresampling", "qq"]:
        got = md5_feature(tok, 4096)
        ora = duck.sql(
            f"SELECT CAST(md5_number_lower('{tok}') % 4096 AS BIGINT)"
        ).fetchone()[0]
        assert got == ora, tok


def test_dsir_scores_planted(ray_session):
    import ray.data

    from crawler_ai_ray.stages.importance import dsir_scores

    rows = [
        {"doc_id": 1, "text": "The cat sat on the mat", "lang": "en"},
        {"doc_id": 2, "text": "the cat ate the cat food", "lang": "en"},
        {"doc_id": 3, "text": "le chat et le chien", "lang": "fr"},
        {"doc_id": 4, "text": "der hund und der hund", "lang": "de"},
        {"doc_id": 5, "text": "12345 67890", "lang": "en"},  # no tokens
        {"doc_id": 6, "text": "cat chat hund", "lang": "fr"},
    ]
    expect = _naive_dsir(rows)
    assert 5 not in expect  # token-less doc excluded
    for blocks in (1, 3):
        ds = ray.data.from_items(rows).repartition(blocks)
        got = dict(
            zip(
                *(
                    dsir_scores(ds)
                    .to_pandas()
                    .sort_values("doc_id")[["doc_id", "dsir_score"]]
                    .T.values.tolist()
                )
            )
        )
        assert got == expect
    # ordering sanity: the en 'cat'-heavy doc must outscore the
    # German-only doc (absolute signs are smoothing-dominated at toy
    # corpus size — B=4096 pseudo-counts vs 25 real tokens)
    assert expect[2] > expect[4]


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_vs_duckdb_and_naive(duck):
    import hashlib

    import pandas as pd

    from crawler_ai_ray.stages.textstats import weighted_sample
    from __ray_entry__ import _table

    k = 37
    eng = (
        weighted_sample(
            _table(SF, "documents", columns=["doc_id", "n_chars"]), k=k
        )
        .to_pandas()
        .sort_values(["rank", "doc_id"], ignore_index=True)
    )
    assert len(eng) == k
    ora = duck.sql(f"""
      WITH r AS (
        SELECT doc_id, n_chars,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                 ::BIGINT // greatest(n_chars, 1) AS rank
        FROM documents)
      SELECT doc_id, n_chars, rank FROM r
      ORDER BY rank, doc_id LIMIT {k}""").df()
    assert_frames_equal(eng, ora)

    # independent naive reimplementation
    df = pd.read_parquet(
        os.path.join(SF, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    )
    df["rank"] = [
        int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
        // max(int(w), 1)
        for i, w in zip(df["doc_id"], df["n_chars"])
    ]
    naive = (
        df.sort_values(["rank", "doc_id"], ignore_index=True)
        .head(k)
        .astype({"rank": "int64"})
    )
    assert_frames_equal(eng, naive)

    # weighting sanity: the sample skews long — mean sampled length
    # exceeds the corpus mean
    assert eng["n_chars"].mean() > df["n_chars"].mean()


def test_cooccurrence_vs_brute_force_and_cap(docs_ds):
    import re

    import pandas as pd

    from crawler_ai_ray.stages.textstats import cooccurrence_topk

    for cap in (256, 5):  # 5 binds on every doc; 256 never does here
        eng = cooccurrence_topk(
            docs_ds, k=30, max_terms_per_doc=cap
        ).to_pandas()

        df = pd.read_parquet(
            os.path.join(SF, "documents.parquet"), columns=["text"]
        )
        from collections import Counter

        counts: Counter = Counter()
        for text in df["text"]:
            terms = sorted(
                {t for t in re.findall(r"[a-z]+", text.lower())}
            )[:cap]
            for i, a in enumerate(terms):
                for b in terms[i + 1:]:
                    counts[(a, b)] += 1
        naive = (
            pd.DataFrame(
                [(a, b, n) for (a, b), n in counts.items()],
                columns=["term_a", "term_b", "n_docs"],
            )
            .sort_values(
                ["n_docs", "term_a", "term_b"],
                ascending=[False, True, True],
                ignore_index=True,
            )
            .head(30)
            .astype({"n_docs": "int64"})
        )
        assert_frames_equal(eng, naive)

    # symmetry invariant: every pair is emitted once, ordered
    full = cooccurrence_topk(docs_ds, k=30).to_pandas()
    assert (full["term_a"] < full["term_b"]).all()


def test_ddsketch_error_bound_and_partition_invariance(ray_session, duck):
    """DDSketch estimates stay within the α relative-error bound of the
    EXACT percentile_disc quantiles, and the sketch is
    partition-invariant (deterministic binning + mergeable histograms
    ⇒ block layout cannot change the result)."""
    import ray.data

    from crawler_ai_ray.stages.textstats import ddsketch_quantiles

    alpha = 0.01
    base = None
    for blocks in (2, 17):
        ds = ray.data.read_parquet(
            f"{SF}/events.parquet",
            columns=["event_type", "value"],
            override_num_blocks=blocks,
        )
        out = (
            ddsketch_quantiles(ds, alpha_ppm=10_000)
            .to_pandas()
            .sort_values(["key", "p"], ignore_index=True)
        )
        if base is None:
            base = out
        else:
            assert out.equals(base)

    exact = duck.sql("""
        SELECT event_type AS key, 0.5 AS p,
               quantile_disc(value, 0.5) AS q FROM events GROUP BY 1
        UNION ALL
        SELECT event_type, 0.9, quantile_disc(value, 0.9)
        FROM events GROUP BY 1
        UNION ALL
        SELECT event_type, 0.99, quantile_disc(value, 0.99)
        FROM events GROUP BY 1
        """).df().sort_values(["key", "p"], ignore_index=True)
    m = base.merge(exact, on=["key", "p"])
    assert len(m) == len(base)
    rel = (m["q_est"] - m["q"]).abs() / m["q"]
    assert (rel <= alpha + 1e-12).all(), rel.max()


def test_pq_partition_invariant_codebooks_and_recall(ray_session):
    """PQ codebooks are BIT-identical under any block layout (integer
    micro-sum training), and the ADC+rerank pipeline recovers the exact
    brute-force top-10 set on this corpus."""
    import ray.data

    from crawler_ai_ray.stages.simsearch import (
        knn_bruteforce,
        knn_pq_rerank,
        pq_encode,
        pq_train,
    )
    import __ray_entry__ as entry

    books = None
    for blocks in (3, 11):
        ds = ray.data.read_parquet(
            f"{SF}/embeddings.parquet",
            columns=["vec_id", "embedding"],
            override_num_blocks=blocks,
        )
        b = pq_train(ds, m=32, ksub=64, iters=8)
        if books is None:
            books = b
        else:
            assert np.array_equal(books, b)

    ds = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    q, qids = entry._anchor_matrix(SF)
    bf = knn_bruteforce(ds, q, qids, k=10).to_pandas()
    res = knn_pq_rerank(
        ds, pq_encode(ds, books), books, q, qids, k=10, rerank=50
    ).to_pandas()
    for qid in qids:
        a = set(res[res.query_id == qid].vec_id)
        b = set(bf[bf.query_id == qid].vec_id)
        assert len(a & b) / len(b) >= 0.9

    # the code column really is m uint8s per vector (the 16x memory cut)
    enc = pq_encode(ds, books).take_batch(5, batch_format="pyarrow")
    assert enc["pq_code"].type.list_size == 32
    assert enc["pq_code"].type.value_type == pa.uint8()


def test_leakage_safe_split_no_cluster_straddles(ray_session):
    """Every near-dup cluster lives entirely in ONE split (the leakage
    guarantee), and all three splits are non-empty at this scale."""
    import __ray_entry__ as entry

    df = entry.queries()["doc_split_leakage_safe"](SF).to_pandas()
    assert df.groupby("canonical_id")["split"].nunique().eq(1).all()
    assert set(df["split"].unique()) == {"train", "val", "test"}
    # split is keyed on the canonical, so a doc and its canonical agree
    canon_split = df.set_index("doc_id")["split"]
    joined = df.join(
        canon_split.rename("canon_split"), on="canonical_id"
    )
    assert (joined["split"] == joined["canon_split"]).all()


def test_bpe_train_hand_case_and_corpus_compression(ray_session, docs_ds):
    """The merge loop reproduces a hand-computed BPE on a toy corpus;
    on the real corpus the trained tokenizer compresses (fewer tokens
    than characters, more than whitespace words)."""
    from crawler_ai_ray.stages.textstats import (
        bpe_apply,
        bpe_encode_word,
        bpe_merges_from_counts,
        corpus_word_counts,
    )

    # toy: 'aaab' x3, 'ab' x2 → pair counts: (a,a)=6, (a,b)=5, (b,</w>)=5
    merges = bpe_merges_from_counts({"aaab": 3, "ab": 2}, 3)
    assert merges[0] == ("a", "a")
    # after merging aa: aaab -> [aa,a,b,</w>]; pairs: (aa,a)=3,(a,b)=5,(b,</w>)=5
    # tie (a,b) vs (b,</w>) at 5 → lexicographic: ('a','b') wins
    assert merges[1] == ("a", "b")
    assert merges[2] == ("ab", "</w>")
    rank = {p: i for i, p in enumerate(merges)}
    assert bpe_encode_word("ab", rank) == 1  # [ab</w>] after all 3
    assert bpe_encode_word("ab", {("a", "b"): 0}) == 2  # [ab, </w>]

    counts = corpus_word_counts(docs_ds)
    trained = bpe_merges_from_counts(counts, 50)
    assert len(trained) == 50
    out = bpe_apply(docs_ds, trained).to_pandas()
    import pandas as pd

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    m = out.merge(docs, on="doc_id")
    n_words = m["text"].str.findall(r"[a-z]+").str.len()
    n_chars = m["text"].str.replace(r"[^a-z]", "", regex=True).str.len()
    # tokens ≥ words (a word is ≥1 token), and the 50 merges compress
    # well below the character count
    assert (m["n_tokens_bpe_trained"] >= n_words).all()
    assert m["n_tokens_bpe_trained"].sum() < n_chars.sum()


def test_nb_train_classify_hand_case(ray_session):
    """Toy corpus with disjoint vocabularies: NB must classify each
    doc by its own language's terms; a mixed doc goes to the lang
    with more matching evidence."""
    import ray.data

    from crawler_ai_ray.stages.textstats import nb_classify, nb_train

    t = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": [
                "alpha alpha beta",
                "alpha beta beta",
                "gamma delta gamma",
                "delta delta gamma",
                "alpha gamma gamma",  # mixed: 2 gr-terms vs 1 en-term
            ],
            "lang": ["en", "en", "gr", "gr", "gr"],
        }
    )
    ds = ray.data.from_arrow(t)
    model_tbl, state = nb_train(ds)
    langs, vocab, W, priors = state
    assert langs == ["en", "gr"]
    assert vocab == ["alpha", "beta", "delta", "gamma"]
    # en never saw 'gamma': its weight is the smoothed floor
    en, gr = 0, 1
    g_i = vocab.index("gamma")
    a_i = vocab.index("alpha")
    assert W[en, g_i] < W[gr, g_i]
    assert W[en, a_i] > W[gr, a_i]
    out = (
        nb_classify(ds, state)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert list(out["pred_nb"]) == ["en", "en", "gr", "gr", "gr"]


@pytest.mark.usefixtures("ray_session")
def test_hash64_local_path_agreement(docs_ds):
    """Driver-local banded-Hamming sweep must match the distributed
    pipeline exactly (same 4x16 bands, same verify)."""
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.dedup import (
        simhash_batch,
        simhash_neardup_pairs,
        simhash_neardup_pairs_local,
    )

    tab = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    key = ["doc_a", "doc_b"]
    dist = (
        simhash_neardup_pairs(docs_ds, max_hamming=3)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    loc = (
        simhash_neardup_pairs_local(tab, max_hamming=3)
        .to_pandas()
        .sort_values(key, ignore_index=True)
    )
    assert len(loc) > 0  # planted near-dups exist at this SF
    assert list(dist.columns) == list(loc.columns)
    assert (
        dist.astype({"hamming": "int64"})
        .equals(loc.astype({"hamming": "int64"}))
    )


def test_knn_graph_exact_tiers_and_naive(ray_session):
    """kNN graph: both tiers bit-identical across partitionings, and
    exactly the naive integer-micros all-pairs result."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.simsearch import knn_graph, knn_graph_ivf

    rng = np.random.default_rng(7)
    n, d = 60, 8
    mat = rng.normal(size=(n, d)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel()), d
            ),
        }
    )
    a = (
        knn_graph(ray.data.from_arrow(tbl).repartition(4), k=3)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    # distributed block-nested-loop tier, different partitioning
    b = (
        knn_graph(
            ray.data.from_arrow(tbl).repartition(7), k=3, driver_max_vecs=0
        )
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    assert a.equals(b)
    assert len(a) == n * 3

    from crawler_ai_ray.stages.simsearch import _half_away_micros

    m = mat.astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = _half_away_micros((m @ m.T) * 1e6)
    for q in range(n):
        s = sims[q].copy()
        s[q] = -(2**62)
        want = np.lexsort((np.arange(n), -s))[:3]
        got = a[a.query_id == q]
        assert (got.vec_id.to_numpy() == want).all()
        assert (got.sim_micros.to_numpy() == s[want]).all()

    # nlist=1 IVF cell = whole corpus ⇒ must reproduce the exact graph
    c = (
        knn_graph_ivf(ray.data.from_arrow(tbl).repartition(4), k=3, nlist=1)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    assert c.equals(a)


def test_knn_graph_ivf_cell_restricted(ray_session):
    """nlist>1: every edge stays within one k-means cell and per-cell
    results equal the exact graph run on that cell alone."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.simsearch import (
        ivf_assign,
        kmeans_train,
        knn_graph,
        knn_graph_ivf,
    )

    rng = np.random.default_rng(11)
    # two well-separated blobs so cells are stable
    blob = lambda c, n: rng.normal(size=(n, 6)) * 0.05 + c  # noqa: E731
    mat = np.concatenate(
        [blob(np.ones(6), 40), blob(-np.ones(6), 40)]
    ).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(80), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel()), 6
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = knn_graph_ivf(ds, k=4, nlist=2).to_pandas()

    cells = dict(
        zip(
            *[
                ivf_assign(ds, kmeans_train(ds, nlist=2, iters=5))
                .to_pandas()[c]
                .to_numpy()
                for c in ("vec_id", "cluster")
            ]
        )
    )
    assert len(set(cells.values())) == 2
    # every edge endpoint pair shares a cell
    assert all(
        cells[r.query_id] == cells[r.vec_id] for r in got.itertuples()
    )
    # per-cell: equals the exact graph over just that cell's rows
    for cell in set(cells.values()):
        members = sorted(v for v, c in cells.items() if c == cell)
        sub = tbl.filter(
            pa.compute.is_in(tbl["vec_id"], value_set=pa.array(members))
        )
        want = (
            knn_graph(ray.data.from_arrow(sub), k=4)
            .to_pandas()
            .sort_values(["query_id", "rank"], ignore_index=True)
        )
        have = (
            got[got.query_id.isin(members)]
            .sort_values(["query_id", "rank"], ignore_index=True)
            .reset_index(drop=True)
        )
        assert have.equals(want)


def test_dup_span_removal_planted_and_partition_invariant(ray_session):
    """Planted shared 6-token run across two docs: exactly the two
    5-gram windows' union is removed from each, original case kept;
    a unique doc is untouched; repartition changes nothing."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import dup_span_removal

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "The QUICK brown fox jumps over the lazy dog today",
                    "a different opening but the quick brown fox JUMPS"
                    " over something else",
                    "totally unique words here nothing shared with"
                    " others at all",
                ]
            ),
        }
    )
    got = (
        dup_span_removal(ray.data.from_arrow(docs).repartition(2), n=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    # "the quick brown fox jumps over" (case-folded) is shared: windows
    # at p=0,1 cover tokens 0-5 in doc 1 / tokens 4-9 in doc 2
    assert got.clean_text.tolist() == [
        "the lazy dog today",
        "a different opening but something else",
        "totally unique words here nothing shared with others at all",
    ]
    assert got.n_tokens.tolist() == [10, 12, 10]
    assert got.n_removed.tolist() == [6, 6, 0]

    other = (
        dup_span_removal(ray.data.from_arrow(docs).repartition(3), n=5,
                         num_buckets=7)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert other.equals(got)


def test_hash_embed_matches_duckdb_and_partition_invariant(
    ray_session, duck
):
    """Signed hashed projection: exact SQL parity per component, bit
    equality across partitionings, zero-token docs excluded."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import hash_embed

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "Hello world hello",
                    "a b. c,d",
                    "  \t ",  # no [a-z]+ tokens → outside output domain
                    "zebra zebra zebra",
                ]
            ),
        }
    )
    got = (
        hash_embed(ray.data.from_arrow(docs).repartition(3), dim=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    duck.register("hash_embed_docs", docs)
    want = duck.sql(
        """
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '[a-z]+')) tok
          FROM hash_embed_docs),
        comp AS (
          SELECT doc_id, j,
                 sum(CASE WHEN (md5_number_lower(tok) >> j) & 1 = 1
                          THEN 1 ELSE -1 END)::BIGINT AS v
          FROM toks CROSS JOIN
               (SELECT unnest(generate_series(0, 7)) AS j)
          GROUP BY 1, 2)
        SELECT doc_id, list(v ORDER BY j) AS embedding
        FROM comp GROUP BY 1 ORDER BY doc_id
        """
    ).df()
    assert got.doc_id.tolist() == want.doc_id.tolist() == [1, 2, 4]
    assert [list(e) for e in got.embedding] == [
        list(e) for e in want.embedding
    ]
    again = (
        hash_embed(ray.data.from_arrow(docs).repartition(1), dim=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert again.equals(got)


def test_text_knn_graph_chain_planted(ray_session):
    """text → hash_embed → knn_graph: two near-identical docs must be
    each other's rank-1 neighbor with sim ≈ 1."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import hash_embed
    from crawler_ai_ray.stages.simsearch import knn_graph

    base = "the quick brown fox jumps over the lazy dog " * 5
    docs = pa.table(
        {
            "doc_id": pa.array([10, 20, 30], pa.int64()),
            "text": pa.array(
                [
                    base,
                    base + "extra token",
                    "completely different vocabulary about databases and"
                    " shuffles and parquet row groups",
                ]
            ),
        }
    )
    emb = hash_embed(ray.data.from_arrow(docs).repartition(2), dim=32)
    got = (
        knn_graph(emb, k=1, id_col="doc_id")
        .to_pandas()
        .set_index("query_id")
    )
    assert got.loc[10, "vec_id"] == 20
    assert got.loc[20, "vec_id"] == 10
    assert got.loc[10, "sim_micros"] > 990_000


def test_text_semantic_dedup_chain_planted(ray_session):
    """text → hash_embed → SemDeDup: two near-identical docs merge
    under the min-id canonical; the distinct doc stays canonical."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import hash_embed
    from crawler_ai_ray.stages.simsearch import semantic_dedup

    base = "the quick brown fox jumps over the lazy dog " * 5
    docs = pa.table(
        {
            "doc_id": pa.array([10, 20, 30], pa.int64()),
            "text": pa.array(
                [
                    base,
                    base + "tiny difference",
                    "completely different vocabulary about parquet row"
                    " groups and shuffles and object stores",
                ]
            ),
        }
    )
    emb = hash_embed(ray.data.from_arrow(docs).repartition(2), dim=32)
    got = (
        semantic_dedup(emb, nlist=1, threshold=0.95, id_col="doc_id")
        .to_pandas()
        .set_index("doc_id")
    )
    assert got.loc[10, "canonical_id"] == 10 and bool(
        got.loc[10, "is_canonical"]
    )
    assert got.loc[20, "canonical_id"] == 10 and not bool(
        got.loc[20, "is_canonical"]
    )
    assert got.loc[30, "canonical_id"] == 30 and bool(
        got.loc[30, "is_canonical"]
    )


def test_logreg_train_planted_separable(ray_session):
    """On a separable planted corpus (class vocabularies disjoint) the
    trainer must reach 100% train accuracy, and the forced-distributed
    epoch fan-out must be bit-identical to the sequential run."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import (
        logreg_margins,
        logreg_train,
        logreg_train_tables,
    )

    rng = np.random.default_rng(3)
    pos_vocab = ["apple", "pear", "plum", "grape"]
    neg_vocab = ["stone", "iron", "slate", "gravel"]
    texts, labels = [], []
    for i in range(60):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        texts.append(" ".join(rng.choice(vocab, size=8)))
        labels.append(i % 2 == 0)
    docs = pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pa.array(texts),
            "y": pa.array(labels, pa.bool_()),
        }
    )
    seq = logreg_train_tables([docs], target=True, label_col="y")
    dist = (
        logreg_train(
            ray.data.from_arrow(docs).repartition(4),
            target=True,
            label_col="y",
            driver_max_docs=0,  # force the epoch fan-out tier
        )
        .to_pandas()
        .sort_values("feat", ignore_index=True)
    )
    assert dist.equals(seq.to_pandas())
    local = (
        logreg_train(
            ray.data.from_arrow(docs).repartition(7),
            target=True,
            label_col="y",
        )
        .to_pandas()
        .sort_values("feat", ignore_index=True)
    )
    assert local.equals(dist)

    scored = (
        logreg_margins(ray.data.from_arrow(docs), seq)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert (scored.pred.to_numpy() == np.array(labels)).all()


def test_winnow_fingerprints_guarantee_and_parity(ray_session, duck):
    """Winnowing: exact DuckDB parity (hashes, window argmin with the
    rightmost-tie rule, dedup) and the MOSS guarantee — two docs
    sharing a ≥ w+k-1 token run share at least one fingerprint."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import winnow_fingerprints

    shared = "one two three four five six seven eight nine ten"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "prefix words here " + shared + " tail alpha",
                    "other opening " + shared + " different ending",
                    "nothing in common with the rest at all whatsoever",
                ]
            ),
        }
    )
    got = (
        winnow_fingerprints(
            ray.data.from_arrow(docs).repartition(2), k=3, w=4
        )
        .to_pandas()
        .sort_values(["doc_id", "pos"], ignore_index=True)
    )
    duck.register("winnow_docs", docs)
    want = duck.sql(
        """
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') t
          FROM winnow_docs),
        ng AS (
          SELECT doc_id, i, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
          FROM toks, unnest(generate_series(1, len(t)-2)) s(i)
          WHERE len(t) >= 3),
        h AS (SELECT doc_id, i, md5_number_lower(g) hv, md5(g) fp FROM ng),
        pcount AS (SELECT doc_id, max(i) p FROM h GROUP BY 1),
        wins AS (SELECT doc_id,
                        unnest(generate_series(1, greatest(p - 3, 1))) j
                 FROM pcount),
        cand AS (
          SELECT w.doc_id, w.j, h.i, h.fp,
                 row_number() OVER (PARTITION BY w.doc_id, w.j
                                    ORDER BY h.hv ASC, h.i DESC) rn
          FROM wins w JOIN h ON h.doc_id = w.doc_id
                             AND h.i BETWEEN w.j AND w.j + 3)
        SELECT DISTINCT doc_id, i AS pos, fp AS fp_md5
        FROM cand WHERE rn = 1 ORDER BY doc_id, pos
        """
    ).df()
    assert got.equals(want)
    f1 = set(got[got.doc_id == 1].fp_md5)
    f2 = set(got[got.doc_id == 2].fp_md5)
    f3 = set(got[got.doc_id == 3].fp_md5)
    assert f1 & f2  # the shared run must yield a shared fingerprint
    assert not (f1 & f3) and not (f2 & f3)


def test_winnow_neardup_pairs_planted(ray_session):
    """MOSS match step: docs sharing a long run pair up (with the
    shared-fingerprint count), unrelated docs don't, and partitioning
    doesn't change the result."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import winnow_neardup_pairs

    shared = "one two three four five six seven eight nine ten"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "prefix words here " + shared + " tail alpha",
                    "other opening " + shared + " different ending",
                    "nothing in common with the rest at all whatsoever",
                ]
            ),
        }
    )
    got = (
        winnow_neardup_pairs(
            ray.data.from_arrow(docs).repartition(2), k=3, w=4, min_shared=1
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
    assert got.doc_a.tolist() == [1] and got.doc_b.tolist() == [2]
    assert got.shared.tolist() == [3]
    other = (
        winnow_neardup_pairs(
            ray.data.from_arrow(docs).repartition(3),
            k=3,
            w=4,
            min_shared=1,
            num_buckets=7,
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
    assert other.equals(got)


def test_pmi_topk_hand_computed(ray_session):
    """PMI lift on a tiny corpus: lift_ppm = n_docs·N·1e6 // (df_a·df_b)
    with df over the same capped distinct-term set."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import pmi_topk

    docs = pa.table(
        {
            "text": pa.array(
                [
                    "apple banana",       # {apple, banana}
                    "apple banana carrot",
                    "apple carrot",
                    "date",               # lone term, no pairs
                ]
            )
        }
    )
    got = (
        pmi_topk(ray.data.from_arrow(docs).repartition(2), k=10)
        .to_pandas()
        .set_index(["term_a", "term_b"])
    )
    # df: apple 3, banana 2, carrot 2; N = 4
    # (apple,banana): n=2 → 2·4·1e6 // (3·2) = 1_333_333
    # (apple,carrot): n=2 → 2·4·1e6 // (3·2) = 1_333_333
    # (banana,carrot): n=1 → 1·4·1e6 // (2·2) = 1_000_000
    assert got.loc[("apple", "banana"), "lift_ppm"] == 1_333_333
    assert got.loc[("apple", "carrot"), "lift_ppm"] == 1_333_333
    assert got.loc[("banana", "carrot"), "lift_ppm"] == 1_000_000
    assert got.loc[("apple", "banana"), "n_docs"] == 2
    assert len(got) == 3


def test_pmi_partition_invariant_sf(ray_session):
    """Integer PMI on the sf0.001 corpus: exact equality across
    partitionings (all arithmetic integer)."""
    import ray.data
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.textstats import pmi_topk

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["text"]
    )
    a = pmi_topk(ray.data.from_arrow(t).repartition(3), k=20).to_pandas()
    b = pmi_topk(ray.data.from_arrow(t).repartition(9), k=20).to_pandas()
    assert a.equals(b)
    assert len(a) == 20
    assert (a.lift_ppm > 0).all()


def test_knn_bruteforce_tie_breaks_by_vec_id(ray_session):
    """All-identical vectors: the top-k must be the k LOWEST vec_ids
    (the (−sim, vec_id) rule) — a pre-argpartition cut used to drop
    arbitrary tied candidates (the knn_graph fuzz lesson, same class)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.simsearch import knn_bruteforce

    mat = np.full((100, 4), 1.0, dtype=np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel()), 4
            ),
        }
    )
    out = (
        knn_bruteforce(
            ray.data.from_arrow(tbl).repartition(4),
            mat[:1].astype(np.float64),
            np.array([0]),
            k=10,
        )
        .to_pandas()
        .sort_values("rank", ignore_index=True)
    )
    assert out.vec_id.tolist() == list(range(10))


def test_percentile_rank_hand_and_partition_invariant(ray_session):
    """rank()-tie semantics: ties share the min rank; single-row group
    → 0; exact integer ppm; partition-invariant."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import percentile_rank_by

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "lang": pa.array(["en", "en", "en", "en", "de", "fr"]),
            "n_chars": pa.array([10, 20, 20, 40, 7, 9], pa.int64()),
        }
    )
    got = (
        percentile_rank_by(ray.data.from_arrow(docs).repartition(3))
        .to_pandas()
        .set_index("doc_id")
        .pct_rank_ppm
    )
    # en ranks: 10→1, 20→2 (tie), 20→2, 40→4 of n=4 → ppm over (n-1)=3
    assert got[1] == 0
    assert got[2] == got[3] == (1 * 1_000_000) // 3
    assert got[4] == 1_000_000
    assert got[5] == 0 and got[6] == 0  # single-row groups
    again = (
        percentile_rank_by(ray.data.from_arrow(docs).repartition(6))
        .to_pandas()
        .set_index("doc_id")
        .pct_rank_ppm
    )
    assert again.sort_index().equals(got.sort_index())


# --- round-4 ADVICE fixes -------------------------------------------------

def test_half_away_micros_matches_duckdb_round(duck):
    """The knn-graph quantizer must share DuckDB round()'s
    half-AWAY-from-zero tie convention (np.rint is half-to-even)."""
    import numpy as np

    from crawler_ai_ray.stages.simsearch import _half_away_micros

    vals = np.array(
        [2.5, -2.5, 0.5, -0.5, 3.5, -3.5, 2.4999999, -2.4999999, 0.0, 7.0]
    )
    got = _half_away_micros(vals.copy())
    want = [
        duck.sql(f"SELECT CAST(round({v!r}) AS BIGINT)").fetchone()[0]
        for v in vals
    ]
    assert got.tolist() == want
    # and the odd-side .5 boundaries are exactly where np.rint disagrees
    # (±3.5 round to the even 4, which IS away from zero)
    assert (np.rint(vals).astype(np.int64) != got).sum() == 4
    # micro-magnitude boundaries (the range kmeans/PQ/MMR micros live in:
    # |component|·1e6 ≤ 1e6) — every representable x.5 must round away
    micro_vals = np.array(
        [123456.5, -123456.5, 999999.5, -999999.5, 0.5, -0.5, 2.5, -2.5]
    )
    got2 = _half_away_micros(micro_vals.copy())
    want2 = [
        duck.sql(f"SELECT CAST(round({v!r}) AS BIGINT)").fetchone()[0]
        for v in micro_vals
    ]
    assert got2.tolist() == want2


def test_kmeans_pq_mmr_micros_share_half_away_kernel():
    """Round-4 verdict nit #1: the PQ/k-means partials and the MMR
    corpus-mean must quantize through the SAME half-away kernel as the
    knn-graph rank cut (np.rint half-to-even would diverge from every
    DuckDB round() oracle at an exact x.5 micro).  Exact .5 boundaries
    are measure-zero through the _normalize path, so this is pinned
    structurally: no np.rint-based micro quantization may remain in
    simsearch.py or the sequential goldens."""
    import inspect

    from crawler_ai_ray.oracle import goldens
    from crawler_ai_ray.stages import simsearch

    for mod in (simsearch, goldens):
        src = inspect.getsource(mod)
        assert "np.rint(" not in src, f"np.rint call left in {mod.__name__}"


def test_knn_graph_skips_empty_blocks(ray_session):
    """Typed zero-row blocks (and schema-less empties at sf0.1+) must
    not poison the normalized-block schema with a dim-1 placeholder —
    both tiers must match the no-empty-blocks result."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.simsearch import knn_graph

    rng = np.random.default_rng(3)
    n, d = 12, 4
    mat = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float64()), d
            ),
        }
    )
    empty = tbl.slice(0, 0)
    want = (
        knn_graph(ray.data.from_arrow(tbl), k=2)
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    for dmax in (20_000, 0):  # driver-local tier, then distributed tier
        got = (
            knn_graph(
                ray.data.from_arrow([empty, tbl, empty]),
                k=2,
                driver_max_vecs=dmax,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"], ignore_index=True)
        )
        assert got.equals(want)


def test_winnow_bucket_pairs_dedups_cross_block_duplicates():
    """distinct_rows dedups (doc_id, fp_h) only per batch; the bucket
    sweep must re-dedup globally or duplicated rows inflate `shared`
    and emit self-pairs."""
    import numpy as np
    import pyarrow as pa

    from crawler_ai_ray.stages.dedup import _winnow_bucket_pairs

    group = pa.table(
        {
            "doc_id": pa.array([1, 1, 2, 2, 2, 3], pa.int64()),
            "fp_h": pa.array(
                np.array([7, 7, 7, 7, 8, 8], np.uint64), pa.uint64()
            ),
        }
    )
    pairs = _winnow_bucket_pairs(group, max_df=50)
    got = sorted(
        zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist())
    )
    # fp 7 → docs {1,2} → (1,2) once; fp 8 → docs {2,3} → (2,3) once
    assert got == [(1, 2), (2, 3)]


def test_hash_embed_empty_batch_schema_unifies():
    """The empty branch must emit the same fixed_size_list[dim] schema
    as the non-empty branch (typed-empty-block rule)."""
    import pyarrow as pa

    from crawler_ai_ray.stages.importance import hash_embed_batch

    tbl = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["hello world"], pa.string()),
        }
    )
    full = hash_embed_batch(tbl, dim=8)
    empty = hash_embed_batch(tbl.slice(0, 0), dim=8)
    assert empty.schema == full.schema
    assert pa.concat_tables([full, empty]).num_rows == 1


def test_percentile_rank_null_group_rows_excluded(ray_session):
    """Null group values are outside the output domain (they crashed
    the driver histogram before) and must not perturb real groups."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import percentile_rank_by

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "lang": pa.array(["en", "en", None, "en"], pa.string()),
            "n_chars": pa.array([10, 20, 30, 40], pa.int64()),
        }
    )
    out = (
        percentile_rank_by(ray.data.from_arrow(docs).repartition(2))
        .to_pandas()
        .set_index("doc_id")
        .pct_rank_ppm
    )
    assert sorted(out.index) == [1, 2, 4]
    assert out[1] == 0
    assert out[2] == 500_000
    assert out[4] == 1_000_000


def test_lsh_degenerate_bucket_collapse_minhash(ray_session):
    """10k identical docs (one boilerplate class): both minhash tiers
    must finish in O(k) star edges — not a k² clique sweep — with the
    pair CLOSURE (clusters) unchanged."""
    import time

    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _MAX_CLIQUE_RUN,
        minhash_lsh_pairs,
        minhash_lsh_pairs_local,
        pair_labels,
    )

    n = 10_000
    boiler = "the same boilerplate footer text on every page of the site"
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(
                [boiler] * (n - 2)
                + ["a completely different document body entirely here",
                   "another unrelated singleton document text goes here"],
                pa.string(),
            ),
        }
    )
    assert n - 2 > _MAX_CLIQUE_RUN  # the degenerate path must engage
    t0 = time.time()
    local = minhash_lsh_pairs_local(tbl)
    local_wall = time.time() - t0
    # star: one (0, other) edge per duplicate after cross-band dedup
    assert local.num_rows == n - 3
    a = np.asarray(local["doc_a"].to_pylist())
    b = np.asarray(local["doc_b"].to_pylist())
    assert (a == 0).all() and sorted(b.tolist()) == list(range(1, n - 2))
    assert (np.asarray(local["est_jaccard"].to_pylist()) == 1.0).all()
    # O(k): the k² sweep would do ~8e8 128-wide row compares; the
    # collapsed path is a sort + (n-1) edges — generous wall bound
    assert local_wall < 30

    # distributed path agrees (forced past the whole-query local tier)
    dist = minhash_lsh_pairs(
        ray.data.from_arrow(tbl).repartition(8)
    ).to_pandas()
    lk, lv = pair_labels(
        minhash_lsh_pairs(ray.data.from_arrow(tbl).repartition(8))
    )
    assert len(dist) == n - 3
    assert set(dist.doc_a) == {0}
    # closure: every duplicate labels to canonical 0; singletons absent
    lab = dict(zip(lk.tolist(), lv.tolist()))
    assert all(lab[i] == 0 for i in range(n - 2))
    assert (n - 2) not in lab and (n - 1) not in lab


def test_hamming_degenerate_bucket_collapse(ray_session):
    """Identical 64-bit hashes collapse to distance-0 stars above the
    run cap; near (but distinct) hashes still pair via the reps."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _MAX_CLIQUE_RUN,
        hash64_neardup_pairs,
    )

    n = 2_000
    assert n > _MAX_CLIQUE_RUN
    base = np.uint64(0x0123456789ABCDEF)
    hashes = [int(base)] * n + [int(base ^ np.uint64(1))]  # one at d=1
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n + 1), pa.int64()),
            "simhash": pa.array(
                [np.uint64(h).astype(np.int64).item() for h in hashes],
                pa.int64(),
            ),
        }
    )
    got = (
        hash64_neardup_pairs(ray.data.from_arrow(tbl).repartition(4))
        .to_pandas()
        .sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
    # star: (0, 1..n-1) at d=0; rep pair (0, n) at d=1
    assert len(got) == n
    assert (got.doc_a == 0).all()
    star = got[got.doc_b < n]
    assert (star.hamming == 0).all() and len(star) == n - 1
    assert got[got.doc_b == n].hamming.iloc[0] == 1


def _lm_run(fn, ds):
    """``fn(ds)`` as a DataFrame sorted by doc_id, with its typed
    columns even when empty (Ray's ``to_pandas`` drops them then)."""
    out = fn(ds).materialize()
    df = out.to_pandas()
    if not len(df):
        df = out.schema().base_schema.empty_table().to_pandas()
    return df.sort_values("doc_id", ignore_index=True)


def _lm_paths_agree(fn, ds, force_bucketed, force_shuffle):
    """``fn(ds)`` on the default gates equals it with every count join
    forced bucketed, every finish forced through the shuffle, and
    both; returns the default result."""
    import contextlib

    a = _lm_run(fn, ds)
    for forced in (
        [force_bucketed], [force_shuffle], [force_bucketed, force_shuffle]
    ):
        with contextlib.ExitStack() as stack:
            for f in forced:
                stack.enter_context(f())
            assert _lm_run(fn, ds).equals(a)
    return a


def _lm_edge_paths_agree(fn, tbl, monkeypatch):
    """The same four settings on a degenerate input.  An empty count
    table never takes a bucketed join and an empty finish never
    shuffles, so the thresholds are set directly, without the
    fixtures' check that the forced branch ran."""
    import ray.data

    from crawler_ai_ray.stages import exchange

    ds = ray.data.from_arrow(tbl)
    a = _lm_run(fn, ds)
    for shuffle, bucketed in ((True, False), (False, True), (True, True)):
        with monkeypatch.context() as m:
            if shuffle:
                m.setattr(exchange, "DRIVER_FINISH_MAX", 0)
            if bucketed:
                m.setattr(exchange, "BROADCAST_MAX", 0)
            assert _lm_run(fn, ds).equals(a)
    return a


def _lm_docs(texts, ids=None) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(
                np.arange(len(texts)) if ids is None else ids, pa.int64()
            ),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_commonness_bucketed_tier_agreement(
    ray_session, force_bucketed, force_shuffle, monkeypatch
):
    """The count join forced bucketed and the count merge and per-doc
    finish forced through the shuffle are bit-equal to the default
    gates, on a random corpus, an empty one and one-token or null
    docs."""
    import ray.data

    from crawler_ai_ray.stages.textstats import doc_commonness

    rng = np.random.default_rng(11)
    vocab = np.array(
        [f"tok{i}" for i in range(40)] + ["common", "words", "here"]
    )
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 40)))
        for _ in range(250)
    ]
    ds = ray.data.from_arrow(_lm_docs(texts)).repartition(5)
    a = _lm_paths_agree(doc_commonness, ds, force_bucketed, force_shuffle)
    assert len(a) == 250

    empty = _lm_edge_paths_agree(doc_commonness, _lm_docs([]), monkeypatch)
    assert len(empty) == 0
    assert list(empty.columns) == ["doc_id", "n_tokens", "commonness_ppm"]

    # counts cat=2, dog=1 of 3 tokens; docs without a token emit no row
    one = _lm_edge_paths_agree(
        doc_commonness, _lm_docs(["cat", "dog", "cat", "!!", "", None]),
        monkeypatch,
    ).set_index("doc_id")
    assert one["n_tokens"].to_dict() == {0: 1, 1: 1, 2: 1}
    assert one["commonness_ppm"].to_dict() == {
        0: 666_666, 1: 333_333, 2: 666_666,
    }


def test_doc_commonness_reads_text_col(ray_session):
    """``text_col`` names the text column: a renamed column scores the
    same as the default ``text``."""
    import ray.data

    from crawler_ai_ray.stages.textstats import doc_commonness

    docs = _lm_docs(["the cat sat", "the dog", "a cat and the dog"])
    a = _lm_run(doc_commonness, ray.data.from_arrow(docs))
    body = ray.data.from_arrow(docs.rename_columns(["doc_id", "body"]))
    b = _lm_run(lambda ds: doc_commonness(ds, text_col="body"), body)
    assert len(a) == 3
    assert a.equals(b)


def test_bigram_fluency_bucketed_tier_agreement(
    ray_session, force_bucketed, force_shuffle, monkeypatch
):
    """Both count joins (pair counts, prefix counts) forced bucketed and
    the count merge and per-doc finish forced through the shuffle are
    bit-equal to the default gates, on a random corpus, an empty one
    and one-token or null docs (no pairs at all)."""
    import ray.data

    from crawler_ai_ray.stages.textstats import bigram_fluency

    rng = np.random.default_rng(13)
    vocab = np.array(
        ["alpha", "beta", "gamma", "delta", "common", "words",
         "page", "site", "text", "body"]
    )
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 30)))
        for _ in range(300)
    ]
    ds = ray.data.from_arrow(_lm_docs(texts)).repartition(6)
    a = _lm_paths_agree(bigram_fluency, ds, force_bucketed, force_shuffle)
    # docs with ≥1 [a-z]+ bigram are the domain; ≥ most of the corpus
    assert len(a) > 250

    for tbl in (_lm_docs([]), _lm_docs(["cat", "dog!", "cat", "", None])):
        got = _lm_edge_paths_agree(bigram_fluency, tbl, monkeypatch)
        assert len(got) == 0
        assert list(got.columns) == ["doc_id", "n_pairs", "fluency_ppm"]


def test_dup_span_stats_hot_key_path_agreement(ray_session):
    """Planted skew: one 5-gram in 50% of docs.  The probe must find
    it, and the hot path (map-side attach, no bucket shuffle for the
    hot posting list) must match the pure-bucketed path exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _probe_hot_u64,
        dup_ngram_rows_batch,
        dup_span_stats,
    )

    planted = "zz aa bb cc dd"
    texts = []
    for i in range(400):
        filler = " ".join(f"u{i}x{j}" for j in range(5))
        texts.append(
            f"{planted} {filler}" if i % 2 == 0 else
            f"v{i}a v{i}b v{i}c v{i}d v{i}e {filler}"
        )
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(400), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(4)
    rows = ds.map_batches(
        lambda b: dup_ngram_rows_batch(b, n=5), batch_format="pyarrow"
    )
    assert len(_probe_hot_u64(rows, "ngram_h")) == 1  # the planted key

    hot_path = (
        dup_span_stats(ds)  # default hot_frac=0.02 → planted is hot
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    cold_path = (
        dup_span_stats(ds, hot_frac=2.0)  # hot path disabled
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert hot_path.equals(cold_path)
    # each doc has 6 positions; planted docs have exactly 1 duplicated
    planted_rows = hot_path[hot_path.doc_id % 2 == 0]
    assert (planted_rows.n_positions == 6).all()
    assert (planted_rows.n_dup_positions == 1).all()
    assert (hot_path[hot_path.doc_id % 2 == 1].n_dup_positions == 0).all()


def test_segment_dedup_hot_key_path_agreement(ray_session):
    """Planted skew: one 20-word segment opens 50% of docs.  The hot
    path (per-batch partial mins + map-side drops) must match the
    bucket-shuffle path exactly, keeping only the first occurrence."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import segment_dedup

    seg_a = " ".join(f"p{j}" for j in range(20))
    texts = []
    for i in range(400):
        tail = " ".join(f"u{i}w{j}" for j in range(20))
        head = seg_a if i % 2 == 0 else " ".join(
            f"q{i}w{j}" for j in range(20)
        )
        texts.append(f"{head} {tail}")
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(400), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(4)
    hot_path = (
        segment_dedup(ds)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    cold_path = (
        segment_dedup(ds, hot_frac=2.0)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert hot_path.equals(cold_path)
    planted = hot_path[hot_path.doc_id % 2 == 0]
    # doc 0 keeps the shared segment; every other planted doc drops it
    assert planted[planted.doc_id == 0].n_dropped.iloc[0] == 0
    assert (planted[planted.doc_id > 0].n_dropped == 1).all()
    assert (hot_path[hot_path.doc_id % 2 == 1].n_dropped == 0).all()
    assert (hot_path.n_segments == 2).all()


def test_cluster_profile_and_outliers_partition_invariant(ray_session):
    """The IVF diagnostics are integer-exact: identical output under
    different partitionings, internally consistent, tie-stable cut."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.simsearch import (
        centroid_outliers,
        cluster_profile,
    )

    rng = np.random.default_rng(17)
    n, d = 120, 8
    mat = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float64()), d
            ),
        }
    )
    a = cluster_profile(ray.data.from_arrow(tbl).repartition(3), nlist=4)
    b = cluster_profile(ray.data.from_arrow(tbl).repartition(7), nlist=4)
    assert a.equals(b)
    assert sum(a["n_vecs"].to_pylist()) == n
    assert all(
        s // c == m
        for s, c, m in zip(
            a["sum_sim_micros"].to_pylist(),
            a["n_vecs"].to_pylist(),
            a["mean_sim_micros"].to_pylist(),
        )
    )
    oa = centroid_outliers(
        ray.data.from_arrow(tbl).repartition(3), nlist=4, k=15
    )
    ob = centroid_outliers(
        ray.data.from_arrow(tbl).repartition(7), nlist=4, k=15
    )
    assert oa.equals(ob)
    sims = oa["sim_micros"].to_pylist()
    assert sims == sorted(sims)  # farthest-first ordering
    assert oa["rank"].to_pylist() == list(range(1, 16))


def test_nb_sparse_bucketed_path_agreement(ray_session):
    """The driver-state-free NB tier (sparse bucket-derived model +
    bucketed classify) must be bit-equal to the dense broadcast path:
    observed-pair weights match the dense grid entries, scalars match,
    and predictions agree on a random multi-lang corpus — including
    docs with zero tokens and docs with zero in-vocab evidence."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import (
        nb_classify,
        nb_classify_bucketed,
        nb_train,
        nb_train_sparse,
    )

    rng = np.random.default_rng(17)
    vocabs = {
        "en": np.array(["alpha", "beta", "cat", "dog", "house"]),
        "gr": np.array(["gamma", "delta", "ouzo", "pita"]),
        "vn": np.array(["pho", "banh", "hanoi"]),
    }
    ids, texts, langs = [], [], []
    i = 0
    for lg, vb in vocabs.items():
        for _ in range(60):
            n = int(rng.integers(0, 12))  # 0 → tokenless doc
            # only en docs borrow (from gr): vn × foreign pairs stay
            # ABSENT, exercising the floor fill on both paths
            mix = lg == "en" and rng.random() < 0.3
            pool = (
                np.concatenate([vocabs["en"], vocabs["gr"]])
                if mix
                else vb
            )
            texts.append(" ".join(rng.choice(pool, size=n)))
            langs.append(lg)
            ids.append(i)
            i += 1
    # punctuation-only doc: tokenizes to nothing
    ids.append(i), texts.append("!!! 123 ???"), langs.append("en")
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(7)

    dense_tbl, state = nb_train(ds)
    d_langs, d_vocab, W, d_priors = state
    model_ds, scalars = nb_train_sparse(ds)
    s_langs, s_priors, s_floors = scalars
    assert s_langs == d_langs
    assert list(s_priors) == [int(p) for p in d_priors]
    # floors equal the dense grid's absent-pair fill value per lang
    dense = dense_tbl.to_pandas()
    sparse = (
        model_ds.to_pandas()
        .sort_values(["lang", "term"], ignore_index=True)
    )
    dense_map = {
        (r.lang, r.term): r.weight_micros for r in dense.itertuples()
    }
    for r in sparse.itertuples():
        assert dense_map[(r.lang, r.term)] == r.weight_micros
    # every sparse term row is an OBSERVED pair: strictly above floor
    fl = dict(zip(s_langs, s_floors))
    for r in sparse.itertuples():
        if r.term:
            assert r.weight_micros >= fl[r.lang]
    # absent-pair floor check: a dense grid entry not in the sparse
    # set must equal the floor
    sparse_keys = {
        (r.lang, r.term) for r in sparse.itertuples() if r.term
    }
    absent = [
        (lg, tm, wm)
        for (lg, tm), wm in dense_map.items()
        if tm and (lg, tm) not in sparse_keys
    ]
    assert absent, "test corpus should have absent (lang, term) pairs"
    for lg, tm, wm in absent:
        assert wm == fl[lg]

    a = (
        nb_classify(ds, state)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    b = (
        nb_classify_bucketed(ds, model_ds, scalars)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(b) == len(ids)
    assert a.equals(b)
    # partition invariance of the bucketed path
    c = (
        nb_classify_bucketed(ds.repartition(3), model_ds, scalars)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert a.equals(c)


def test_boilerplate_removal_planted_and_paths(ray_session, force_shuffle):
    """Within-group (host-template) boilerplate: planted template caught,
    naive-reference agreement, and the forced bucketed path
    (``force_shuffle``) is bit-identical to the adaptive local one."""
    import collections

    import ray.data

    from crawler_ai_ray.stages.dedup import (
        _boiler_segs,
        boilerplate_removal,
        boilerplate_stats,
    )

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(60)]
    rows = []
    for h in range(6):
        host = f"h{h}.example"
        tmpl = " ".join(rng.choice(vocab, 20))  # two aligned 10-word segs
        n_pages = int(rng.integers(4, 9))
        for p in range(n_pages):
            body = " ".join(rng.choice(vocab, int(rng.integers(0, 35))))
            text = f"{tmpl} {body}" if p != 0 else body  # template on n-1
            rows.append(
                {"url": f"http://{host}/p{p}", "host": host, "text": text}
            )
    ds = ray.data.from_items(rows)

    got = (
        boilerplate_removal(ds, "host", "url", "text")
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    # naive reference
    df = collections.Counter()
    for r in rows:
        for s in set(_boiler_segs(r["text"], 10)):
            df[(r["host"], s)] += 1
    boiler = {k for k, v in df.items() if v >= 3}
    assert boiler, "planted template must be boilerplate"
    for r in rows:
        segs = _boiler_segs(r["text"], 10)
        kept = " ".join(s for s in segs if (r["host"], s) not in boiler)
        row = got[got.url == r["url"]].iloc[0]
        assert row["clean_text"] == kept
        assert row["n_segments"] == len(segs)
        assert row["n_dropped"] == sum(
            (r["host"], s) in boiler for s in segs
        )

    # forced bucketed path ≡ adaptive local path (removal + stats)
    with force_shuffle():
        forced = (
            boilerplate_removal(
                ds.repartition(5), "host", "url", "text", num_buckets=16
            )
            .to_pandas()
            .sort_values("url", ignore_index=True)
        )
    assert got.equals(forced)
    st = (
        boilerplate_stats(ds, "host", "url", "text")
        .to_pandas()
        .sort_values("group", ignore_index=True)
    )
    with force_shuffle():
        st_forced = (
            boilerplate_stats(
                ds.repartition(5), "host", "url", "text", num_buckets=16
            )
            .to_pandas()
            .sort_values("group", ignore_index=True)
        )
    assert st.equals(st_forced)
    # stats cross-check against the removal output + naive DF table
    for g, sub in got.groupby(got.url.str.split("/").str[2]):
        row = st[st.group == g].iloc[0]
        assert row["n_pages"] == len(sub)
        assert row["n_segments"] == sub["n_segments"].sum()
        assert row["n_dropped"] == sub["n_dropped"].sum()
        assert row["n_boiler_segments"] == sum(
            1 for (hh, _) in boiler if hh == g
        )
        assert row["n_distinct_segments"] == sum(
            1 for (hh, _) in df if hh == g
        )


# --- containment near-dup ---------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_ngram_containment_vs_duckdb(docs_ds, duck):
    from crawler_ai_ray.stages.dedup import ngram_pairs_containment

    eng = ngram_pairs_containment(
        docs_ds, n=3, threshold=0.9, max_df=50
    ).to_pandas()
    ora = duck.sql("""
      WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '\\S+') t
                    FROM documents),
      ng AS (SELECT DISTINCT doc_id, t[i]||' '||t[i+1]||' '||t[i+2] ngram
             FROM toks, unnest(generate_series(1, len(t)-2)) s(i)
             WHERE len(t) >= 3),
      sizes AS (SELECT doc_id, count(*) sz FROM ng GROUP BY 1),
      df AS (SELECT ngram, count(*) c FROM ng GROUP BY 1),
      pairs AS (SELECT a.doc_id doc_a, b.doc_id doc_b, count(*) shared
                FROM ng a JOIN ng b ON a.ngram=b.ngram AND a.doc_id<b.doc_id
                JOIN df ON df.ngram=a.ngram AND df.c<=50 GROUP BY 1,2)
      SELECT doc_a, doc_b, shared,
             shared/least(sa.sz, sb.sz)::DOUBLE containment
      FROM pairs JOIN sizes sa ON sa.doc_id=doc_a
                 JOIN sizes sb ON sb.doc_id=doc_b
      WHERE shared/least(sa.sz, sb.sz)::DOUBLE >= 0.9""").df()
    assert_frames_equal(eng, ora)


def test_ngram_containment_catches_what_jaccard_misses(ray_session):
    """A short doc fully embedded in a long one: containment = 1.0 but
    Jaccard far below 0.8 — the asymmetric case the operator exists
    for."""
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        ngram_pairs_containment,
        ngram_pairs_jaccard,
    )

    long_toks = [f"w{i}" for i in range(30)]
    short_toks = long_toks[5:16]  # 11 tokens → 9 3-grams, all in long
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                [" ".join(long_toks), " ".join(short_toks)], pa.string()
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    cont = ngram_pairs_containment(ds, n=3, threshold=0.9).to_pandas()
    assert cont.values.tolist() == [[1, 2, 9, 1.0]]
    jac = ngram_pairs_jaccard(ds, n=3, threshold=0.8).to_pandas()
    assert len(jac) == 0


# --- Bloom-filter membership ------------------------------------------------

def test_bloom_membership_planted_and_bruteforce(ray_session):
    """No false negatives ever (the Bloom guarantee); with a
    deliberately tiny bitmap the in_bloom column matches a brute-force
    bitmap recomputation and false_positive == in_bloom & ~exact."""
    import hashlib

    import numpy as np
    import ray.data

    from crawler_ai_ray.stages.dedup import bloom_membership

    ref_texts = [f"ref document number {i} body" for i in range(40)]
    probe_texts = (
        ref_texts[:7]  # exact dups → must be in_bloom
        + [f"novel probe {i} content" for i in range(60)]
    )
    ref = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1000, 1040), pa.int64()),
                "text": pa.array(ref_texts, pa.string()),
            }
        )
    )
    probe = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(probe_texts)), pa.int64()),
                "text": pa.array(probe_texts, pa.string()),
            }
        )
    )
    m = 512  # tiny on purpose: 40 docs × 4 bits ≈ 27% fill → real fps
    got = (
        bloom_membership(ref, probe, m_bits=m)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(got) == len(probe_texts)

    def positions(t: str) -> list[int]:
        d = hashlib.md5(t.encode()).digest()
        up = int.from_bytes(d[:8], "little")
        lo = int.from_bytes(d[8:], "little")
        return [
            (up & 0xFFFFFFFF) % m,
            (up >> 32) % m,
            (lo & 0xFFFFFFFF) % m,
            (lo >> 32) % m,
        ]

    bits = np.zeros(m, bool)
    for t in ref_texts:
        bits[positions(t)] = True
    ref_set = set(ref_texts)
    want_in = [all(bits[positions(t)]) for t in probe_texts]
    want_exact = [t in ref_set for t in probe_texts]
    assert got.in_bloom.tolist() == want_in
    assert got.exact_dup.tolist() == want_exact
    assert (
        got.false_positive == (got.in_bloom & ~got.exact_dup)
    ).all()
    # the Bloom guarantee: every exact dup is flagged present
    assert got[got.exact_dup].in_bloom.all()
    # the tiny bitmap actually exercised the fp path
    assert got.false_positive.any()


@pytest.mark.usefixtures("ray_session")
def test_keep_best_path_agreement_and_semantics(docs_ds):
    """Quality-aware keep-one: distributed tier ≡ driver-local tier
    bit-for-bit, the kept doc per cluster is the (max tokens, max
    chars, min id) lexicographic argmax, and singleton clusters keep
    themselves."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        minhash_cluster_labels_local,
        neardup_keep_best,
        neardup_keep_best_local,
    )
    from crawler_ai_ray.stages.textstats import quality_batch

    tab = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    labels = minhash_cluster_labels_local(tab, n=3, threshold=0.8)
    keys = quality_batch(tab).select(
        ["doc_id", "n_tokens_ws", "n_chars_text"]
    )
    loc = (
        neardup_keep_best_local(labels, keys)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    dist = (
        neardup_keep_best(
            ray.data.from_arrow(labels).repartition(5),
            ray.data.from_arrow(keys).repartition(3),
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )[loc.columns.tolist()]
    assert dist.equals(loc)

    # semantics vs a pandas reference argmax
    df = loc.merge(keys.to_pandas(), on="doc_id")
    for cid, grp in df.groupby("canonical_id"):
        g = grp.sort_values(
            ["n_tokens_ws", "n_chars_text", "doc_id"],
            ascending=[False, False, True],
        )
        want = int(g.doc_id.iloc[0])
        assert (grp.keep_id == want).all()
        assert set(grp.loc[grp.kept, "doc_id"]) == {want}
    # every cluster keeps exactly one doc
    assert loc.groupby("canonical_id").kept.sum().eq(1).all()
    assert len(loc) == tab.num_rows

    # hand case: longer doc wins even with a larger id
    labels2 = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "canonical_id": pa.array([1, 1, 3], pa.int64()),
        }
    )
    keys2 = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "n_tokens_ws": pa.array([5, 9, 4], pa.int64()),
            "n_chars_text": pa.array([50, 90, 40], pa.int64()),
        }
    )
    out = neardup_keep_best_local(labels2, keys2).to_pandas()
    assert dict(zip(out.doc_id, out.keep_id)) == {1: 2, 2: 2, 3: 3}
    assert dict(zip(out.doc_id, out.kept)) == {1: False, 2: True, 3: True}


def test_temperature_mix_hand_computed_and_realized(ray_session):
    """T=0.5 mix plan on a skewed 2-lang corpus: √share targets sit
    between uniform and proportional; the sample pass realizes exactly
    the docs whose md5 draw clears the language rate (engine-code-free
    recompute), and the whole family is partition-invariant."""
    import hashlib
    import math

    import ray.data

    from crawler_ai_ray.stages.textstats import (
        temperature_mix_plan,
        temperature_mix_sample,
    )

    rows = []
    for i in range(40):  # en: 40 docs × 8 tokens = 320
        rows.append((i, "en", "a b c d e f g h"))
    for i in range(40, 50):  # vi: 10 docs × 2 tokens = 20
        rows.append((i, "vi", "x y"))
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    plan = temperature_mix_plan(ds, budget_ppm=500_000).to_pandas()
    p = plan.set_index("lang")

    # hand math: sqrt_milli = floor(sqrt(tokens)*1000)
    sq_en = math.floor(math.sqrt(320.0) * 1000)
    sq_vi = math.floor(math.sqrt(20.0) * 1000)
    ss = sq_en + sq_vi
    assert p.loc["en", "sqrt_milli"] == sq_en
    assert p.loc["vi", "sqrt_milli"] == sq_vi
    assert p.loc["en", "target_ppm"] == sq_en * 1_000_000 // ss
    budget = 340 * 500_000 // 1_000_000
    r_en = min(1_000_000, (budget * sq_en // ss) * 1_000_000 // 320)
    r_vi = min(1_000_000, (budget * sq_vi // ss) * 1_000_000 // 20)
    assert p.loc["en", "rate_ppm"] == r_en
    assert p.loc["vi", "rate_ppm"] == r_vi
    # temperature flattens: en's target share < its 320/340 token
    # share, vi's > its 20/340 share
    assert p.loc["en", "target_ppm"] < 320 * 1_000_000 // 340
    assert p.loc["vi", "target_ppm"] > 20 * 1_000_000 // 340

    got = (
        temperature_mix_sample(ds, budget_ppm=500_000)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    rates = {"en": r_en, "vi": r_vi}
    want = sorted(
        i
        for i, lg, _ in rows
        if int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:], "little"
        )
        % 1_000_000
        < rates[lg]
    )
    assert got.doc_id.tolist() == want
    assert (got.draw_ppm < got.lang.map(rates)).all()

    # partition invariance
    again = (
        temperature_mix_sample(ds.repartition(7), budget_ppm=500_000)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got.equals(again)


def test_source_cap_hand_computed_and_invariant(ray_session):
    """Per-source token cap: a planted whale source is cut to the
    budget in (md5 draw, doc_id) admission order (engine-code-free
    recompute), small sources pass untouched, and the kept manifest
    is partition- and bucket-count-invariant."""
    import hashlib

    import ray.data

    from crawler_ai_ray.stages.textstats import source_cap

    rows = []
    for i in range(30):  # whale: 30 docs × 10 tokens = 300
        rows.append((i, "whale", "t " * 9 + "t"))
    for i in range(30, 40):  # minnow: 10 docs × 2 tokens = 20
        rows.append((i, "minnow", "a b"))
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "source": pa.array([r[1] for r in rows], pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    # total 320 tokens, cap 50% = 160 ⇒ whale keeps 16 docs, minnow all
    got = (
        source_cap(ds, cap_ppm=500_000)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )

    def draw(i):
        return int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:], "little"
        )

    whale_order = sorted(range(30), key=lambda i: (draw(i), i))
    want_whale = sorted(whale_order[:16])
    assert got[got.source == "whale"].doc_id.tolist() == want_whale
    assert got[got.source == "minnow"].doc_id.tolist() == list(
        range(30, 40)
    )
    # running totals: whale rows end exactly at the cap
    assert got[got.source == "whale"].cum_tokens.max() == 160
    assert got[got.source == "minnow"].cum_tokens.max() == 20

    again = (
        source_cap(ds.repartition(7), cap_ppm=500_000, num_buckets=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got.equals(again)


def test_trigram_backoff_tiers_and_reference(
    ray_session, force_bucketed, force_shuffle, monkeypatch
):
    """Stupid-Backoff trigram LM: (a) the five count joins forced
    bucketed and the count merge and per-doc finish forced through the
    shuffle are bit-equal to the default gates, on a random corpus, an
    empty one, one-token docs and a corpus whose docs are all held out;
    (b) the results match a sequential pure-Python reference that
    counts n-gram STRINGS on the train slice (doc_id % 5 != 0) and
    applies the exact α=0.4 integer branch rule — so hash folding,
    count joins and the held-out scoring shape are all verified
    against independent math."""
    import ray.data

    from crawler_ai_ray.stages.textstats import trigram_backoff_fluency

    rng = np.random.default_rng(29)
    vocab = np.array(
        ["alpha", "beta", "gamma", "delta", "common", "words",
         "page", "rare", "zebra", "quark"]
    )
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 25)))
        for _ in range(240)
    ]
    ds = ray.data.from_arrow(_lm_docs(texts)).repartition(5)
    a = _lm_paths_agree(
        trigram_backoff_fluency, ds, force_bucketed, force_shuffle
    )

    # sequential reference over n-gram strings
    from collections import Counter

    def reference(ids, texts):
        c1, c2, c3 = Counter(), Counter(), Counter()
        toks = {i: t.lower().split() for i, t in zip(ids, texts)}
        n_train = 0
        for i, ws in toks.items():
            if i % 5 == 0:
                continue
            n_train += len(ws)
            c1.update(ws)
            c2.update(zip(ws, ws[1:]))
            c3.update(zip(ws, ws[1:], ws[2:]))
        want = {}
        for i, ws in toks.items():
            if len(ws) < 3:
                continue
            s_sum = b_sum = n = 0
            for q, p, w in zip(ws, ws[1:], ws[2:]):
                n += 1
                if c3[(q, p, w)] > 0:
                    s = (1_000_000 * c3[(q, p, w)]) // c2[(q, p)]
                elif c2[(p, w)] > 0:
                    s = (400_000 * c2[(p, w)]) // c1[p]
                    b_sum += 1
                else:
                    s = (160_000 * c1[w]) // max(n_train, 1)
                    b_sum += 1
                s_sum += s
            want[i] = (n, s_sum // n, (b_sum * 1_000_000) // n)
        return want

    def rows(df):
        return {
            int(r.doc_id): (int(r.n_tri), int(r.fluency3_ppm),
                            int(r.backoff_ppm))
            for r in df.itertuples()
        }

    got = rows(a)
    assert got == reference(range(240), texts)
    # held-out docs actually exercise the backoff path
    assert any(v[2] > 0 for k, v in got.items() if k % 5 == 0)
    assert all(v[2] == 0 for k, v in got.items() if k % 5 != 0)

    for tbl in (_lm_docs([]), _lm_docs(["cat", "dog", "", "a b"])):
        got = _lm_edge_paths_agree(trigram_backoff_fluency, tbl, monkeypatch)
        assert len(got) == 0
        assert list(got.columns) == [
            "doc_id", "n_tri", "fluency3_ppm", "backoff_ppm",
        ]

    # every doc held out: nothing trains, every triple backs off to 0
    ids = np.arange(0, 5 * 40, 5)
    held = _lm_docs(texts[:40], ids)
    got = rows(
        _lm_edge_paths_agree(trigram_backoff_fluency, held, monkeypatch)
    )
    assert got == reference(ids, texts[:40])
    assert got and all(v[1:] == (0, 1_000_000) for v in got.values())


def test_kcenter_select_partition_invariant_and_ties(ray_session):
    """Greedy k-center: identical output under different block
    partitionings, bit-equal to the sequential same-math reference
    (the golden's validity argument), and tie-stable on a degenerate
    grid of exact-duplicate vectors (the knn-graph fuzz class) —
    duplicates of a selected center are covered and never re-picked,
    and the run stops early once only exact dups remain."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import list_col_to_matrix
    from crawler_ai_ray.stages.simsearch import (
        _half_away_micros,
        _normalize,
        kcenter_select,
    )

    def sequential(tbl: pa.Table, k: int) -> list[tuple[int, int, int]]:
        ids = tbl["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        matn = _normalize(list_col_to_matrix(tbl["embedding"]))
        max_sim = np.full(len(ids), -2_000_000, np.int64)
        sel = int(np.argmin(ids))
        rows = [(1, int(ids[sel]), -2_000_000)]
        vec = matn[sel]
        for r in range(2, k + 1):
            sims = _half_away_micros(matn @ vec * 1_000_000.0)
            np.maximum(max_sim, sims, out=max_sim)
            i = int(np.lexsort((ids, max_sim))[0])
            if max_sim[i] >= 1_000_000:
                break
            rows.append((r, int(ids[i]), int(max_sim[i])))
            vec = matn[i]
        return rows

    rng = np.random.default_rng(23)
    n, d = 150, 8
    mat = rng.normal(size=(n, d))
    # degenerate ties: clone the first 30 rows (exact duplicates with
    # different, higher ids)
    mat[100:130] = mat[:30]
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float64()), d
            ),
        }
    )
    a = kcenter_select(ray.data.from_arrow(tbl).repartition(3), k=12)
    b = kcenter_select(ray.data.from_arrow(tbl).repartition(8), k=12)
    assert a.equals(b)
    want = sequential(tbl, 12)
    got = list(
        zip(
            a["rank"].to_pylist(),
            a["vec_id"].to_pylist(),
            a["sim_micros"].to_pylist(),
        )
    )
    assert got == want
    # coverage witness is non-decreasing after the seed sentinel
    sims = a["sim_micros"].to_pylist()[1:]
    assert sims == sorted(sims)
    assert a["vec_id"].to_pylist()[0] == 0  # deterministic min-id seed
    # no exact duplicate of an earlier selection is ever picked
    assert 1_000_000 not in sims
    # degenerate corpus: 3 distinct directions cloned many times ->
    # selection stops at 3 centers even with k=10
    small = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    dup = np.repeat(small, 12, axis=0)
    tiny = pa.table(
        {
            "vec_id": pa.array(np.arange(len(dup)), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(dup.ravel(), pa.float64()), 2
            ),
        }
    )
    t = kcenter_select(ray.data.from_arrow(tiny).repartition(5), k=10)
    assert t.num_rows == 3
    assert t["vec_id"].to_pylist() == [0, 24, 12]  # seed, opposite, ortho


def test_cdc_chunker_properties():
    """Pure-chunker pins (no Ray): chunks tile the byte string exactly;
    boundary decisions are LOCAL (a prefix edit leaves the chunk
    sequence identical once past one gear window + one chunk); hashes
    are content-addressed (same span -> same hash anywhere)."""
    import numpy as np

    from crawler_ai_ray.stages.dedup import (
        cdc_boundaries,
        cdc_chunk_hashes,
    )

    rng = np.random.default_rng(7)
    text = "".join(
        chr(c) for c in rng.integers(97, 123, size=5000)
    )
    data = np.frombuffer(text.encode(), np.uint8)
    bpos = cdc_boundaries(data)
    # cuts tile the string: reassembled extents cover every byte once
    hs, lens = cdc_chunk_hashes(text)
    assert int(lens.sum()) == len(data)
    assert len(hs) == len(lens) >= 2  # ~5000/256 expected chunks
    # empty text
    h0, l0 = cdc_chunk_hashes("")
    assert len(h0) == 0 and len(l0) == 0
    # locality: prepend a prefix; all chunks after the first boundary
    # beyond (edit + window) are unchanged — compare hash multisets of
    # the common tail
    pre = "zzz-prefix-" * 7
    hs2, lens2 = cdc_chunk_hashes(pre + text)
    # align from the end: identical suffix of chunk hash sequences
    k = 0
    while (
        k < min(len(hs), len(hs2))
        and hs[len(hs) - 1 - k] == hs2[len(hs2) - 1 - k]
    ):
        k += 1
    # all but the first couple of chunks must survive the edit
    assert k >= len(hs) - 2
    # content addressing: a shared interior span hashes the same in
    # two different docs (drop each side's junction chunk)
    shared = text[:3000]
    ha, _ = cdc_chunk_hashes(shared + "tailA" * 40)
    hb, _ = cdc_chunk_hashes("headB" * 40 + shared)
    inter = set(ha.tolist()) & set(hb.tolist())
    assert len(inter) >= len(ha) // 3


def test_cdc_dedup_stats_planted_and_paths(ray_session, force_shuffle):
    """Distributed CDC dedup vs the sequential same-math reference on a
    planted-duplicate corpus, partition-invariant, and the forced
    bucketed finish agrees with the driver-local finish."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import (
        cdc_chunk_hashes,
        cdc_dedup_stats,
    )

    rng = np.random.default_rng(11)

    def rand_text(n):
        return "".join(chr(c) for c in rng.integers(97, 123, size=n))

    shared = rand_text(4096)
    docs = [
        (0, shared + rand_text(2000)),
        (1, rand_text(1500) + shared),
        (2, rand_text(3000)),
        (3, ""),  # empty doc: excluded from output
        (4, rand_text(300)),  # likely single-chunk doc
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }
    )

    # sequential reference (the golden's math)
    counts = Counter()
    per_doc = {}
    for did, text in docs:
        hs, lens = cdc_chunk_hashes(text)
        if not len(hs):
            continue
        per_doc[did] = (hs, lens)
        counts.update(hs.tolist())
    want = {}
    for did, (hs, lens) in per_doc.items():
        dup = np.array([counts[h] >= 2 for h in hs.tolist()], bool)
        want[did] = (
            len(hs),
            int(lens.sum()),
            int(dup.sum()),
            int(lens[dup].sum()),
        )

    def as_dict(t):
        return {
            d: (a, b, c, e)
            for d, a, b, c, e in zip(
                t["doc_id"].to_pylist(),
                t["n_chunks"].to_pylist(),
                t["chunk_bytes"].to_pylist(),
                t["n_dup_chunks"].to_pylist(),
                t["dup_bytes"].to_pylist(),
            )
        }

    a = cdc_dedup_stats(ray.data.from_arrow(tbl).repartition(2))
    b = cdc_dedup_stats(ray.data.from_arrow(tbl).repartition(5))
    with force_shuffle():
        forced = cdc_dedup_stats(ray.data.from_arrow(tbl).repartition(3))
    assert as_dict(a) == want
    assert as_dict(b) == want
    assert as_dict(forced) == want  # bucketed-finish path agreement
    assert 3 not in as_dict(a)  # empty doc excluded
    # the planted shared span is detected as duplicated bytes on both
    # carriers, and most of it is recovered (junction chunks differ)
    assert want[0][3] > len(shared) // 2
    assert want[1][3] > len(shared) // 2
    assert want[2][3] == 0  # unique doc has no dup bytes


def test_mmr_select_partition_invariant_and_semantics(ray_session):
    """MMR: identical output under different partitionings, bit-equal
    to the sequential same-math reference; rank 1 is argmax relevance
    (empty-set penalty 0); an exact duplicate of a selected row is
    penalized to the bottom but, unlike k-center, stays selectable."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import list_col_to_matrix
    from crawler_ai_ray.stages.simsearch import (
        _half_away_micros,
        _normalize,
        mmr_select,
    )

    def sequential(tbl: pa.Table, k: int, lam_ppm: int = 500_000):
        ids = tbl["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        matn = _normalize(list_col_to_matrix(tbl["embedding"]))
        micro = np.rint(matn * 1_000_000.0).astype(np.int64)
        q = _normalize(
            ((micro.sum(axis=0) / 1_000_000.0) / len(matn))[None, :]
        )[0]
        rel = _half_away_micros(matn @ q * 1_000_000.0)
        lam, lam_inv = np.int64(lam_ppm), np.int64(1_000_000 - lam_ppm)
        max_sim = np.zeros(len(ids), np.int64)
        taken = np.zeros(len(ids), bool)
        rows = []
        for r in range(1, k + 1):
            score = lam * rel - lam_inv * max_sim
            idx = np.flatnonzero(~taken)
            if not len(idx):
                break
            i = int(idx[np.lexsort((ids[idx], -score[idx]))[0]])
            rows.append((r, int(ids[i]), int(rel[i]), int(score[i])))
            taken[i] = True
            sims = _half_away_micros(matn @ matn[i] * 1_000_000.0)
            np.maximum(max_sim, sims, out=max_sim)
        return rows

    rng = np.random.default_rng(31)
    n, d = 140, 8
    mat = rng.normal(size=(n, d))
    mat[120:135] = mat[:15]  # exact-duplicate tie grid
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float64()), d
            ),
        }
    )
    a = mmr_select(ray.data.from_arrow(tbl).repartition(3), k=10)
    b = mmr_select(ray.data.from_arrow(tbl).repartition(7), k=10)
    assert a.equals(b)
    got = list(
        zip(
            a["rank"].to_pylist(),
            a["vec_id"].to_pylist(),
            a["rel_micros"].to_pylist(),
            a["score_pico"].to_pylist(),
        )
    )
    assert got == sequential(tbl, 10)
    # rank 1 = argmax relevance with min-id tiebreak
    seq1 = sequential(tbl, 1)[0]
    assert got[0] == seq1
    # scores non-increasing is NOT guaranteed by MMR, but selection
    # never repeats an id
    assert len(set(a["vec_id"].to_pylist())) == a.num_rows
    # k exceeding the corpus: selects everything then stops
    tiny = pa.table(
        {
            "vec_id": pa.array([5, 9, 2], pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(
                    np.array(
                        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
                    ).ravel(),
                    pa.float64(),
                ),
                2,
            ),
        }
    )
    t = mmr_select(ray.data.from_arrow(tiny).repartition(2), k=10)
    assert t.num_rows == 3
    assert sorted(t["vec_id"].to_pylist()) == [2, 5, 9]


def test_ngram_novelty_planted_and_paths(ray_session, force_shuffle):
    """n-gram novelty on a planted corpus: the min-doc_id holder of a
    shared n-gram is the only doc it counts as novel for; partition-
    invariant; the forced bucketed finish agrees with driver-local."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.dedup import ngram_novelty

    docs = [
        (10, "a b c d e"),          # 3 trigrams, all novel (first doc)
        (20, "a b c x y z"),        # "a b c" seen in doc 10 -> 3/4 novel
        (30, "a b"),                # < 3 tokens: excluded
        (40, "x y z x y z x y"),    # distinct: {x y z, y z x, z x y};
                                    # "x y z" first seen in doc 20
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }
    )
    want = {
        10: (3, 3, 1_000_000),
        20: (4, 3, 750_000),
        40: (3, 2, 666_666),
    }

    def as_dict(t):
        return {
            d: (a, b, c)
            for d, a, b, c in zip(
                t["doc_id"].to_pylist(),
                t["n_ngrams"].to_pylist(),
                t["n_novel"].to_pylist(),
                t["novelty_ppm"].to_pylist(),
            )
        }

    a = ngram_novelty(ray.data.from_arrow(tbl).repartition(2))
    b = ngram_novelty(ray.data.from_arrow(tbl).repartition(4))
    with force_shuffle():
        forced = ngram_novelty(ray.data.from_arrow(tbl).repartition(3))
    assert as_dict(a) == want
    assert as_dict(b) == want
    assert as_dict(forced) == want


def test_clf_calibration_bucket_math(ray_session):
    """clf_calibration with hand-made weights: floor bucketing of
    negative margins, clamping at both ends, rule-label counting, and
    exclusion of docs with no in-vocab features."""
    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.importance import clf_calibration

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the and is to of",  # all stopwords -> quality True
                    "qqq zzz www",       # no stopwords -> quality False
                    "!!! 123",           # no [a-z]+ tokens -> unscored
                ],
                pa.string(),
            ),
        }
    )

    def weights(bias):
        return pa.table(
            {
                "feat": pa.array([1024], pa.int64()),
                "weight_micros": pa.array([bias], pa.int64()),
            }
        )

    ds = ray.data.from_arrow(docs).repartition(2)
    # bias -4.1e6 -> margin -4.1e6 for every scored doc;
    # floor(-4.1e6 / 2e6) = floor(-2.05) = -3
    t = clf_calibration(ds, weights(-4_100_000))
    assert t["bucket"].to_pylist() == [-3]
    assert t["n_docs"].to_pylist() == [2]       # doc 3 unscored
    assert t["n_quality"].to_pylist() == [1]
    assert t["quality_ppm"].to_pylist() == [500_000]
    # clamping: far-positive and far-negative margins pin to hi/lo
    t = clf_calibration(ds, weights(25_000_000))
    assert t["bucket"].to_pylist() == [5]
    t = clf_calibration(ds, weights(-25_000_000))
    assert t["bucket"].to_pylist() == [-5]


def test_dust_url_pairs_planted_and_forced_path(ray_session, force_shuffle):
    """Planted alias groups: pair explosion, url ordering, the
    max_group DF cap, and driver-local vs bucketed path agreement."""
    import pyarrow as pa
    import ray

    from crawler_ai_ray.stages.dedup import dust_url_pairs

    rows = []
    # host A: a 3-url alias group (3 pairs) + a unique page
    for u in ("https://a.test/p?x=1", "https://a.test/p", "https://a.test/p?x=2"):
        rows.append({"url": u, "host": "a.test", "text": "same text A"})
    rows.append({"url": "https://a.test/q", "host": "a.test", "text": "unique"})
    # host B: same TEXT as host A's group but different host — no cross-host pairs
    rows.append({"url": "https://b.test/p", "host": "b.test", "text": "same text A"})
    # host B: a 2-url group
    for u in ("https://b.test/r", "https://b.test/r?ref=x"):
        rows.append({"url": u, "host": "b.test", "text": "same text B"})
    # host C: an over-cap hot group (max_group=4 → dropped entirely)
    for i in range(5):
        rows.append({"url": f"https://c.test/h{i}", "host": "c.test", "text": ""})
    tbl = pa.Table.from_pylist(rows)

    def norm(t):
        return sorted(
            zip(
                t["host"].to_pylist(), t["url_a"].to_pylist(),
                t["url_b"].to_pylist(), t["n_urls"].to_pylist(),
            )
        )

    local = dust_url_pairs(ray.data.from_arrow(tbl), max_group=4)
    with force_shuffle():
        forced = dust_url_pairs(ray.data.from_arrow(tbl), max_group=4)
    got = norm(local)
    assert norm(forced) == got  # path agreement
    a_urls = sorted(
        ["https://a.test/p?x=1", "https://a.test/p", "https://a.test/p?x=2"]
    )
    want = sorted(
        [("a.test", a_urls[x], a_urls[y], 3)
         for x in range(3) for y in range(x + 1, 3)]
        + [("b.test", "https://b.test/r", "https://b.test/r?ref=x", 2)]
    )
    assert got == want  # no cross-host pair, hot group capped away


def test_dust_params_avoid_classifier_keywords():
    """The synth DUST alias params must not contain any classify/career
    keyword substring (the M7 host-name collision rule, applied to
    query params) — otherwise alias urls would classify differently
    than intended by accident of the param spelling."""
    from crawler_ai_ray.functions import classify
    from crawler_ai_ray.sources.synth import _DUST_PARAMS

    kw = (
        classify._EXCLUDE_MENU_KEYWORDS
        + classify._CAREER_KEYWORDS
        + classify._NAV_KEYWORDS
        + classify._CONTENT_KEYWORDS
    )
    for p in _DUST_PARAMS:
        for k in kw:
            assert k not in p, f"param {p!r} contains keyword {k!r}"


def test_c4_rules_matches_duckdb_oracle(ray_session):
    """Planted + fuzz differential: c4_rules_batch vs the inline SQL
    oracle on line-edge cases (trailing spaces/tabs, quote terminator,
    javascript, short lines, empty text, lorem/brace flags)."""
    import random

    import pyarrow as pa

    from crawler_ai_ray.stages.textstats import c4_rules_batch

    texts = [
        "",  # one empty line on both sides
        "This is a good sentence with words.",
        "Ends with quote five words here.\"",
        "short line.",  # < 5 words
        "no terminal punctuation five words here",
        "This line has javascript in it and many words.",
        "Trailing spaces sentence with five words.   ",
        "Tab terminated line with five words.\t",
        "Two good sentences here ok. Another one right here!\nAnd a third one with words?",
        "Good line with five words. But page has lorem ipsum somewhere.",
        "Brace page { with a sentence of five words. More text here ok. Third sentence goes here.",
        "Multi.\nline.\ndoc with short lines.",
    ]
    rng = random.Random(7)
    frags = [
        "Good sentence with many fine words.", "tiny.", "{", "lorem ipsum",
        "Ends in bang with five words!", "javascript line with many words here.",
        "A question with five words maybe?", "plain words no punct here",
        "", "   ", "Quoted ending with five words.\"",
    ]
    for _ in range(60):
        texts.append("\n".join(rng.choice(frags) for _ in range(rng.randint(1, 8))))
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        c4_rules_batch(tbl)
        .sort_by([("doc_id", "ascending")])
        .to_pydict()
    )
    import duckdb

    import __ray_entry__ as entrymod

    sql = entrymod.oracle_sql()["doc_c4_rules"]
    con = duckdb.connect()
    con.register("documents", tbl)
    want = (
        con.execute(sql + " ORDER BY doc_id")
        .fetch_arrow_table()
        .to_pydict()
    )
    assert got == want


def test_warc_roundtrip_and_resume(ray_session, unit_corpus, tmp_path):
    """WARC sink/source: byte-identical html round-trip for every url,
    CDX offsets actually address the records inside the files, and a
    resumed write (markers present) returns the identical CDX without
    rewriting."""
    import os

    import pyarrow.parquet as pq_
    import ray

    from crawler_ai_ray.sources.pqread import read_parquet_rowgroups
    from crawler_ai_ray.sources.warc import read_warc, write_warc

    pages_path = os.path.join(unit_corpus, "pages.parquet")
    out = str(tmp_path / "warc")

    def ds():
        return read_parquet_rowgroups(
            pages_path, columns=["url", "warc_ts", "html", "hshard"]
        )

    cdx = write_warc(ds(), out)
    src = pq_.read_table(pages_path, columns=["url", "html"])
    want = dict(zip(src["url"].to_pylist(), src["html"].to_pylist()))
    back = pa.concat_tables(
        [t for t in ray.get(read_warc(out).to_arrow_refs()) if t.num_rows]
    )
    got = dict(zip(back["url"].to_pylist(), back["html"].to_pylist()))
    assert got == want  # byte-identical payloads, full coverage

    # CDX addresses: seek each offset, record_len slice re-parses to url
    rows = cdx.to_pylist()
    by_shard: dict[int, list[dict]] = {}
    for r in rows:
        by_shard.setdefault(r["hshard"], []).append(r)
    import random

    rng = random.Random(3)
    for shard, rs in by_shard.items():
        with open(os.path.join(out, f"shard={shard:04d}.warc"), "rb") as f:
            data = f.read()
        assert sum(r["record_len"] for r in rs) == len(data)
        for r in rng.sample(rs, min(3, len(rs))):
            rec = data[r["offset"] : r["offset"] + r["record_len"]]
            assert rec.startswith(b"WARC/1.0\r\n")
            assert f"WARC-Target-URI: {r['url']}\r\n".encode() in rec

    # resume: markers exist → same CDX, files untouched
    mtimes = {
        f: os.path.getmtime(os.path.join(out, f))
        for f in os.listdir(out)
        if f.endswith(".warc")
    }
    cdx2 = write_warc(ds(), out, resume=True)
    assert sorted(cdx2.to_pylist(), key=lambda r: r["url"]) == sorted(
        rows, key=lambda r: r["url"]
    )
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(out, f)) == m


def test_warc_dedup_revisit_roundtrip(ray_session, unit_corpus, tmp_path):
    """Dedup archive: revisit records exist (the DUST aliases make this
    non-vacuous), the archive is strictly smaller than the plain one,
    and resolving revisits through their canonical urls reconstructs
    every payload byte-identically."""
    import os

    import pyarrow.parquet as pq_
    import ray

    from crawler_ai_ray.sources.pqread import read_parquet_rowgroups
    from crawler_ai_ray.sources.warc import (
        read_warc,
        write_warc,
        write_warc_dedup,
    )

    pages_path = os.path.join(unit_corpus, "pages.parquet")

    def ds():
        return read_parquet_rowgroups(
            pages_path, columns=["url", "warc_ts", "html", "hshard"]
        )

    plain = str(tmp_path / "plain")
    dd = str(tmp_path / "dd")
    write_warc(ds(), plain)
    cdx = write_warc_dedup(ds(), dd)
    kinds = cdx["record_type"].to_pylist()
    assert kinds.count("revisit") >= 10  # DUST aliases collapsed

    def total(d):
        return sum(
            os.path.getsize(os.path.join(d, f))
            for f in os.listdir(d)
            if f.endswith(".warc")
        )

    assert total(dd) < total(plain)

    back = pa.concat_tables(
        [t for t in ray.get(read_warc(dd).to_arrow_refs()) if t.num_rows]
    )
    payload = {}
    for u, h, k in zip(
        back["url"].to_pylist(), back["html"].to_pylist(),
        back["record_type"].to_pylist(),
    ):
        if k == "response":
            payload[u] = h
    resolved = {}
    for u, h, k, ref in zip(
        back["url"].to_pylist(), back["html"].to_pylist(),
        back["record_type"].to_pylist(), back["refers_to"].to_pylist(),
    ):
        resolved[u] = payload[ref] if k == "revisit" else h
    src = pq_.read_table(pages_path, columns=["url", "html"])
    want = dict(zip(src["url"].to_pylist(), src["html"].to_pylist()))
    assert resolved == want


def test_paragraph_dedup_planted_vs_oracle(ray_session):
    """Planted grid: cross-doc duplicate lines (keep-first by (doc,
    idx)), in-doc repeats, empty lines/docs, and full-text fingerprint
    of the rebuilt docs — engine vs the inline DuckDB oracle."""
    import duckdb
    import pyarrow as pa
    import ray

    import __ray_entry__ as entrymod
    from crawler_ai_ray.stages.dedup import paragraph_dedup_stats

    texts = [
        "shared line one\nunique to zero\nshared line two",
        "shared line one\nunique to one",          # loses line 0
        "",                                         # empty doc
        "\n\n",                                     # only empty lines
        "in-doc repeat\nin-doc repeat\nunique three",  # second dropped
        "unique to four\nshared line two",          # loses line 1
        "shared line one",                          # loses everything
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        paragraph_dedup_stats(
            ray.data.from_arrow(tbl), num_buckets=4, doc_buckets=2
        )
        .sort_by([("doc_id", "ascending")])
        .to_pydict()
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = (
        con.execute(
            entrymod.oracle_sql()["doc_paragraph_dedup"]
            + " ORDER BY docs.doc_id"
        )
        .fetch_arrow_table()
        .to_pydict()
    )
    assert got == want
    # semantic spot checks
    assert got["n_kept"][1] == 1          # doc 1 keeps only its unique line
    assert got["n_kept"][6] == 0          # doc 6 fully deduplicated
    assert got["n_lines"][3] == 0 and got["n_kept"][3] == 0
    assert got["n_kept"][4] == 2          # in-doc repeat dropped once


def test_budget_plan_apportionment_invariants(ray_session):
    """Hamilton apportionment over the sf0.001 crawl: budgets are
    non-negative ints summing EXACTLY to 100k, monotone in weight up
    to the ±1 remainder step."""
    import __ray_entry__ as entrymod

    t = entrymod.queries()["crawl_budget_plan"]("/root/testdata/sf0.001")
    budgets = t["budget"].to_pylist()
    weights = t["weight"].to_pylist()
    assert sum(budgets) == 100_000
    assert min(budgets) >= 0
    pairs = sorted(zip(weights, budgets))
    for (w1, b1), (w2, b2) in zip(pairs, pairs[1:]):
        if w1 == w2:
            assert abs(b1 - b2) <= 1   # only the remainder step differs
        else:
            assert b1 <= b2 + 1


def test_knn_sq8_partition_invariant_and_degenerate_ties(ray_session):
    """SQ8 must return identical rows under different blockings —
    including a degenerate grid with duplicated vectors (the
    tie-stability rule: argpartition-style cuts drop arbitrary tied
    candidates; SQ8 quantization makes near-ties EXACT ties)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from crawler_ai_ray.stages.simsearch import knn_sq8

    rng = np.random.default_rng(11)
    base = rng.normal(size=(40, 8))
    # duplicate block: ids 100..119 all share one vector (exact ties)
    dup = np.tile(rng.normal(size=(1, 8)), (20, 1))
    mat = np.concatenate([base, dup])
    ids = np.concatenate(
        [np.arange(40), np.arange(100, 120)]
    ).astype(np.int64)
    emb = pa.array(list(mat), pa.list_(pa.float64()))
    tbl = pa.table({"vec_id": pa.array(ids, pa.int64()), "embedding": emb})
    qids = ids[ids % 7 == 0]
    qmat = mat[np.isin(ids, qids)]

    def run(blocks):
        parts = [
            tbl.slice(i, blocks) for i in range(0, tbl.num_rows, blocks)
        ]
        ds = ray.data.from_arrow(parts)
        out = knn_sq8(ds, qmat, qids, k=5, shortlist=12)
        t = pa.concat_tables(
            [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        )
        return sorted(
            zip(*[t[c].to_pylist() for c in
                  ("query_id", "vec_id", "rank", "sim_micros", "sq_score")])
        )

    a = run(60)   # single block
    b = run(7)    # many ragged blocks
    assert a == b and len(a) == len(qids) * 5
    # ties resolved by ascending vec_id within equal scores
    by_q: dict[int, list] = {}
    for row in a:
        by_q.setdefault(row[0], []).append(row)
    for rows in by_q.values():
        rows.sort(key=lambda r: r[2])
        for r1, r2 in zip(rows, rows[1:]):
            if r1[3] == r2[3]:  # equal exact sim → id ascending
                assert r1[1] < r2[1]


def test_paragraph_dedup_fuzz_vs_duckdb(ray_session):
    """Random corpora drawn from a small line pool (heavy cross-doc
    duplication, empty lines, repeated docs) — engine vs the inline
    SQL oracle on every column including the rebuilt-text md5."""
    import random

    import duckdb
    import pyarrow as pa
    import ray

    import __ray_entry__ as entrymod
    from crawler_ai_ray.stages.dedup import paragraph_dedup_stats

    sql = entrymod.oracle_sql()["doc_paragraph_dedup"]
    pool = [
        "alpha beta", "gamma", "", "alpha beta", "delta epsilon zeta",
        "eta", "theta iota", "kappa", "gamma", "lambda mu nu xi",
    ]
    rng = random.Random(42)
    for trial in range(4):
        texts = [
            "\n".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(5, 40))
        ]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        got = (
            paragraph_dedup_stats(
                ray.data.from_arrow(tbl), num_buckets=8, doc_buckets=4
            )
            .sort_by([("doc_id", "ascending")])
            .to_pydict()
        )
        con = duckdb.connect()
        con.register("documents", tbl)
        want = (
            con.execute(sql + " ORDER BY docs.doc_id")
            .fetch_arrow_table()
            .to_pydict()
        )
        assert got == want, f"trial {trial}"


def test_late_arrivals_fuzz_vs_duckdb(ray_session):
    """Shuffled event-time vs arrival order: the two-phase prefix-max
    scan must equal the sequential window definition exactly,
    including boundary lateness values."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import __ray_entry__ as entrymod

    rng = np.random.default_rng(5)
    n = 500
    # event_ids with gaps; ts heavily out of order incl. exact-boundary
    # values (multiples of the 600s lateness)
    eids = np.sort(rng.choice(np.arange(1, 5000), size=n, replace=False))
    base = np.int64(1_700_000_000_000_000)
    ts = base + rng.integers(0, 50, size=n) * 600_000_000 \
        + rng.integers(0, 3, size=n) * 300_000_000
    tbl = pa.table(
        {
            "event_id": pa.array(eids, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    import os
    import tempfile

    import pyarrow.parquet as pq_

    from crawler_ai_ray.pipelines.relational import events_late_arrivals

    with tempfile.TemporaryDirectory() as td:
        pq_.write_table(tbl, os.path.join(td, "events.parquet"),
                        row_group_size=64)
        out = events_late_arrivals(td, num_buckets=8)
        import ray

        t = pa.concat_tables(
            [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        ).sort_by([("event_id", "ascending")])
        got = t.to_pydict()
    con = duckdb.connect()
    con.register("events", tbl)
    sql = entrymod.oracle_sql()["events_late_arrivals"]
    want = (
        con.execute(sql + " ORDER BY event_id")
        .fetch_arrow_table()
        .to_pydict()
    )
    assert got == want
    assert any(got["late"])  # fuzz actually produced late events


def test_late_arrivals_statsless_reordered_parquet(ray_session, tmp_path):
    """events.parquet with ``ts`` as the first column, once with and
    once without row-group statistics: the id column is found by name
    (its max from the footer, or from one read when statistics are
    missing), so each run equals the normal one and the range buckets
    stay within ``num_buckets``."""
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray

    from crawler_ai_ray.pipelines.relational import (
        _event_id_span,
        events_late_arrivals,
    )

    sf = SF
    tbl = pq_.read_table(f"{sf}/events.parquet")
    cols = ["ts"] + [c for c in tbl.column_names if c != "ts"]

    def run(d):
        out = events_late_arrivals(d, num_buckets=32)
        return pa.concat_tables(
            [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        ).sort_by([("event_id", "ascending")])

    want = run(sf)
    span = _event_id_span(f"{sf}/events.parquet", 32)
    assert pa.compute.max(tbl["event_id"]).as_py() // span < 32
    for stats in (False, True):
        d = tmp_path / f"stats_{stats}"
        d.mkdir()
        pq_.write_table(
            tbl.select(cols), d / "events.parquet",
            write_statistics=stats, row_group_size=256,
        )
        meta = pq_.ParquetFile(d / "events.parquet").metadata
        assert meta.num_row_groups > 1
        assert (meta.row_group(0).column(0).statistics is None) != stats
        assert _event_id_span(str(d / "events.parquet"), 32) == span
        assert run(str(d)).equals(want)
