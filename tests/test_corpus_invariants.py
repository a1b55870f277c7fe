"""Corpus-level invariants the oracle conventions depend on.

The SQL oracles tokenize with RE2 ``\\S+`` (whitespace = ``[\\t\\n\\f\\r ]``
only) while the Python sides use ``str.split()`` (full Unicode whitespace).
The two conventions agree exactly iff the corpus contains no character that
is Python-whitespace but not RE2-whitespace (U+00A0, U+2028, U+3000, ``\\v``,
``\\x1c``–``\\x1f``, U+0085, …).  This test pins that invariant for every
text column the oracles read — see the convention note at
``stages/dedup.py::_doc_ngrams``.  A corpus change that introduces such a
character must bump ``CORPUS_VERSION`` and normalize the tokenizers.
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq

# Characters where Python str.split() and RE2 \S+ disagree: Python
# whitespace minus RE2's [\t\n\f\r ].
_RE2_WS = set("\t\n\f\r ")
_DIVERGENT = {
    chr(cp)
    for cp in range(sys.maxunicode + 1)
    if chr(cp).isspace() and chr(cp) not in _RE2_WS
}
# str.split() also splits on these non-isspace() control chars? No —
# str.split() uses str.isspace(); \x1c-\x1f ARE isspace() in Python.
assert "\x1c" in _DIVERGENT and "\x0b" in _DIVERGENT


def _scan_strings(path: str, columns: list[str]) -> int:
    """Return the number of divergent-whitespace characters found."""
    tbl = pq.read_table(path, columns=columns)
    bad = 0
    for col in columns:
        for chunk in tbl[col].chunks:
            for v in chunk.to_pylist():
                if v and any(c in _DIVERGENT for c in v):
                    bad += 1
    return bad


def test_no_divergent_whitespace_testdata():
    sf_dir = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    docs = os.path.join(sf_dir, "documents.parquet")
    assert _scan_strings(docs, ["text"]) == 0


def test_no_divergent_whitespace_synth(unit_corpus):
    # html is the raw page source every extracted-text golden derives from
    import pyarrow as pa

    pages = os.path.join(unit_corpus, "pages.parquet")
    schema = pq.read_schema(pages)
    str_cols = [f.name for f in schema if pa.types.is_string(f.type)]
    assert _scan_strings(pages, str_cols) == 0


def test_warc_ts_whole_seconds():
    """The WARC writer serializes WARC-Date at second resolution
    (constant-length ISO) and read_warc reconstructs ts_ms as
    seconds·1000, so the archive round-trip preserves warc_ts exactly
    only while every corpus timestamp is a whole second.  Pin it like
    the whitespace convention: a synth change to sub-second warc_ts
    must bump CORPUS_VERSION and extend the WARC-Date format."""
    import pyarrow.compute as pc

    from crawler_ai_ray.sources.synth import ensure_corpus

    pages = os.path.join(ensure_corpus("unit"), "pages.parquet")
    ts = pq.read_table(pages, columns=["warc_ts"])["warc_ts"]
    import numpy as np

    ms = pc.cast(pc.cast(ts, "timestamp[ms]"), "int64").to_numpy()
    assert int(np.max(ms % 1000)) == 0


def test_derived_cache_dirs_keyed_by_corpus_version():
    """The WARC archives and crawl/recrawl checkpoints under /tmp are
    resumed from whatever is on disk, so their directory names carry
    CORPUS_VERSION: a version bump must never reuse them."""
    import __ray_entry__ as entry
    from crawler_ai_ray.sources.synth import CORPUS_VERSION, corpus_dir

    corpus = corpus_dir("sf0.01")
    root, tag = os.path.split(corpus)
    assert os.path.basename(root) == CORPUS_VERSION
    other = os.path.join(os.path.dirname(root), "v27", tag)
    for kind in ("warc", "warcdd", "crawl", "recrawl"):
        a = entry._q_dir(kind, corpus)
        b = entry._q_dir(kind, other)
        assert a != b and tag in a and CORPUS_VERSION in a and "v27" in b
    assert entry._q_dir("warc", corpus) != entry._q_dir("warcdd", corpus)


def test_derived_cache_dirs_keyed_by_engine_sources(tmp_path, monkeypatch):
    """The same cached directories carry a digest of the engine's
    ``*.py`` sources: a sweep after an engine change must not check
    checkpoints an older tree wrote."""
    import __ray_entry__ as entry
    from crawler_ai_ray.sources.synth import corpus_dir

    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "sub" / "b.py").write_text("y = 2\n")
    digest = entry._src_digest.__wrapped__
    before = digest(str(pkg))
    (pkg / "notes.txt").write_text("not a source\n")
    assert digest(str(pkg)) == before
    (pkg / "sub" / "b.py").write_text("y = 3\n")
    after = digest(str(pkg))
    assert after != before

    corpus = corpus_dir("sf0.01")
    dirs = []
    for d in (before, after):
        monkeypatch.setattr(entry, "_src_digest", lambda _pkg, d=d: d)
        dirs.append(entry._q_dir("crawl", corpus))
    assert dirs[0] != dirs[1] and dirs[0].endswith(before)
