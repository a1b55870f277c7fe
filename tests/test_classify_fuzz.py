"""Differential fuzz of the per-link classifiers and the jobdetail text
finalize against their reference copies (``oracle/classify_oracle.py``).

The engine spells each keyword list as one compiled alternation, splits
URLs with ``urlsplit`` unless they carry ``;params``, drops the rules of
``is_job_url`` that can only return False, and collapses a window of the
raw text before the whole of it.  Each rewrite must return exactly what
the reference returns: on URLs built from the keyword tuples (mixed case,
``;params``, queries, fragments, newlines, other schemes, career
subdomains), on every link of the unit, sf0.001 and benchmark corpora,
and on raw texts at and around the 5 000-character cap with whitespace
runs across the window's edge."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from crawler_ai_ray.functions import classify, htmltext
from crawler_ai_ray.oracle import classify_oracle as ref

_KEYWORDS = sorted(
    set(
        classify._EXCLUDE_MENU_KEYWORDS
        + classify._NON_JOB_SUBSTRINGS
        + classify._CAREER_KEYWORDS
        + classify._NAV_KEYWORDS
        + classify._CONTENT_KEYWORDS
        + classify._JOBURL_SKIP
        + classify._JOBURL_SKIP_FILES
        + classify._JOB_URL_PATTERNS
        + classify._JOB_QUERY_PARAMS
        + ref._OBVIOUS_NON_JOB
        + ("career", "careers", "jobs", "index.html")
    )
)

_SEGMENT = st.one_of(
    st.sampled_from(_KEYWORDS),
    st.integers(0, 10**6).map(str),
    st.text(alphabet="abz-_.09/;?=#&%Đđệ\n ", max_size=8),
)

_CASE = st.sampled_from([str, str.upper, str.title, str.swapcase])


@st.composite
def _urls(draw) -> str:
    scheme = draw(st.sampled_from(
        ["http://", "https://", "HTTP://", "Https://", "ftp://", "mailto:",
         "javascript:", "//", "", "tel:"]
    ))
    sub = draw(st.sampled_from(("", "www.", "CAREERS.") + classify._CAREER_SUBDOMAINS))
    host = draw(st.sampled_from(["example.com", "acme.vn", "jobs-x.io", ""]))
    segs = draw(st.lists(_SEGMENT, max_size=5))
    path = "/".join(draw(_CASE)(s) for s in segs)
    tail = draw(st.sampled_from(["", "/", "/123", "/a1", "/2024/"]))
    params = draw(st.sampled_from(["", ";jsessionid=9", ";a=b/c", ";"]))
    query = draw(st.sampled_from(["", "?", "?id=3", "?Q=x", "?page=2&job=1", "?a=/b/"]))
    frag = draw(st.sampled_from(["", "#", "#top", "#/jobs/1"]))
    url = scheme + sub + host + ("/" if path else "") + path + tail + params + query + frag
    noise = draw(st.sampled_from(["", "\n", "\t", " ", "\r\n"]))
    at = draw(st.integers(0, len(url)))
    return url[:at] + noise + url[at:]


def _assert_link_classifiers_match(url: str, host: str) -> None:
    assert classify.is_job_url(url) == ref.is_job_url(url), url
    assert classify.priority_for_link(url) == ref.priority_for_link(url), url
    assert classify.is_valid_link(url, host) == ref.is_valid_link(url, host), (url, host)
    for s in (url, url.lower()):
        assert classify._should_exclude_url(s) == ref._should_exclude_url(s), s


@settings(max_examples=2000, deadline=None)
@given(_urls(), st.sampled_from(["example.com", "acme.vn", "careers.example.com", ""]))
def test_link_classifiers_match_reference(url, host):
    _assert_link_classifiers_match(url, host)


def test_link_classifiers_on_keywords():
    """Every keyword alone, as a path segment, at the end, and uppercased,
    under both schemes and a career subdomain."""
    for kw in _KEYWORDS:
        for url in (
            kw, f"/{kw}", f"https://example.com/{kw}", f"http://example.com/x/{kw}/",
            f"https://jobs.example.com/{kw}?id=1", f"HTTPS://EXAMPLE.COM/{kw.upper()}",
            f"https://example.com/a;{kw}", f"https://example.com/p/{kw}\n/7",
        ):
            _assert_link_classifiers_match(url, "example.com")


def test_link_classifiers_on_corpora(unit_corpus):
    """Every page URL, raw href and joined link of the unit, sf0.001 and
    benchmark (sf0.01) corpora."""
    from crawler_ai_ray.sources.synth import ensure_corpus
    from crawler_ai_ray.stages.extract import _join_anchors

    n = 0
    for corpus in (unit_corpus, ensure_corpus("sf0.001"), ensure_corpus("sf0.01")):
        tbl = pq.read_table(os.path.join(corpus, "pages.parquet"), columns=["url", "html"])
        for url, html_b in zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()):
            facts = htmltext.parse_core(html_b.decode("utf-8", errors="ignore"))
            host = classify.host_of(url)
            links = {url}
            links.update(h for h, _ in facts.anchors if h)
            links.update(u for u in _join_anchors(facts, url) if u)
            for link in links:
                _assert_link_classifiers_match(link, host)
                n += 1
            raw = "".join(facts.text_pieces)
            assert htmltext.finalize_jobdetail_text(raw) == ref.finalize_jobdetail_text(raw)
    assert n > 10_000


_WORDS = st.sampled_from(["a", "word", "Việc-làm", "x" * 40, "é", "0"])
_RUNS = st.sampled_from(
    [" ", "  ", "\n\t ", " ", "　  ", "\x1c", " " * 700, "\n" * 2000]
)


@st.composite
def _raw_texts(draw) -> str:
    cap, window = htmltext._TEXT_CAP, htmltext._TEXT_WINDOW
    target = draw(st.sampled_from(
        [0, 50, 51, 60, cap - 1, cap, cap + 1, window - 1, window, window + 1,
         window + 700, 2 * window]
    ))
    unit = "".join(w + r for w, r in draw(st.lists(st.tuples(_WORDS, _RUNS), min_size=1, max_size=4)))
    text = (unit * (target // len(unit) + 1))[:target]
    run = draw(_RUNS)
    # a whitespace run or a long word across the window's edge
    at = draw(st.integers(max(0, window - 800), window + 50))
    splice = draw(st.sampled_from([run, "y" * 120, ""]))
    lead = draw(st.sampled_from(["", " ", run]))
    return lead + text[:at] + splice + text[at:]


@settings(max_examples=1000, deadline=None)
@given(_raw_texts())
def test_finalize_matches_reference(raw):
    assert htmltext.finalize_jobdetail_text(raw) == ref.finalize_jobdetail_text(raw)


def test_finalize_at_window_edge():
    """A space or a long whitespace run at every offset around the
    window's edge, in text that collapses to just above and just below
    the cap."""
    window = htmltext._TEXT_WINDOW
    for body in ("ab " * 2000, "abcd" * 1500, "a " * 3000, "a  " * 2200):
        for at in range(window - 8, window + 8):
            for run in (" ", "\t\n", " " * 600):
                raw = body[:at] + run + body[at:]
                assert htmltext.finalize_jobdetail_text(raw) == ref.finalize_jobdetail_text(raw)
