"""Property fuzz for the byte-identical invariant (input_hint): the
engine's streaming extractor must equal the independent tree-building
oracle byte-for-byte on arbitrary messy HTML — malformed nesting,
entities, NBSP/zero-width whitespace, decomposed-tag boundaries.

The same tag soup drives the parser differential: the core pass's
``title`` / ``text_pieces`` / ``all_pieces`` / ``anchors`` and every
``PageFacts`` slot of the full pass must equal the reference parser copy
(``oracle/facts_oracle.py``), here and on every page of the unit and
sf0.001 corpora.

The tokenizer differential: both passes tokenize with
``_CoreParser.scan``, which must make exactly the handler calls of
``HTMLParser.feed(html); close()`` whenever it accepts a page, on the
tag soup extended with the edges of its grammar and on every page of the
unit, sf0.001 and benchmark corpora, none of which may fall back."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from crawler_ai_ray.functions.htmltext import (
    _CoreParser,
    extract_text_crawldata,
    extract_text_jobdetail,
    facts_crawldata_text,
    facts_jobdetail_text,
    parse_core,
    parse_page,
)
from crawler_ai_ray.oracle import facts_oracle
from crawler_ai_ray.oracle.extract_oracle import (
    oracle_text_crawldata,
    oracle_text_jobdetail,
)

_TAGS = [
    "div", "p", "span", "h1", "h2", "li", "table", "tr", "td", "a",
    "strong", "em", "section", "article", "main", "button", "title",
    # decomposed by the jobdetail path:
    "script", "style", "nav", "header", "footer", "aside", "noscript",
]

_ATTRS = [
    "", ' class="x y"', ' style="display:none"', ' href="/a"', ' id="main"',
    ' href="/a" href="/b"',  # duplicate: the last one wins
    " href=x/", ' href="/s"/', " href", ' class="content hidden"',
    ' class="description"', ' aria-hidden="true"', ' data-job="j"',
    ' type="application/ld+json"',
]

_TEXT_BITS = st.sampled_from(
    [
        "hello", "Việc làm", "a  b", "\u00a0nbsp\u00a0", "\u200bzw",
        "x&amp;y", "&lt;tag&gt;", "5 > 3", "tab\there", "line\nbreak",
        " lead", "trail ", "&#65;", "…", "", "Ứng tuyển ngay",
        # stray end tags and void elements
        "</a>", "</div>", "</title>", "</p>", "</br>", "<br/>", "<img src=i>",
        '<meta name="description" content="d">',
    ]
)

# Fragments the random nesting rarely builds on its own.
_SOUP_PIECES = [
    # nested and unclosed anchors; one end tag closing two anchors
    '<a href="/1">one<a href="/2">two</a>',
    '<div><a href="/1">one<a href="/2">two</div>',
    '<p><a href="/1">one<span><a href="/2">two</p>',
    # duplicate href, self-closing and valueless anchors
    '<a href="/a" href="/b">dup</a>',
    "<a href=x/>slash</a>",
    '<a href="/s"/>sc',
    "<a href>bare</a>",
    # nested titles
    "<title>t1<title>t2</title>t3</title>",
    # '</' inside raw-text bodies
    '<script>if (a</b) s = "</a></div>";</script>',
    '<style>p:after{content:"</p>"}</style>',
    "<script>x</scrip</script>",
    # a table closed from outside its rows and cells
    "<table><tr><td>c1<td>c2</table>",
]


# The edges of the fast tokenizer's grammar: what it must accept exactly
# as the stdlib does, and what it must hand to the stdlib.
_GRAMMAR_EDGES = [
    '<DIV CLASS="x" ID=main>up</DIV>', "<A HREF=/a/b/>bare slash</a>",
    "<a href=/x/y>v</a>", "<br/>", "<br />", "<img src=i.png/>", "<a/b>",
    "</ div>", "</DIV >", "</a\n>", "<p a='1' b=\"2\" c=3 d>q</p>",
    '<a href="x&amp;y" title=\'&lt;t&gt;\' rel=&quot;>e</a>',
    '<a x = "1"\ny=2\t z>ws</a>', '<a x="">empty</a>', "<a x=a=b>eq</a>",
    "<a x=`b`>tick</a>", "<a x='a\"b'>q</a>",
    '<script>if (a < b) { s = "</div>"; }</script>',
    "<SCRIPT type=x>a<b</ScRiPt >", "<style>p{}</ style>",
    "<script/>after", "<script>never closed", "<style>a</style x>b</style>",
    "<script>x</\u017fcript>y</script>",
    "<!---->", "<!-- c -- >", "<!-- a --!> b -->", "<!--->x-->", "<!-- open",
    "<![CDATA[x]]>", "<!DOCTYPE>", "<!doctype html>", "<!DocType x>",
    "<!ELEMENT x>", "<?xml?>", '<?xml version="1.0"?>', "<?pi",
    "a < b", "x <", "<", "1 <3", "</>", "</ >", "<a", "<a href='x",
    "tail &amp", "tail &", "&amp;", "x &#65", "&#x41;&#65;",
    "<a\vhref=x>vt</a>", "<a\xa0href=x>nbsp</a>", "<a href=x\xa0>nb</a>",
    "<a href=x\x0b>v</a>", "<p\x00>nul</p>", "<a-b>dash</a-b>",
    "<a:b x:y=1>ns</a:b>", "<h1 data-job=j aria-hidden=true>h</h1>",
]


@st.composite
def _html(draw, depth=0, pieces=_SOUP_PIECES):
    n = draw(st.integers(0, 4 if depth < 3 else 0))
    parts = [draw(_TEXT_BITS)]
    for _ in range(n):
        choice = draw(st.integers(0, 5)) if depth < 3 else 0
        if choice >= 3:
            tag = draw(st.sampled_from(_TAGS))
            attrs = draw(st.sampled_from(_ATTRS))
            inner = draw(_html(depth=depth + 1, pieces=pieces))
            closed = draw(st.booleans())
            parts.append(
                f"<{tag}{attrs}>{inner}" + (f"</{tag}>" if closed else "")
            )
        elif choice == 2:
            parts.append(draw(st.sampled_from(pieces)))
        else:
            parts.append(draw(_TEXT_BITS))
    return "".join(parts)


def _assert_core_and_full_match_reference(html: str) -> None:
    want = facts_oracle.parse_page(html)
    core = parse_core(html)
    for slot in ("title", "text_pieces", "all_pieces", "anchors"):
        assert getattr(core, slot) == getattr(want, slot), (slot, html)
    full = parse_page(html)
    for slot in facts_oracle.PageFacts.__slots__:
        assert getattr(full, slot) == getattr(want, slot), (slot, html)


@settings(max_examples=300, deadline=None)
@given(_html())
def test_jobdetail_text_byte_identical(html):
    want = oracle_text_jobdetail(html)
    assert extract_text_jobdetail(html) == want
    assert facts_jobdetail_text(parse_core(html)) == want


@settings(max_examples=300, deadline=None)
@given(_html())
def test_crawldata_text_byte_identical(html):
    want = oracle_text_crawldata(html)
    assert extract_text_crawldata(html) == want
    assert facts_crawldata_text(parse_core(html)) == want


@settings(max_examples=500, deadline=None)
@given(_html())
def test_parsers_match_reference_on_tag_soup(html):
    _assert_core_and_full_match_reference(html)


def test_parsers_match_reference_on_soup_pieces():
    for piece in _SOUP_PIECES:
        for html in (piece, f"<div class=main>{piece}</div>x", piece * 2):
            _assert_core_and_full_match_reference(html)
    # pinned: creation order on a shared close, last duplicate href
    facts = parse_core('<div><a href="/1">one<a href="/2">two</div>')
    assert facts.anchors == [("/1", "onetwo"), ("/2", "two")]
    assert parse_core('<a href="/a" href="/b">d</a>').anchors == [("/b", "d")]


def test_parsers_match_reference_on_corpora(unit_corpus):
    from crawler_ai_ray.sources.synth import ensure_corpus

    for corpus in (unit_corpus, ensure_corpus("sf0.001")):
        pages = pq.read_table(
            os.path.join(corpus, "pages.parquet"), columns=["html"]
        ).column("html").to_pylist()
        assert pages
        for html in pages:
            _assert_core_and_full_match_reference(
                html.decode("utf-8", errors="ignore")
            )


class _Recorder(_CoreParser):
    """Logs every handler call instead of handling it."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def handle_starttag(self, tag, attrs):
        self.calls.append(("start", tag, attrs))

    def handle_startendtag(self, tag, attrs):
        self.calls.append(("startend", tag, attrs))

    def handle_endtag(self, tag):
        self.calls.append(("end", tag))

    def handle_data(self, data):
        self.calls.append(("data", data))

    def handle_comment(self, data):
        self.calls.append(("comment", data))

    def handle_decl(self, decl):
        self.calls.append(("decl", decl))

    def handle_pi(self, data):
        self.calls.append(("pi", data))

    def unknown_decl(self, data):
        self.calls.append(("unknown_decl", data))


def _scan_matches_stdlib(html: str) -> bool:
    """Whether ``scan`` accepts ``html``; when it does, its handler
    calls must be the stdlib's."""
    fast = _Recorder()
    accepted = fast.scan(html)
    if accepted:
        ref = _Recorder()
        ref.feed(html)
        ref.close()
        assert fast.calls == ref.calls, html
    return accepted


@settings(max_examples=500, deadline=None)
@given(_html(pieces=_SOUP_PIECES + _GRAMMAR_EDGES))
def test_scan_matches_stdlib_on_tag_soup(html):
    _scan_matches_stdlib(html)
    _assert_core_and_full_match_reference(html)


def test_scan_on_grammar_edges():
    for piece in _GRAMMAR_EDGES:
        for html in (piece, f"<div class=main>{piece}</div>x", piece * 2):
            _scan_matches_stdlib(html)
            _assert_core_and_full_match_reference(html)
    # pinned: what the grammar takes and what goes to the stdlib
    for html in ("<br/>", "</ div>", "<!---->", "<!DOCTYPE>", "<?xml?>",
                 "<A HREF=/a/b/>x</a>", "<!-- a --!> b -->", "tail &"):
        assert _scan_matches_stdlib(html), html
    for html in ("<a/b>", "<![CDATA[x]]>", "a < b", "x <", "<script>open",
                 "<a\vhref=x>", "<a\xa0href=x>", "<a href=x\xa0>",
                 "<script>x</\u017fcript>y</script>"):
        assert not _scan_matches_stdlib(html), html


def test_scan_covers_corpora(unit_corpus):
    """Every page of the unit, sf0.001 and benchmark corpora (sf0.01:
    ``perfbench``'s 120-host, seed-42 fixture) takes the fast path and
    makes the stdlib's calls, so a synth change cannot quietly move
    pages onto the stdlib tokenizer."""
    from crawler_ai_ray.sources.synth import ensure_corpus

    for corpus in (unit_corpus, ensure_corpus("sf0.001"), ensure_corpus("sf0.01")):
        pages = pq.read_table(
            os.path.join(corpus, "pages.parquet"), columns=["html"]
        ).column("html").to_pylist()
        assert pages
        fallbacks = [
            i for i, h in enumerate(pages)
            if not _scan_matches_stdlib(h.decode("utf-8", errors="ignore"))
        ]
        assert fallbacks == [], (corpus, fallbacks[:5])


def test_zipf_fit_exact_law_and_edges(ray_session):
    """zipf_fit recovers slope ≈ −1e6 (micros) on a synthetic corpus
    whose term frequencies follow 600/r exactly, and the degenerate
    one-term corpus returns the documented edge row."""
    import math

    import pyarrow as pa
    import ray.data

    from crawler_ai_ray.stages.textstats import zipf_fit

    # tokenization is [a-z]+ — term names must be purely alphabetic
    terms = [
        "".join(chr(ord("a") + (i // 26)) + chr(ord("a") + (i % 26)))
        for i in range(20)
    ]
    words = []
    for r, t in enumerate(terms, start=1):
        words.extend([t] * (600 // r))
    # split the stream across several docs/blocks
    docs = [" ".join(words[i::7]) for i in range(7)]
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    out = zipf_fit(ray.data.from_arrow(tbl).repartition(3), k=100)
    assert out["n_terms"].to_pylist() == [20]
    slope = out["slope_micro"].to_pylist()[0]
    assert -1_050_000 < slope < -950_000  # ≈ −1 in micros
    icpt = out["intercept_micro"].to_pylist()[0]
    assert abs(icpt - math.floor(math.log(600) * 1e6 + 0.5)) < 60_000
    one = zipf_fit(
        ray.data.from_arrow(
            pa.table({"text": pa.array(["solo solo solo"], pa.string())})
        ),
        k=100,
    )
    assert one["n_terms"].to_pylist() == [1]
    assert one["slope_micro"].to_pylist() == [0]
