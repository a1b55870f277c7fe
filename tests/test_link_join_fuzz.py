"""Differential fuzz of the anchor join against its stdlib reference
(``oracle/classify_oracle.py::join_anchors``).

``stages/extract.py::_join_anchors`` resolves root-relative and absolute
``http(s)://`` hrefs without ``urljoin`` when the href and the page
URL's origin both fit a strict grammar, and sends everything else to
``urljoin``.
It must return exactly what ``urljoin`` returns, and raise where it
raises: on (base, href) pairs built from dot segments, ``//``, ``;``,
empty ``?``/``#``, uppercase schemes, ports and userinfo, C0 characters,
space, tab, CR and LF, ``\\``, brackets (the invalid-IPv6 forms make
``urlsplit`` raise) and non-ASCII; and on every anchor of the unit,
sf0.001 and benchmark (sf0.01) corpora.
"""

from __future__ import annotations

import os
import random
from types import SimpleNamespace

import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from crawler_ai_ray.functions import htmltext
from crawler_ai_ray.oracle import classify_oracle as ref
from crawler_ai_ray.stages import extract

_SCHEMES = [
    "https://", "http://", "HTTPS://", "Http://", "ftp://", "mailto:",
    "javascript:", "//", "/", "", "https:", "https:///",
]
_USERINFO = ["", "", "u:p@", "@", "user@"]
_HOSTS = ["h.vn", "acme.com", "", "[::1]", "[::1", "x]", "é.vn", "H.VN", "a b"]
_PORTS = ["", "", ":80", ":", ":x", ":99999"]
_SEGMENTS = [
    "a", "jobs", ".", "..", "", "b;p", "a\\b", "%20", "x.html", "~u", "é",
    "a:b", "[x]", "q=1",
]
_QUERIES = ["", "", "?", "?a=1", "??", "?#", "?a=/../b", "?x;y"]
_FRAGMENTS = ["", "", "#", "#x", "#?", "##", "#/./"]
_NOISE = [
    "", "", "", " ", "\t", "\r", "\n", "\x00", "\x1f", "\x7f", "\\", "[",
    "]", ";", "é", "　", "℀",
]


def _url(pick) -> str:
    path = "/".join(pick(_SEGMENTS) for _ in range(pick(range(4))))
    url = (
        pick(_SCHEMES) + pick(_USERINFO) + pick(_HOSTS) + pick(_PORTS)
        + ("/" if path and pick((True, False)) else "") + path
        + pick(_QUERIES) + pick(_FRAGMENTS)
    )
    at = pick(range(len(url) + 1))
    return url[:at] + pick(_NOISE) + url[at:]


def _joined(fn, hrefs: list[str], base: str):
    facts = SimpleNamespace(anchors=[(h, "") for h in hrefs])
    try:
        return fn(facts, base)
    except ValueError as e:
        return ("ValueError", str(e))


def _assert_join_matches(hrefs: list[str], base: str) -> None:
    got = _joined(extract._join_anchors, hrefs, base)
    want = _joined(ref.join_anchors, hrefs, base)
    assert got == want, (base, hrefs, got, want)


@settings(max_examples=3000, deadline=None)
@given(st.data())
def test_join_matches_urljoin(data):
    def pick(xs):
        return data.draw(st.sampled_from(list(xs)))

    base = _url(pick)
    hrefs = [_url(pick) for _ in range(pick(range(1, 4)))]
    _assert_join_matches(hrefs + hrefs[:1], base)


def test_join_matches_urljoin_random_pairs():
    """Seeded random pairs, most inside the fast grammar: printable
    ASCII hrefs with dot segments, ``//``, ``?`` and ``#`` runs, against
    page URLs whose path may hold any character."""
    rng = random.Random(11)
    body = [chr(c) for c in range(0x20, 0x7F)] + ["/", "/./", "/../", "//", "?", "#"]
    tail = [chr(c) for c in range(0x80)] + ["é", "／", "　", "[::1"]
    fast = 0
    for _ in range(30_000):
        base = rng.choice(["https://", "http://"]) + "".join(
            rng.choice(body) for _ in range(rng.randrange(9))
        ) + "".join(rng.choice(tail) for _ in range(rng.randrange(4)))
        href = rng.choice(["/", "https://", "http://", "/a", ""]) + "".join(
            rng.choice(body) for _ in range(rng.randrange(9))
        )
        m = extract._PLAIN_ORIGIN.match(base)
        fast += extract._resolve_plain(m and m.group(), href) is not None
        _assert_join_matches([href], base)
    assert fast > 5_000


def test_join_edges():
    bases = [
        "https://h.vn/a/b?q=1#f", "http://u:p@h.vn:8080/x/", "https://h.vn",
        "HTTPS://h.vn/a", "https://h.vn/a/../b", "https://h.vn/a?", "https:///a",
        "https://[::1]/a", "https://[::1/a", "https://h.vn/é", " https://h.vn/",
        "https://h.vn/a;p", "ftp://h.vn/a", "", "https://h.vn\t/a",
        "https://h.vn/\ta", "https://h.vn:80", "https://h.vn?q", "https://h.vn#f",
        "https://h.vn／a", "https://u@h.vn:1/a b", "https://h.vn/a\x00",
    ]
    hrefs = [
        "/", "/x", "/x/", "/a//b", "/./x", "/x/.", "/x/..", "/..", "//h2.vn/x",
        "/x?", "/x#", "/x?#", "/x??a", "/x#?", "/x?a#b", "/x;p", "/a\\b", " /x",
        "/x ", "\t/x", "/x\n", "/x\r", "/\x00x", "/é", "/[x]", "https://h2.vn",
        "https://h2.vn?q", "https://h2.vn/x/../y", "https:///x", "https://?q",
        "https://#f", "HTTPS://h2.vn/x", "http://h2.vn/x", "https://u@h2.vn:1/x",
        "https://h2.vn:/x", "https://h2.vn:x/x", "https://[::1/x", "https://x]/",
        "https://[::1]/x", "https://h2.vn/x?", "x", "./x", "../x", "?q", "#f",
        "mailto:a@h.vn", "javascript:void(0)", "https:x", "https:/x",
    ]
    for base in bases:
        for href in hrefs:
            _assert_join_matches([href], base)
        _assert_join_matches(hrefs, base)


def test_join_on_corpora(unit_corpus):
    """Every anchor of the unit, sf0.001 and benchmark (sf0.01) corpora;
    most of them take the fast path."""
    from crawler_ai_ray.sources.synth import ensure_corpus

    n = fast = 0
    for corpus in (unit_corpus, ensure_corpus("sf0.001"), ensure_corpus("sf0.01")):
        tbl = pq.read_table(os.path.join(corpus, "pages.parquet"), columns=["url", "html"])
        for url, html_b in zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()):
            facts = htmltext.parse_core(html_b.decode("utf-8", errors="ignore"))
            assert extract._join_anchors(facts, url) == ref.join_anchors(facts, url), url
            origin = extract._PLAIN_ORIGIN.match(url).group()
            for href, _t in facts.anchors:
                if href:
                    n += 1
                    fast += extract._resolve_plain(origin, href) is not None
    assert n > 10_000 and fast > 0.9 * n
