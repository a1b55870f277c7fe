"""Single-pass HTML parsing and the canonical text-extraction semantics.

The reference extracts per-page text with BeautifulSoup(``html.parser``):

* **jobdetail text** (the byte-identical invariant column, reference
  ``app/services/job_extraction_service.py:1722-1737``)::

      soup = BeautifulSoup(html, 'html.parser')
      for el in soup(['script','style','nav','header','footer','aside','noscript']):
          el.decompose()
      text = soup.get_text()
      text = re.sub(r'\\s+', ' ', text).strip()
      text = text[:5000] if len(text) > 50 else ''

* **crawldata text** (``app/api/routes.py:205``)::

      soup.get_text(separator=' ', strip=True)        # no decompose

``beautifulsoup4`` is not installed in this environment, so this module
pins those semantics on the stdlib :class:`html.parser.HTMLParser`
(``convert_charrefs=True``, i.e. entity references are decoded in text,
matching bs4's html.parser builder).  Pinned spec (documented deviations
from bs4, none exercised by the synthetic corpus): comments / doctypes /
processing instructions contribute no text; ``<script>``/``<style>``
bodies are raw CDATA text nodes; malformed markup follows HTMLParser's
recovery rather than bs4's.

Two passes share one :class:`html.parser.HTMLParser` subclass chain:

* **core** (:func:`parse_core`, :class:`CoreFacts`) — the open-tag
  stack with its end-tag recovery rule (an end tag closes the innermost
  open element of its name and everything opened inside it; an
  unmatched end tag is ignored), the decomposed-subtree gate, and the
  ``title`` and ``anchors`` captures.  It is all the crawl reads.
* **full** (:func:`parse_page`, :class:`PageFacts`) — the core plus the
  headings, lists, tables, meta, scripts, paragraphs, selector and
  hidden-text captures the job and page-structure consumers read.

A capture records the stack position of its element and the index of
its first text node; it finishes when an end tag pops that position,
and its text is every text node since.  Open captures therefore sit in
position order, the ones one end tag ends are a tail of that list, and
they finish in creation order.  The parser's line/offset bookkeeping
(``getpos``) is switched off: nothing reads it.

Both passes tokenize with :meth:`_CoreParser.scan`, one compiled
pattern over a strict subset of HTML that makes the same handler calls
as ``HTMLParser.feed(html); close()``.  A page with anything outside
that subset is parsed again from the start by a fresh parser through
``feed``/``close``: the stdlib tokenizer stays the definition.

The independent oracle implementation lives in
:mod:`crawler_ai_ray.oracle.extract_oracle` (a DOM-tree builder +
recursive walker — deliberately different code); tests assert byte
equality between the two over the whole synthetic corpus.  The parser
as it stood before the core/full split is kept verbatim in
:mod:`crawler_ai_ray.oracle.facts_oracle`; both passes are checked
field by field against it.

Everything here is pure-Python and stateless; the Ray stage wrapping it
is ``crawler_ai_ray.stages.extract``.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser, endtagfind
from urllib.parse import urljoin, urlparse

__all__ = [
    "CoreFacts",
    "PageFacts",
    "parse_core",
    "parse_page",
    "extract_text_jobdetail",
    "extract_text_crawldata",
    "finalize_jobdetail_text",
    "pick_job_title",
    "extract_out_links",
    "collapse_ws",
]

# job_extraction_service.py:1726 — subtrees removed before get_text().
_DECOMPOSE_TAGS = frozenset(
    ["script", "style", "nav", "header", "footer", "aside", "noscript"]
)

# HTML void elements — never have content / close tags.
_VOID = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# crawler.py:394 — schemes skipped during out-link extraction.
_SKIP_HREF_PREFIXES = ("mailto:", "tel:", "skype:", "javascript:", "data:")

_HEADINGS = ("h1", "h2", "h3", "h4", "h5", "h6")

_HIDDEN_STYLE_RE = re.compile(r"display\s*:\s*none|visibility\s*:\s*hidden", re.I)

# ``_excl_at`` when no decomposed element is open (above any stack position)
_NO_EXCL = 1 << 62

# The grammar ``_CoreParser.scan`` accepts.  Inside a tag only ASCII
# whitespace separates; every other character the stdlib would read
# differently (a Unicode space, ``\v``, ``=`` or a quote in a bare
# value, ``<a/b>``) fails the match and sends the page to the stdlib.
_WS = r"[ \t\n\r\f]"
_ATTR = (
    _WS + r"++([a-zA-Z_:][-a-zA-Z0-9_:.]*+)"
    r"(?:(" + _WS + r"*+=" + _WS + r"*+)"
    r"""(?:"([^"]*+)"|'([^']*+)'|([^\s"'=<>`]++)))?"""
)
_ATTR_RE = re.compile(_ATTR)
_TOKEN_RE = re.compile(
    r"([^<]++)"                                          # 1 text run
    r"|(<([a-zA-Z][a-zA-Z0-9]*+)"                        # 2 start tag, 3 name
    # 4 attributes, their groups made non-capturing so 5.. stay fixed
    r"((?:" + re.sub(r"\((?!\?)", "(?:", _ATTR) + r")*+)"
    + _WS + r"*+(/?)>)"                                  # 5 self-closing slash
    r"|(" + endtagfind.pattern + ")"                      # 6 end tag, 7 name
    r"|(<!--(.*?)--\s*>)"                                # 8 comment, 9 body
    r"|(<!([dD][oO][cC][tT][yY][pP][eE][^>]*+)>)"        # 10 doctype, 11 decl
    r"|(<\?([^>]*+)>)",                                  # 12 pi, 13 body
    re.S,
)
# HTMLParser.set_cdata_mode: where a script/style body ends
_RAWTEXT_END = {
    t: re.compile(r"</\s*%s\s*>" % t, re.I) for t in HTMLParser.CDATA_CONTENT_ELEMENTS
}


class CoreFacts:
    """What the core pass learns about a page: the three fields the crawl
    reads, plus the text-node list their captures are sliced from."""

    __slots__ = (
        "text_pieces",      # text nodes outside decomposed subtrees (jobdetail)
        "all_pieces",       # every text node (crawldata text)
        "title",            # first <title> text
        "anchors",          # [(href, anchor_text)] as the anchors close
    )

    def __init__(self) -> None:
        self.text_pieces: list[str] = []
        self.all_pieces: list[str] = []
        self.title: str | None = None
        self.anchors: list[tuple[str, str]] = []


class PageFacts(CoreFacts):
    """Everything one full parse pass learns about a page."""

    __slots__ = (
        "meta_description", # <meta name="description" content=...>
        "meta_tags",        # {name/property: content} (M35)
        "headings",         # {"h1": [...], ..., "h6": [...]} subtree texts
        "list_items",       # <li> subtree texts (M26)
        "tables",           # [[row=[cell_text,...], ...], ...] (M24)
        "n_scripts", "n_styles", "n_images", "n_links",
        "script_bodies",    # raw <script> contents (M32 JS job data)
        "script_types",     # type= attr per script (parallel; M35 JSON-LD)
        "hidden_texts",     # texts of display:none/.hidden/aria-hidden (M33)
        "data_job_attrs",   # values of data-job attributes (M33)
        "meta_all",         # [(name, property, http-equiv, content)] (M35)
        "paragraphs",       # every <p> subtree text in doc order (M4)
        "p_classes",        # class attr string per <p> (parallel; M4)
        "p_anc_classes",    # ancestor class names per <p> (parallel; M4)
        "div_first",        # first div text per M4 class keyword
        "clickables",       # [(tag, href|None, text)] for a+button (doc order)
        "sel_pieces",       # first-match raw text pieces per selector key
    )

    #: selector keys captured into ``sel_pieces`` — M19 main-content
    #: cascade (job_extraction_service.py:1800-1813) + M20 fallbacks.
    SELECTOR_KEYS = (
        ("main", "tag", "main"),
        (".main", "class", "main"),
        ("#main", "id", "main"),
        (".content", "class", "content"),
        ("#content", "id", "content"),
        (".container", "class", "container"),
        (".wrapper", "class", "wrapper"),
        (".page-content", "class", "page-content"),
        (".post-content", "class", "post-content"),
        ("article", "tag", "article"),
        ("body", "tag", "body"),
    )

    def __init__(self) -> None:
        super().__init__()
        self.meta_description: str = ""
        self.meta_tags: dict[str, str] = {}
        self.headings: dict[str, list[str]] = {h: [] for h in _HEADINGS}
        self.list_items: list[str] = []
        self.tables: list[list[list[str]]] = []
        self.n_scripts = 0
        self.n_styles = 0
        self.n_images = 0
        self.n_links = 0
        self.script_bodies: list[str] = []
        self.script_types: list[str] = []
        self.hidden_texts: list[str] = []
        self.data_job_attrs: list[str] = []
        self.meta_all: list[tuple[str, str, str, str]] = []
        self.paragraphs: list[str] = []
        self.p_classes: list[str] = []
        self.p_anc_classes: list[str] = []
        self.div_first: dict[str, str] = {}
        self.clickables: list[tuple[str, str | None, str]] = []
        self.sel_pieces: dict[str, list[str]] = {}

    @property
    def h1(self) -> list[str]:
        return self.headings["h1"]

    @property
    def h2(self) -> list[str]:
        return self.headings["h2"]


class _Cap:
    """An open subtree-text capture (title, anchor, heading, li, cell…):
    ``pos`` is its element's stack position, ``start`` the index of its
    first text node in ``all_pieces``."""

    __slots__ = ("kind", "pos", "start", "extra")

    def __init__(self, kind: str, pos: int, start: int, extra=None) -> None:
        self.kind = kind
        self.pos = pos
        self.start = start
        self.extra = extra


class _CoreParser(HTMLParser):
    """The core pass: the open-tag stack and its end-tag recovery rule,
    the decomposed-subtree gate, and the title and anchor captures."""

    def __init__(self, facts: CoreFacts | None = None) -> None:
        super().__init__(convert_charrefs=True)
        self.facts = CoreFacts() if facts is None else facts
        self._open: list[str] = []      # open elements, outermost first
        self._excl_at = _NO_EXCL        # position of the outermost open decomposed element
        self._caps: list[_Cap] = []     # open captures, in creation order

    def updatepos(self, i: int, j: int) -> int:
        # skips the line/offset bookkeeping behind getpos(), unused here
        return j

    def scan(self, html: str) -> bool:
        """Make the handler calls ``feed(html); close()`` makes, if
        ``html`` is in the strict grammar: text runs; start tags with
        double-quoted, single-quoted or bare attribute values; a
        script/style body up to its closing tag; ``endtagfind`` end
        tags; ``<!--…-->`` comments, ``<!doctype…>`` and ``<?…>``.
        Returns False, partway through, on any other ``<``: the caller
        starts over on a fresh parser."""
        match = _TOKEN_RE.match
        data, start, end = self.handle_data, self.handle_starttag, self.handle_endtag
        pos, n = 0, len(html)
        while pos < n:
            m = match(html, pos)
            if m is None:
                return False
            pos = m.end()
            k = m.lastindex
            if k == 1:
                s = m.group(1)
                data(unescape(s) if "&" in s else s)
            elif k == 2:
                tag, a, slash = m.group(3, 4, 5)
                tag = tag.lower()
                attrs = []
                if a:
                    for name, eq, dq, sq, bare in _ATTR_RE.findall(a):
                        v = (dq or sq or bare) if eq else None
                        if v and "&" in v:
                            v = unescape(v)
                        attrs.append((name.lower(), v))
                if slash:
                    self.handle_startendtag(tag, attrs)
                    continue
                start(tag, attrs)
                rawtext = _RAWTEXT_END.get(tag)
                if rawtext is not None:
                    e = rawtext.search(html, pos)
                    if e is None:
                        return False
                    j = e.start()
                    if j > pos:
                        data(html[pos:j])
                    # the stdlib re-reads the close with endtagfind; a
                    # case-folded non-ASCII name (``</ſcript>``) differs
                    e = endtagfind.match(html, j)
                    if e is None or e.group(1).lower() != tag:
                        return False
                    end(tag)
                    pos = e.end()
            elif k == 6:
                end(m.group(7).lower())
            elif k == 8:
                self.handle_comment(m.group(9))
            elif k == 10:
                self.handle_decl(m.group(11))
            else:
                self.handle_pi(m.group(13))
        return True

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _VOID:
            return
        pos = len(self._open)
        self._open.append(tag)
        if tag in _DECOMPOSE_TAGS:
            if pos < self._excl_at:
                self._excl_at = pos
        elif tag == "a":
            href = None
            for k, v in attrs:  # the last duplicate wins, as in dict(attrs)
                if k == "href":
                    href = v
            if href is not None:
                self._caps.append(_Cap("a", pos, len(self.facts.all_pieces), href))
        elif tag == "title" and self.facts.title is None:
            self._caps.append(_Cap("title", pos, len(self.facts.all_pieces)))

    def handle_endtag(self, tag: str) -> None:
        # Tree-recovery semantics (mirrors the bs4-style oracle tree):
        # an end tag closes the INNERMOST matching open tag, implicitly
        # closing everything opened inside it; an end tag with no
        # matching open tag is ignored entirely.
        open_ = self._open
        idx = len(open_) - 1
        while idx >= 0 and open_[idx] != tag:
            idx -= 1
        if idx < 0:
            return
        self._close(idx)
        del open_[idx:]
        if idx <= self._excl_at:
            self._excl_at = _NO_EXCL
        # Captures sit in position order (a capture opened later is
        # nested deeper), so the ones this pop ends form a tail; they
        # finish in creation order.
        caps = self._caps
        if caps and caps[-1].pos >= idx:
            k = len(caps) - 1
            while k and caps[k - 1].pos >= idx:
                k -= 1
            done = caps[k:]
            del caps[k:]
            for cap in done:
                self._finish(cap)

    def _close(self, idx: int) -> None:
        """The elements at stack positions ``idx:`` are about to close."""

    def _finish(self, cap: _Cap) -> None:
        f = self.facts
        text = "".join(f.all_pieces[cap.start:])
        if cap.kind == "a":
            f.anchors.append((cap.extra, text))
        elif f.title is None:
            f.title = text

    def handle_data(self, data: str) -> None:
        f = self.facts
        f.all_pieces.append(data)
        if self._excl_at == _NO_EXCL:
            f.text_pieces.append(data)


class _FactParser(_CoreParser):
    """The full pass: the core plus every other :class:`PageFacts` field."""

    def __init__(self) -> None:
        super().__init__(PageFacts())
        self._classes: list[str] = []   # class attr per open element
        self._script_at = 0             # all_pieces index where the open <script> began
        self._table_stack: list[list[list[str]]] = []   # tables of rows
        self._row_stack: list[list[str]] = []
        self._div_kw_active: set[str] = set()
        self._sel_active: set[str] = set()

    # -- start tags ---------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        f = self.facts
        if tag in _VOID:
            if tag == "img":
                f.n_images += 1
            elif tag == "meta":
                ad = dict(attrs)
                name = ad.get("name") or ad.get("property") or ad.get("http-equiv")
                content = ad.get("content")
                if name and content:
                    f.meta_tags.setdefault(name, content)
                if (ad.get("name") or "").lower() == "description" and not f.meta_description:
                    f.meta_description = content or ""
                f.meta_all.append(
                    (
                        ad.get("name") or "",
                        ad.get("property") or "",
                        ad.get("http-equiv") or "",
                        ad.get("content") or "",
                    )
                )
            return

        pos = len(self._open)
        super().handle_starttag(tag, attrs)
        start = len(f.all_pieces)
        caps = self._caps
        ad = dict(attrs)
        if tag == "script":
            f.n_scripts += 1
            self._script_at = start
            f.script_types.append(ad.get("type") or "")
        elif tag == "style":
            f.n_styles += 1

        cls_attr = ad.get("class") or ""
        if tag in _HEADINGS:
            caps.append(_Cap("heading", pos, start, tag))
        elif tag == "li":
            caps.append(_Cap("li", pos, start))
        elif tag in ("td", "th"):
            caps.append(_Cap("cell", pos, start))
        elif tag == "p":
            anc_tokens = " ".join(c for c in self._classes if c)
            caps.append(_Cap("p", pos, start, (cls_attr, anc_tokens)))
        elif tag == "div":
            for kw in ("description", "about", "intro"):
                if (
                    kw in cls_attr
                    and kw not in f.div_first
                    and kw not in self._div_kw_active
                ):
                    self._div_kw_active.add(kw)
                    caps.append(_Cap("div_kw", pos, start, kw))
        elif tag == "button":
            caps.append(_Cap("button", pos, start))
        # selector-key first-match captures (any tag)
        cls_tokens = cls_attr.split()
        el_id = ad.get("id") or ""
        for key, kind, val in PageFacts.SELECTOR_KEYS:
            if key in f.sel_pieces or key in self._sel_active:
                continue
            if (
                (kind == "tag" and tag == val)
                or (kind == "class" and val in cls_tokens)
                or (kind == "id" and el_id == val)
            ):
                self._sel_active.add(key)
                caps.append(_Cap("sel", pos, start, key))
        if tag == "table":
            self._table_stack.append([])
        elif tag == "tr":
            self._row_stack.append([])
        elif tag == "a":
            f.n_links += 1

        if (
            _HIDDEN_STYLE_RE.search(ad.get("style") or "")
            or "hidden" in cls_tokens
            or "invisible" in cls_tokens
            or ad.get("aria-hidden") == "true"
        ):
            caps.append(_Cap("hidden", pos, start))
        dj = ad.get("data-job")
        if dj:
            f.data_job_attrs.append(dj)
        self._classes.append(cls_attr)

    # -- end tags -----------------------------------------------------
    def _close(self, idx: int) -> None:
        f = self.facts
        for t in reversed(self._open[idx:]):
            if t == "script":
                # a script body is raw text: no tag opens inside it
                f.script_bodies.append("".join(f.all_pieces[self._script_at:]))
            elif t == "table" and self._table_stack:
                f.tables.append(self._table_stack.pop())
            elif t == "tr" and self._row_stack:
                row = self._row_stack.pop()
                if self._table_stack:
                    self._table_stack[-1].append(row)
        del self._classes[idx:]

    def _finish(self, cap: _Cap) -> None:
        f = self.facts
        kind = cap.kind
        if kind == "a" or kind == "title":
            super()._finish(cap)
            if kind == "a":
                f.clickables.append(("a",) + f.anchors[-1])
            return
        if kind == "sel":
            self._sel_active.discard(cap.extra)
            if cap.extra not in f.sel_pieces:
                f.sel_pieces[cap.extra] = f.all_pieces[cap.start:]
            return
        text = "".join(f.all_pieces[cap.start:])
        if kind == "heading":
            f.headings[cap.extra].append(text)
        elif kind == "button":
            f.clickables.append(("button", None, text))
        elif kind == "p":
            cls_attr, anc = cap.extra
            f.paragraphs.append(text)
            f.p_classes.append(cls_attr)
            f.p_anc_classes.append(anc)
        elif kind == "div_kw":
            self._div_kw_active.discard(cap.extra)
            if cap.extra not in f.div_first:
                f.div_first[cap.extra] = text
        elif kind == "li":
            f.list_items.append(text)
        elif kind == "cell":
            if self._row_stack:
                self._row_stack[-1].append(text)
        elif kind == "hidden":
            t = collapse_ws(text)
            if t:
                f.hidden_texts.append(t)


def _parse(parser_cls, html: str):
    p = parser_cls()
    if not p.scan(html):
        p = parser_cls()
        p.feed(html)
        p.close()
    return p.facts


def parse_core(html: str) -> CoreFacts:
    """Parse ``html`` for the crawl's fields only: ``title``,
    ``text_pieces`` and ``anchors`` (equal to :func:`parse_page`'s)."""
    return _parse(_CoreParser, html)


def parse_page(html: str) -> PageFacts:
    """Parse ``html`` once and return all extracted facts."""
    return _parse(_FactParser, html)


def collapse_ws(s: str) -> str:
    """``re.sub(r'\\s+', ' ', s).strip()`` — the whitespace collapse used
    everywhere.  ``str.isspace`` and ``re``'s ``\\s`` agree on every code
    point (NBSP yes, zero-width space no), so the split-join is the same
    function without the regex engine."""
    return " ".join(s.split())


_TEXT_CAP = 5000
# collapse_ws of a prefix is a prefix of collapse_ws of the whole text
# (only its last word can be cut short), so when this window alone
# collapses to the cap, the cap's worth of it is the answer
_TEXT_WINDOW = 5500


def finalize_jobdetail_text(raw: str) -> str:
    """Whitespace-collapse + length gate (job_extraction_service.py:1733-1737)."""
    if len(raw) > _TEXT_WINDOW:
        head = collapse_ws(raw[:_TEXT_WINDOW])
        if len(head) >= _TEXT_CAP:
            return head[:_TEXT_CAP]
    text = collapse_ws(raw)
    if len(text) > 50:
        return text[:_TEXT_CAP]
    return ""


def facts_jobdetail_text(facts: CoreFacts) -> str:
    return finalize_jobdetail_text("".join(facts.text_pieces))


def facts_crawldata_text(facts: CoreFacts) -> str:
    """``get_text(separator=' ', strip=True)``: strip every text node, drop
    empties, join with single spaces (script/style bodies included)."""
    pieces = (s.strip() for s in facts.all_pieces)
    return " ".join(p for p in pieces if p)


def extract_text_jobdetail(html: str) -> str:
    """The byte-identical invariant text (see module docstring)."""
    return facts_jobdetail_text(parse_page(html))


def extract_text_crawldata(html: str) -> str:
    return facts_crawldata_text(parse_page(html))


# ---------------------------------------------------------------------------
# Title / out-link helpers shared by stages
# ---------------------------------------------------------------------------

_GENERIC_TITLE_WORDS = (
    # job_extraction_service.py:1703 — generic h1/h2 titles to skip
    "home", "about", "contact", "career", "careers", "welcome", "blog", "news",
)


def pick_job_title(facts: PageFacts) -> str:
    """First non-generic ``<h1>`` (len>3) else ``<h2>`` fallback
    (job_extraction_service.py:1697-1720).  The reference's h2 loop breaks
    unconditionally after the first h2; reproduced here."""
    for t in facts.h1:
        t = t.strip()
        if t and len(t) > 3:
            low = t.lower()
            if not any(g in low for g in _GENERIC_TITLE_WORDS):
                return t
    for t in facts.h2:
        t = t.strip()
        if t and len(t) > 3:
            low = t.lower()
            if not any(g in low for g in _GENERIC_TITLE_WORDS):
                return t
        break  # reference behavior: unconditional break after first h2
    return ""


def extract_out_links(facts: CoreFacts, base_url: str, limit: int = 50) -> list[str]:
    """First-``limit`` anchors, scheme-filtered, urljoined, order-preserving
    dedup (crawler.py:388-399 takes the first 50 a[href]; its later set()
    dedup is pinned here as order-preserving first occurrence)."""
    out: list[str] = []
    seen: set[str] = set()
    for href, _txt in facts.anchors[:limit]:
        if not href or href.startswith(_SKIP_HREF_PREFIXES):
            continue
        full = urljoin(base_url, href)
        if full not in seen:
            seen.add(full)
            out.append(full)
    return out


def extract_anchor_pairs(
    facts: CoreFacts, base_url: str, limit: int = 100
) -> list[tuple[str, str]]:
    """First-``limit`` anchors as (target_host, visible_text) pairs — the
    inbound anchor-text-corpus projection (beyond the reference; href
    rules shared with :func:`extract_out_links` / crawler.py:388-399).

    Anchor text is whitespace-collapsed and stripped (the
    ``get_text(" ", strip=True)`` discipline — raw capture joins text
    nodes without separators).  Duplicates are KEPT — every anchor
    occurrence is one inbound-text vote for the target host; host-less
    targets and empty texts are dropped."""
    out: list[tuple[str, str]] = []
    for href, txt in facts.anchors[:limit]:
        if not href or href.startswith(_SKIP_HREF_PREFIXES):
            continue
        host = urlparse(urljoin(base_url, href)).netloc
        text = collapse_ws(txt)
        if host and text:
            out.append((host, text))
    return out
