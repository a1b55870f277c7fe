"""Reference copy of the single-pass page parser — ``PageFacts``,
``_FactParser`` and ``parse_page`` as they stood before the engine split
them into a core pass and a full pass (``functions/htmltext.py``).

It is kept as the ground truth for the differential tests: the engine's
``parse_page`` must fill every ``PageFacts`` slot exactly as this one
does, and its core pass must produce the same ``title``, ``text_pieces``
and ``anchors``.  Every open capture here grows one level deeper on each
start tag and shrinks by the number of elements an end tag pops, which
is the behaviour the engine's close-by-stack-position rule reproduces.
The hidden-text collapse is spelled as the reference regex
(``contacts_oracle.WS_RE``).
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

from .contacts_oracle import WS_RE

# job_extraction_service.py:1726 — subtrees removed before get_text().
_DECOMPOSE_TAGS = frozenset(
    ["script", "style", "nav", "header", "footer", "aside", "noscript"]
)

# HTML void elements — never have content / close tags.
_VOID = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_HEADINGS = ("h1", "h2", "h3", "h4", "h5", "h6")

_HIDDEN_STYLE_RE = re.compile(r"display\s*:\s*none|visibility\s*:\s*hidden", re.I)


class PageFacts:
    """Everything one parse pass learns about a page."""

    __slots__ = (
        "text_pieces",      # text nodes outside decomposed subtrees (jobdetail)
        "all_pieces",       # every text node (crawldata text)
        "title",            # first <title> text
        "meta_description", # <meta name="description" content=...>
        "meta_tags",        # {name/property: content} (M35)
        "headings",         # {"h1": [...], ..., "h6": [...]} subtree texts
        "anchors",          # [(href, anchor_text)] in document order
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
        self.text_pieces: list[str] = []
        self.all_pieces: list[str] = []
        self.title: str | None = None
        self.meta_description: str = ""
        self.meta_tags: dict[str, str] = {}
        self.headings: dict[str, list[str]] = {h: [] for h in _HEADINGS}
        self.anchors: list[tuple[str, str]] = []
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
    """An active subtree-text capture (generic: heading, anchor, li, cell…)."""

    __slots__ = ("kind", "tag", "depth", "buf", "extra")

    def __init__(self, kind: str, tag: str, extra=None) -> None:
        self.kind = kind
        self.tag = tag
        self.depth = 1
        self.buf: list[str] = []
        self.extra = extra


class _FactParser(HTMLParser):
    """One streaming pass filling a :class:`PageFacts`."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.facts = PageFacts()
        self._excl_depth = 0            # inside any decomposed subtree
        self._excl_stack: list[str] = []
        self._caps: list[_Cap] = []
        self._in_script = False
        self._script_buf: list[str] = []
        self._table_stack: list[list[list[str]]] = []   # tables of rows
        self._row_stack: list[list[str]] = []
        self._open: list[tuple[str, str]] = []  # (tag, class) of open tags
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

        # existing captures grow one level deeper
        for cap in self._caps:
            cap.depth += 1

        ad = dict(attrs)
        if tag in _DECOMPOSE_TAGS:
            self._excl_depth += 1
            self._excl_stack.append(tag)
            if tag == "script":
                f.n_scripts += 1
                self._in_script = True
                self._script_buf = []
                f.script_types.append(ad.get("type") or "")
            elif tag == "style":
                f.n_styles += 1

        cls_attr = ad.get("class") or ""
        if tag == "title" and f.title is None:
            self._caps.append(_Cap("title", tag))
        elif tag in _HEADINGS:
            self._caps.append(_Cap("heading", tag))
        elif tag == "li":
            self._caps.append(_Cap("li", tag))
        elif tag in ("td", "th"):
            self._caps.append(_Cap("cell", tag))
        elif tag == "p":
            anc_tokens = " ".join(
                c for _, c in self._open if c
            )
            self._caps.append(_Cap("p", tag, extra=(cls_attr, anc_tokens)))
        elif tag == "div":
            for kw in ("description", "about", "intro"):
                if (
                    kw in cls_attr
                    and kw not in f.div_first
                    and kw not in self._div_kw_active
                ):
                    self._div_kw_active.add(kw)
                    self._caps.append(_Cap("div_kw", tag, extra=kw))
        elif tag == "button":
            self._caps.append(_Cap("button", tag))
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
                self._caps.append(_Cap("sel", tag, extra=key))
        if tag == "table":
            self._table_stack.append([])
        elif tag == "tr":
            self._row_stack.append([])
        if tag == "a":
            f.n_links += 1
            href = ad.get("href")
            if href is not None:
                self._caps.append(_Cap("a", tag, extra=href))

        style = ad.get("style") or ""
        cls = ad.get("class") or ""
        if (
            _HIDDEN_STYLE_RE.search(style)
            or "hidden" in cls.split()
            or "invisible" in cls.split()
            or ad.get("aria-hidden") == "true"
        ):
            self._caps.append(_Cap("hidden", tag))
        dj = ad.get("data-job")
        if dj:
            f.data_job_attrs.append(dj)
        self._open.append((tag, cls_attr))

    # -- end tags -----------------------------------------------------
    def handle_endtag(self, tag: str) -> None:
        # Tree-recovery semantics (mirrors the bs4-style oracle tree):
        # an end tag closes the INNERMOST matching open tag, implicitly
        # closing everything opened inside it; an end tag with no
        # matching open tag is ignored entirely.
        if tag in _VOID:
            return
        f = self.facts
        idx = None
        for i in range(len(self._open) - 1, -1, -1):
            if self._open[i][0] == tag:
                idx = i
                break
        if idx is None:
            return
        popped = self._open[idx:]
        del self._open[idx:]
        for t, _cls in reversed(popped):
            if t in _DECOMPOSE_TAGS:
                for k in range(len(self._excl_stack) - 1, -1, -1):
                    if self._excl_stack[k] == t:
                        del self._excl_stack[k]
                        break
                self._excl_depth -= 1
                if t == "script" and self._in_script:
                    self._in_script = False
                    f.script_bodies.append("".join(self._script_buf))
            if t == "table" and self._table_stack:
                f.tables.append(self._table_stack.pop())
            elif t == "tr" and self._row_stack:
                row = self._row_stack.pop()
                if self._table_stack:
                    self._table_stack[-1].append(row)

        done: list[_Cap] = []
        for cap in self._caps:
            cap.depth -= len(popped)
            if cap.depth <= 0:
                done.append(cap)
        if done:
            self._caps = [c for c in self._caps if c.depth > 0]
            for cap in done:
                self._finish(cap)

    def _finish(self, cap: _Cap) -> None:
        f = self.facts
        text = "".join(cap.buf)
        if cap.kind == "title":
            if f.title is None:
                f.title = text
        elif cap.kind == "heading":
            f.headings[cap.tag].append(text)
        elif cap.kind == "a":
            f.anchors.append((cap.extra, text))
            f.clickables.append(("a", cap.extra, text))
        elif cap.kind == "button":
            f.clickables.append(("button", None, text))
        elif cap.kind == "p":
            cls_attr, anc = cap.extra
            f.paragraphs.append(text)
            f.p_classes.append(cls_attr)
            f.p_anc_classes.append(anc)
        elif cap.kind == "div_kw":
            self._div_kw_active.discard(cap.extra)
            if cap.extra not in f.div_first:
                f.div_first[cap.extra] = text
        elif cap.kind == "sel":
            self._sel_active.discard(cap.extra)
            if cap.extra not in f.sel_pieces:
                f.sel_pieces[cap.extra] = list(cap.buf)
        elif cap.kind == "li":
            f.list_items.append(text)
        elif cap.kind == "cell":
            if self._row_stack:
                self._row_stack[-1].append(text)
        elif cap.kind == "hidden":
            t = WS_RE.sub(" ", text).strip()
            if t:
                f.hidden_texts.append(t)

    # -- text ---------------------------------------------------------
    def handle_data(self, data: str) -> None:
        f = self.facts
        f.all_pieces.append(data)
        if self._excl_depth == 0:
            f.text_pieces.append(data)
        if self._in_script:
            self._script_buf.append(data)
        for cap in self._caps:
            cap.buf.append(data)


def parse_page(html: str) -> PageFacts:
    """Parse ``html`` once and return all extracted facts."""
    p = _FactParser()
    p.feed(html)
    p.close()
    return p.facts
