"""Extraction stages: pages → extracted facts / job records.

The reference runs BeautifulSoup + regexes per URL inside one asyncio
process (``crawler.py``, ``job_extraction_service.py``); here the same
per-page semantics run as ``map_batches`` over zero-copy Arrow batches:

* one HTML parse per page produces every downstream column at once —
  text (byte-identical invariant), crawldata text, title, contacts,
  links, classification; the crawl extraction and the two link
  projections read only title, text and anchors and take the core pass
  (``parse_core``), the rest the full pass (``parse_page``);
* batches stay ``pyarrow`` end-to-end (list columns for
  emails/phones/links — kept out of pandas, which would object-box them);
* the regexes/keyword tables are compiled once per *process* at module
  import, so plain stateless tasks already amortize setup — no actor
  pool needed for this stage;
* ``html`` is dropped from the output (``select_columns`` semantics):
  at 100 TB the binary column must not survive past extraction.

Batch-size guidance: html rows here average ~10 KB (cap 1 MB per the
reference, scrapy_career_spider.py:105), so 128–512 rows/batch keeps
batches in the single-digit-MB range.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin

import pyarrow as pa

from ..functions import classify, contacts
from ..functions import jobs as jobfns
from ..functions.htmltext import (
    extract_anchor_pairs,
    extract_out_links,
    facts_crawldata_text,
    facts_jobdetail_text,
    parse_core,
    parse_page,
)

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("lang", pa.string()),
        ("text", pa.string()),             # byte-identical invariant column
        ("text_crawldata", pa.string()),
        ("title", pa.string()),
        ("meta_description", pa.string()),
        ("emails", pa.list_(pa.string())),
        ("phones_loose", pa.list_(pa.string())),
        ("phones_vn", pa.list_(pa.string())),
        ("out_links", pa.list_(pa.string())),
        ("all_links", pa.list_(pa.string())),
        ("priority", pa.int32()),
        ("is_career_listing", pa.bool_()),
        ("career_score", pa.float64()),
        ("is_job_url", pa.bool_()),
        ("n_tokens", pa.int64()),
        ("html_bytes", pa.int64()),
    ]
)

JOBS_SCHEMA = pa.schema(
    [
        ("source_url", pa.string()),
        ("host", pa.string()),
        ("job_index", pa.int32()),
        ("title", pa.string()),
        ("company", pa.string()),
        ("location", pa.string()),
        ("job_type", pa.string()),
        ("salary", pa.string()),
        ("description", pa.string()),
        ("summary", pa.string()),
        ("source", pa.string()),
    ]
)


def _decode(v) -> str:
    return v.decode("utf-8", errors="ignore") if isinstance(v, (bytes, bytearray)) else v


# An href that ``_resolve_plain`` joins exactly: printable ASCII without
# ``;``, ``\``, ``[`` or ``]`` (so ``urlsplit`` strips, splits off and
# rejects nothing), no ``.``/``..`` path segment, no empty query or
# fragment (which ``urlunsplit`` drops), and either an absolute lowercase
# ``http(s)://`` URL with a netloc (group 1) or a root-relative path
# (``/x``, not ``//``).
_PLAIN_URL = re.compile(
    r"(?!.*(?:^|/)\.\.?(?:[/?#]|\Z))"
    r"(?!.*[?#](?:[?#]|\Z))"
    r"(?:(https?://[!\"$-.0-:<->@-Z^-~]+)|/(?!/))"
    r"[!-:<-Z^-~]*"
)
# The origin (``scheme://netloc``) of a page URL in the same grammar:
# for the two href forms above, ``urljoin`` reads nothing else of it.
_PLAIN_ORIGIN = re.compile(r"https?://[!\"$-.0-:<->@-Z^-~]+(?=[/?#]|\Z)")


def _resolve_plain(origin: str | None, href: str) -> str | None:
    """``urljoin(base, href)`` for a plain ``href`` against a base whose
    plain origin is ``origin``; None outside that grammar.  A
    root-relative href replaces the base's path, query and fragment; an
    absolute one comes back verbatim: ``urljoin`` returns an href of
    another scheme as it is, and ``urlunsplit`` rebuilds one of the same
    scheme unchanged."""
    if origin is None:
        return None
    m = _PLAIN_URL.fullmatch(href)
    if m is None:
        return None
    return href if m.group(1) else origin + href


def _join_anchors(facts, url: str) -> list[str | None]:
    """urljoin each anchor once (memoized per page — nav hrefs repeat);
    both the all-links and out-links views derive from this list.
    Plain hrefs resolve without ``urljoin`` (``_resolve_plain``)."""
    m = _PLAIN_ORIGIN.match(url)
    origin = m.group() if m else None
    cache: dict[str, str] = {}
    out: list[str | None] = []
    for href, _t in facts.anchors:
        if not href:
            out.append(None)
            continue
        full = cache.get(href)
        if full is None:
            full = _resolve_plain(origin, href) or urljoin(url, href)
            cache[href] = full
        out.append(full)
    return out


def _all_links(joined: list[str | None]) -> list[str]:
    out, seen = [], set()
    for full in joined:
        if full is not None and full not in seen:
            seen.add(full)
            out.append(full)
    return out


_SKIP_HREF_PREFIXES = ("mailto:", "tel:", "skype:", "javascript:", "data:")


def _out_links(facts, joined: list[str | None], limit: int = 50) -> list[str]:
    """Same semantics as functions.htmltext.extract_out_links, reusing the
    memoized urljoins (crawler.py:388-399)."""
    out: list[str] = []
    seen: set[str] = set()
    for (href, _txt), full in zip(facts.anchors[:limit], joined):
        if not href or href.startswith(_SKIP_HREF_PREFIXES):
            continue
        if full is not None and full not in seen:
            seen.add(full)
            out.append(full)
    return out


def extract_pages_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html, lang?) → EXTRACTED_SCHEMA rows, one per page."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    langs = (
        batch["lang"].to_pylist() if "lang" in batch.column_names else [""] * len(urls)
    )
    cols: dict[str, list] = {name: [] for name in EXTRACTED_SCHEMA.names}
    for url, html_b, lang in zip(urls, htmls, langs):
        html = _decode(html_b)
        facts = parse_page(html)
        text = facts_jobdetail_text(facts)
        title = (facts.title or "").strip()
        cols["url"].append(url)
        cols["host"].append(classify.host_of(url))
        cols["lang"].append(lang or "")
        cols["text"].append(text)
        cols["text_crawldata"].append(facts_crawldata_text(facts))
        cols["title"].append(title)
        cols["meta_description"].append(facts.meta_description)
        joined = _join_anchors(facts, url)
        cols["emails"].append(contacts.extract_emails(html))
        cols["phones_loose"].append(contacts.extract_phones_loose(html))
        cols["phones_vn"].append(contacts.extract_phones_vn(text))
        cols["out_links"].append(_out_links(facts, joined))
        cols["all_links"].append(_all_links(joined))
        cols["priority"].append(classify.priority_for_link(url))
        cols["is_career_listing"].append(classify.is_career_listing_page(url, html))
        cols["career_score"].append(classify.career_page_score(url, title, html))
        cols["is_job_url"].append(classify.is_job_url(url))
        cols["n_tokens"].append(len(text.split()))
        cols["html_bytes"].append(len(html_b) if html_b else 0)
    return pa.Table.from_pydict(cols, schema=EXTRACTED_SCHEMA)


LINKS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("out_links", pa.list_(pa.string())),
    ]
)


def extract_links_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html) → (url, host, out_links) ONLY — the link-graph
    projection.  The core parse (anchors equal to ``parse_page``'s) +
    ``_join_anchors`` + ``_out_links`` as in the full extraction, but
    skips the full parse, text assembly, contacts and classification —
    which matters when a consumer (PageRank, components, degree stats)
    touches the whole corpus for links alone."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {"url": [], "host": [], "out_links": []}
    for url, html_b in zip(urls, htmls):
        facts = parse_core(_decode(html_b))
        cols["url"].append(url)
        cols["host"].append(classify.host_of(url))
        cols["out_links"].append(_out_links(facts, _join_anchors(facts, url)))
    return pa.Table.from_pydict(cols, schema=LINKS_SCHEMA)


def extract_links(pages_ds):
    """pages → link-graph projection dataset (see extract_links_batch)."""
    return pages_ds.map_batches(extract_links_batch, batch_format="pyarrow")


LINKS_CAREER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("out_links", pa.list_(pa.string())),
        ("is_career_listing", pa.bool_()),
    ]
)


def extract_links_career_batch(batch: pa.Table) -> pa.Table:
    """Link projection + the M10 career-listing flag (which reads only
    (url, raw html) — ``classify.is_career_listing_page``'s own
    signature), for the seeded-PPR consumer: identical link + flag
    semantics to the full extraction, still skips text assembly and
    the contacts regexes (the expensive parts)."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {
        "url": [], "host": [], "out_links": [], "is_career_listing": []
    }
    for url, html_b in zip(urls, htmls):
        html = _decode(html_b)
        facts = parse_core(html)
        cols["url"].append(url)
        cols["host"].append(classify.host_of(url))
        cols["out_links"].append(_out_links(facts, _join_anchors(facts, url)))
        cols["is_career_listing"].append(
            classify.is_career_listing_page(url, html)
        )
    return pa.Table.from_pydict(cols, schema=LINKS_CAREER_SCHEMA)


def extract_links_career(pages_ds):
    """pages → link + career-flag projection (see
    extract_links_career_batch)."""
    return pages_ds.map_batches(
        extract_links_career_batch, batch_format="pyarrow"
    )


TEXT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("text_crawldata", pa.string()),
    ]
)


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html) → (url, text, text_crawldata) ONLY — the text
    projection.  Same ``parse_page`` + text assembly as the full
    extraction (byte-identical columns by construction — pinned by an
    equivalence test), but skips contacts regexes, link joins and
    classification, which the text consumers (snapshot diff, the
    crawl-text queries) drop anyway — measured ~1.6× cheaper per
    page."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {"url": [], "text": [], "text_crawldata": []}
    for url, html_b in zip(urls, htmls):
        facts = parse_page(_decode(html_b))
        cols["url"].append(url)
        cols["text"].append(facts_jobdetail_text(facts))
        cols["text_crawldata"].append(facts_crawldata_text(facts))
    return pa.Table.from_pydict(cols, schema=TEXT_SCHEMA)


def extract_text(pages_ds):
    """pages → text projection dataset (see extract_text_batch)."""
    return pages_ds.map_batches(extract_text_batch, batch_format="pyarrow")


ANCHOR_SCHEMA = pa.schema(
    [
        ("src_host", pa.string()),
        ("target_host", pa.string()),
        ("anchor_text", pa.string()),
    ]
)


def anchor_pairs_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html) → one row per kept anchor (src_host,
    target_host, anchor_text) — the flattened anchor-text-corpus
    projection (semantics in ``htmltext.extract_anchor_pairs``).
    Variable output length: a flat_map expressed as map_batches."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {
        "src_host": [],
        "target_host": [],
        "anchor_text": [],
    }
    for url, html_b in zip(urls, htmls):
        facts = parse_page(_decode(html_b))
        src = classify.host_of(url)
        for host, text in extract_anchor_pairs(facts, url):
            cols["src_host"].append(src)
            cols["target_host"].append(host)
            cols["anchor_text"].append(text)
    return pa.Table.from_pydict(cols, schema=ANCHOR_SCHEMA)


def extract_jobs_batch(batch: pa.Table) -> pa.Table:
    """pages → embedded job records (career listing pages only, mirroring
    the reference dispatch job_extraction_service.py:864-930).  Variable
    output length — this is a flat_map expressed as map_batches."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {name: [] for name in JOBS_SCHEMA.names}
    for url, html_b in zip(urls, htmls):
        html = _decode(html_b)
        if not classify.is_career_listing_page(url, html):
            continue
        facts = parse_page(html)
        page_text = "".join(facts.text_pieces)
        host = classify.host_of(url)
        for job in jobfns.extract_all_jobs(facts, page_text, url):
            cols["source_url"].append(url)
            cols["host"].append(host)
            cols["job_index"].append(job["job_index"])
            cols["title"].append(job["title"])
            cols["company"].append(job["company"])
            cols["location"].append(job["location"])
            cols["job_type"].append(job["job_type"])
            cols["salary"].append(job["salary"])
            cols["description"].append(job["description"])
            cols["summary"].append(jobfns.summarize_description(job["description"]))
            cols["source"].append(job["source"])
    return pa.Table.from_pydict(cols, schema=JOBS_SCHEMA)


def extract_jobs_normalized_batch(batch: pa.Table) -> pa.Table:
    """pages → D3-normalized job records: the per-page job list runs
    through `normalize_jobs` (job_extraction_service.py:2285-2320 —
    title cleanup, location inference, cleaned-title dedup) before
    emission.  Page-local, so blocks can split anywhere."""
    from ..functions.merge_ops import normalize_jobs

    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {name: [] for name in JOBS_SCHEMA.names}
    for url, html_b in zip(urls, htmls):
        html = _decode(html_b)
        if not classify.is_career_listing_page(url, html):
            continue
        facts = parse_page(html)
        page_text = "".join(facts.text_pieces)
        host = classify.host_of(url)
        for job in normalize_jobs(
            jobfns.extract_all_jobs(facts, page_text, url)
        ):
            cols["source_url"].append(url)
            cols["host"].append(host)
            cols["job_index"].append(job["job_index"])
            cols["title"].append(job["title"])
            cols["company"].append(job["company"])
            cols["location"].append(job["location"])
            cols["job_type"].append(job["job_type"])
            cols["salary"].append(job["salary"])
            cols["description"].append(job["description"])
            cols["summary"].append(
                jobfns.summarize_description(job["description"])
            )
            cols["source"].append(job["source"])
    return pa.Table.from_pydict(cols, schema=JOBS_SCHEMA)


def extract_jobs_fuzzy_batch(batch: pa.Table) -> pa.Table:
    """pages → D2-deduped job records: generic/short-title drop + fuzzy
    first-wins title dedup per page (job_extraction_service.py:
    2116-2190).  Page-local like the reference call site."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {"source_url": [], "job_index": [], "title": []}
    for url, html_b in zip(urls, htmls):
        html = _decode(html_b)
        if not classify.is_career_listing_page(url, html):
            continue
        facts = parse_page(html)
        page_text = "".join(facts.text_pieces)
        for job in jobfns.dedup_by_title_fuzzy(
            jobfns.extract_all_jobs(facts, page_text, url)
        ):
            cols["source_url"].append(url)
            cols["job_index"].append(job["job_index"])
            cols["title"].append(job["title"])
    return pa.table(
        {
            "source_url": pa.array(cols["source_url"], pa.string()),
            "job_index": pa.array(cols["job_index"], pa.int32()),
            "title": pa.array(cols["title"], pa.string()),
        }
    )


CRAWL_EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("title", pa.string()),
        ("text", pa.string()),
        ("emails", pa.list_(pa.string())),
        ("phones_vn", pa.list_(pa.string())),
        ("all_links", pa.list_(pa.string())),
        ("priority", pa.int32()),
        ("is_career_listing", pa.bool_()),
        ("career_score", pa.float64()),
        ("is_job_url", pa.bool_()),
        ("html_bytes", pa.int64()),
    ]
)


def extract_pages_crawl_batch(batch: pa.Table) -> pa.Table:
    """The crawl loop's per-page extraction (what the fetch stage
    computes for every fetched URL): golden text + contacts + frontier
    links + career classification.  Leaner than the full
    ``extract_pages_batch``: the core parse reads only title, text and
    anchors — this is the bench's 'fetch+extract' operator."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    cols: dict[str, list] = {name: [] for name in CRAWL_EXTRACT_SCHEMA.names}
    for url, html_b in zip(urls, htmls):
        html = _decode(html_b)
        facts = parse_core(html)
        text = facts_jobdetail_text(facts)
        title = (facts.title or "").strip()
        joined = _join_anchors(facts, url)
        cols["url"].append(url)
        cols["host"].append(classify.host_of(url))
        cols["title"].append(title)
        cols["text"].append(text)
        cols["emails"].append(contacts.extract_emails(html))
        cols["phones_vn"].append(contacts.extract_phones_vn(text))
        cols["all_links"].append(_all_links(joined))
        cols["priority"].append(classify.priority_for_link(url))
        cols["is_career_listing"].append(classify.is_career_listing_page(url, html))
        cols["career_score"].append(classify.career_page_score(url, title, html))
        cols["is_job_url"].append(classify.is_job_url(url))
        cols["html_bytes"].append(len(html_b) if html_b else 0)
    return pa.Table.from_pydict(cols, schema=CRAWL_EXTRACT_SCHEMA)


def extract_pages(ds, batch_size: int = 256, **opts):
    """Dataset of pages → Dataset of extracted facts (streaming)."""
    return ds.map_batches(
        extract_pages_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        **opts,
    )


def extract_jobs(ds, batch_size: int = 256, **opts):
    """Dataset of pages → Dataset of embedded job records (streaming)."""
    return ds.map_batches(
        extract_jobs_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        **opts,
    )
