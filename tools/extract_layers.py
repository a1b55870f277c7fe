"""Per-function extraction cost, unprofiled: µs/page for each layer of
the crawl's per-page extraction, the single-core URLs/s of
``extract_pages_crawl_batch``, and a same-code MinHash control next to
the batch signature kernel's µs/doc over the same sample.

``parse_core_stdlib`` forces the core pass through the stdlib tokenizer
(``HTMLParser.feed``/``close``) on the same pages, next to
``parse_core``; ``fallback_pages`` counts the pages the fast tokenizer
hands to the stdlib; ``is_job_url_per_link_us`` is ``is_job_url`` per
call over every link the sample's pages hold.  ``candidate_links`` is
the crawl's frontier rules (``frontier_rules.candidate_links``) over
each page's joined links; ``link_join_fast_share`` is the share of the
distinct hrefs per page that ``link_join`` resolves without ``urljoin``.

Usage: python3 tools/extract_layers.py [CORPUS] [--pages N] [--loops K]

CORPUS is a corpus directory holding ``pages.parquet`` or a scale tag
(``unit``, ``sf0.001``, ...; generated on first use), default
``sf0.001``.  Each layer runs in a plain loop over the pages (inputs
prepared beforehand), no profiler and no span wrappers; a figure is the
median of K loops.  Run it in fresh processes, alternating the trees
being compared, and read each side next to its control: when the
control moves, the box changed, not the code.  A layer the tree does
not have (``parse_core`` before the core/full split) prints ``n/a``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from crawler_ai_ray.functions import classify, contacts, htmltext  # noqa: E402
from crawler_ai_ray.functions.frontier_rules import candidate_links  # noqa: E402
from crawler_ai_ray.stages import extract  # noqa: E402
from crawler_ai_ray.stages.dedup import minhash_sig_batch, minhash_signature  # noqa: E402


def _pages(corpus: str, n: int):
    if not os.path.exists(os.path.join(corpus, "pages.parquet")):
        from crawler_ai_ray.sources.synth import ensure_corpus

        corpus = ensure_corpus(corpus)
    tbl = pq.read_table(os.path.join(corpus, "pages.parquet"), columns=["url", "html"])
    return tbl.slice(0, n) if n else tbl


def _median_loop(fn, items, loops: int) -> float:
    """Median seconds of ``loops`` passes of ``fn`` over ``items``."""
    runs = []
    for _ in range(loops):
        t = time.perf_counter()
        for it in items:
            fn(it)
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


def _classify(args) -> None:
    url, title, html = args
    classify.host_of(url)
    classify.priority_for_link(url)
    classify.is_career_listing_page(url, html)
    classify.career_page_score(url, title, html)
    classify.is_job_url(url)


def _parse_core_stdlib(html: str):
    p = htmltext._CoreParser()
    p.feed(html)
    p.close()
    return p.facts


def _fast_share(facts, urls) -> float | None:
    """Share of distinct hrefs per page inside the resolver's grammar."""
    resolve = getattr(extract, "_resolve_plain", None)
    if resolve is None:
        return None
    n = fast = 0
    for f, url in zip(facts, urls):
        m = extract._PLAIN_ORIGIN.match(url)
        for href in {h for h, _t in f.anchors if h}:
            n += 1
            fast += resolve(m and m.group(), href) is not None
    return fast / n


def measure(tbl, loops: int) -> dict[str, float | None]:
    urls = tbl["url"].to_pylist()
    htmls = [h.decode("utf-8", errors="ignore") for h in tbl["html"].to_pylist()]
    facts = [htmltext.parse_page(h) for h in htmls]
    texts = [htmltext.facts_jobdetail_text(f) for f in facts]
    titles = [(f.title or "").strip() for f in facts]
    n = len(htmls)

    def us(fn, items) -> float:
        return _median_loop(fn, items, loops) / n * 1e6

    parse_core = getattr(htmltext, "parse_core", None)
    has_scan = hasattr(getattr(htmltext, "_CoreParser", None), "scan")
    page_links = [
        extract._all_links(extract._join_anchors(f, url))
        for f, url in zip(facts, urls)
    ]
    links = [u for ls in page_links for u in ls]
    out: dict[str, float | None] = {
        "parse_core": us(parse_core, htmls) if parse_core else None,
        "parse_core_stdlib": us(_parse_core_stdlib, htmls) if parse_core else None,
        "fallback_pages": (
            sum(not htmltext._CoreParser().scan(h) for h in htmls) if has_scan else None
        ),
        "parse_page": us(htmltext.parse_page, htmls),
        "emails": us(contacts.extract_emails, htmls),
        "phones_vn": us(contacts.extract_phones_vn, texts),
        "finalize": us(htmltext.facts_jobdetail_text, facts),
        "classify": us(_classify, list(zip(urls, titles, htmls))),
        "is_job_url_per_link_us": (
            _median_loop(classify.is_job_url, links, loops) / len(links) * 1e6
        ),
        "link_join": us(
            lambda a: extract._all_links(extract._join_anchors(*a)),
            list(zip(facts, urls)),
        ),
        "link_join_fast_share": _fast_share(facts, urls),
        "candidate_links": us(
            lambda a: candidate_links(*a),
            [(ls, classify.host_of(u)) for ls, u in zip(page_links, urls)],
        ),
    }
    batch_s = _median_loop(extract.extract_pages_crawl_batch, [tbl], loops)
    out["batch_urls_per_s"] = n / batch_s
    sample = texts[:200]
    out["control_minhash_docs_per_s"] = len(sample) / _median_loop(
        minhash_signature, sample, loops
    )
    docs = pa.table({"doc_id": pa.array(range(len(sample)), pa.int64()), "text": sample})
    out["minhash_batch_us"] = (
        _median_loop(minhash_sig_batch, [docs], loops) / len(sample) * 1e6
    )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", nargs="?", default="sf0.001")
    ap.add_argument("--pages", type=int, default=0, help="first N pages (0: all)")
    ap.add_argument("--loops", type=int, default=3)
    args = ap.parse_args()
    tbl = _pages(args.corpus, args.pages)
    res = measure(tbl, args.loops)
    print(f"pages={tbl.num_rows} loops={args.loops} nproc={len(os.sched_getaffinity(0))}")
    for name, v in res.items():
        unit = (
            "" if name.endswith("_per_s")
            else " us/doc" if name.startswith("minhash")
            else " us/link" if name.endswith("_per_link_us")
            else " us/page"
        )
        fmt = (
            "n/a" if v is None else f"{v:10d}" if isinstance(v, int)
            else f"{v:10.3f}" if name.endswith("_share")
            else f"{v:10.1f}{unit}"
        )
        print(f"{name:28s} {fmt}")


if __name__ == "__main__":
    main()
