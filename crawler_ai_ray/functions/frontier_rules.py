"""Frontier expansion rules — the pinned, deterministic restatement of the
reference spider's enqueue logic (``scrapy_career_spider.py:177-208,
471-495``), shared verbatim by the distributed engine and the
single-process conformance simulator.

Pinned determinism decisions (the reference's link order passes through a
Python ``set()`` and is therefore nondeterministic — SURVEY §7.4.2):

* candidate order = document order of anchors, first-occurrence dedup on
  the urljoined absolute URL;
* ``#fragment`` stripped (Scrapy's dupefilter canonicalization) before
  validity/caps;
* validity filter M7 on the absolute URL, then strict same-host netloc
  (the spider compares ``urlparse(u).netloc == self.domain``);
* optional robots gate (engine feature; reference disables robots);
* priority buckets M8 walked in order 100→80→50→10; per-bucket caps
  5/3/2/2 count *candidates*, not unseen survivors (the spider slices
  ``links[:max_links]`` before Scrapy's dupefilter runs);
* the URL-seen check happens after the caps, at enqueue time.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from . import classify

__all__ = ["candidate_links"]


def candidate_links(
    all_links: list[str],
    host: str,
    robots_allowed=None,
    verdicts: dict | None = None,
) -> list[tuple[str, int]]:
    """Per-page frontier candidates: [(url, priority)] after normalize /
    validity / same-host / robots / priority caps — before the seen check.

    ``all_links`` is the page's document-order, first-occurrence-deduped
    absolute link list; ``robots_allowed(url) -> bool`` is optional.
    ``verdicts`` memoizes each link's rules (``_verdict``) across the
    calls a caller makes for one host and robots gate, whose pages share
    their navigation links; it does not change the result.
    """
    if verdicts is None:
        verdicts = {}
    seen_local: set[str] = set()
    buckets: dict[int, list[str]] = {100: [], 80: [], 50: [], 10: []}
    for link in all_links:
        v = verdicts.get(link)
        if v is None:
            v = verdicts[link] = _verdict(link, host, robots_allowed)
        url, prio = v
        if not url or url in seen_local:
            continue
        seen_local.add(url)
        if prio is not None:
            buckets[prio].append(url)
    out: list[tuple[str, int]] = []
    for prio in (100, 80, 50, 10):
        cap = classify.PRIORITY_LINK_CAPS[prio]
        out.extend((u, prio) for u in buckets[prio][:cap])
    return out


def _verdict(link: str, host: str, robots_allowed) -> tuple[str, int | None]:
    """(normalized url, priority bucket) of one link, the bucket None
    when validity, same-host or robots rejects it."""
    url = classify.normalize_url(link)
    if (
        not url
        or not classify.is_valid_link(url, host)
        # urlsplit's netloc is urlparse's: only the path loses ";params"
        or urlsplit(url).netloc != host
        or (robots_allowed is not None and not robots_allowed(url))
    ):
        return url, None
    return url, classify.priority_for_link(url)
