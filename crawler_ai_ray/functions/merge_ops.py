"""Merge/enrichment operators:

* **D3** `normalize_jobs` — title cleanup + location inference +
  cleaned-title dedup (job_extraction_service.py:2285-2320).
* **J1** `apply_enrichment` — external company-metadata merge
  (routes.py:44-54, 284-295): append the enrichment phone if absent,
  surface the enrichment title as the company title.
* **J2** `career_page_priority` / `merge_detection_results` —
  prefer-primary-source merge with homepage filter, dedup, priority
  sort and top-3 cut (career_pages_service.py:1178-1307).

Distributed expression (used by the `__ray_entry__` queries): J1 is a
**broadcast join** — the small enrichment table rides the object store
once and every `map_batches` task reads it; J2 is a per-host
`groupby(host).map_groups`.  Engine determinism deviation: the
reference sorts with Python's stable sort over insertion order; the
engine tie-breaks `(priority, url)` so the result is order-independent
of block arrival.
"""

from __future__ import annotations

import re
from urllib.parse import urlparse

from .htmltext import collapse_ws

__all__ = [
    "normalize_jobs",
    "apply_enrichment",
    "career_page_priority",
    "merge_detection_results",
]

_TITLE_SUFFIX_RX = re.compile(
    r"\s*(Singapore Only|Fully Remote|Remote|See Details|See)\s*$"
)
_COM_PREFIX_RX = re.compile(r"^com\s*")


def normalize_jobs(jobs: list[dict]) -> list[dict]:
    """D3 (job_extraction_service.py:2285-2320)."""
    out: list[dict] = []
    seen: set[str] = set()
    for job in jobs:
        job = dict(job)
        original = (job.get("title") or "").strip()
        desc = (job.get("description") or "").strip()
        combined = f"{original} {desc}"
        clean = _TITLE_SUFFIX_RX.sub("", original).strip()
        clean = _COM_PREFIX_RX.sub("", clean).strip()
        clean = collapse_ws(clean)
        if not job.get("location"):
            if re.search(r"Singapore Only", combined, re.IGNORECASE):
                job["location"] = "Singapore Only"
            elif re.search(r"Fully Remote", combined, re.IGNORECASE):
                job["location"] = "Fully Remote"
            elif re.search(r"\bRemote\b", combined, re.IGNORECASE):
                job["location"] = "Remote"
        job["title"] = clean
        key = clean.lower()
        if not clean or key in seen:
            continue
        seen.add(key)
        out.append(job)
    return out


def apply_enrichment(
    phones: list[str], enrichment: dict | None
) -> tuple[list[str], str]:
    """J1 (routes.py:284-295): append the enrichment phone when not
    already present; company title comes from the enrichment record."""
    phones = list(phones)
    title = ""
    if enrichment:
        phone = enrichment.get("phone")
        if phone and phone not in phones:
            phones.append(phone)
        title = enrichment.get("title") or ""
    return phones, title


# career_pages_service.py:1224-1246
_PRIORITY1_PATTERNS = [
    "/opening-positions", "/jobs/", "/job-listings", "/vacancies",
    "/positions/", "/opportunities/", "/tuyen-dung/",
]
_PRIORITY2_EXACT = ["/career/", "/tuyen-dung.html"]


def career_page_priority(url: str) -> int:
    """J2 sort key (career_pages_service.py:1224-1246).  NOTE: the
    priority-2 arm compares the FULL url string for equality with path
    literals — for absolute URLs it can never match, so real results
    are 1 or 3 (faithful port of the reference's latent bug)."""
    low = url.lower()
    if any(p in low for p in _PRIORITY1_PATTERNS):
        return 1
    if (
        any(p == low for p in _PRIORITY2_EXACT)
        and not any(p in low for p in _PRIORITY1_PATTERNS)
        and low not in ("/careers/", "/careers")
    ):
        return 2
    return 3


def detection_confidence(
    career_pages: int, potential_pages: int, total_urls: int
) -> float:
    """A4 (career_pages_service.py:915-930): min(pages·0.3, 1) +
    min(potential·0.1, 0.3) + min(total/100, 0.2), capped at 1."""
    if total_urls == 0:
        return 0.0
    base = min(career_pages * 0.3, 1.0)
    bonus = min(potential_pages * 0.1, 0.3)
    coverage = min(total_urls / 100, 0.2)
    return min(base + bonus + coverage, 1.0)


def _is_homepage(url: str) -> bool:
    p = urlparse(url)
    return p.path.lower() in (
        "/", "", "/index.html", "/index.php", "/default.html",
        "/default.php",
    ) and not p.query


def merge_detection_results(
    primary_pages: list[str], fallback_pages: list[str], top_k: int = 3
) -> list[str]:
    """J2 (career_pages_service.py:1186-1262): prefer the primary
    source wholesale; else homepage-filtered fallback; dedup
    (first-wins); sort by (priority, url); top-k."""
    if primary_pages:
        pages = list(primary_pages)
    else:
        pages = [u for u in fallback_pages if not _is_homepage(u)]
    seen: set[str] = set()
    deduped = []
    for u in pages:
        if u and u not in seen:
            seen.add(u)
            deduped.append(u)
    deduped.sort(key=lambda u: (career_page_priority(u), u))
    return deduped[:top_k]
