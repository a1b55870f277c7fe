"""Reference copies of the per-link classifiers, the anchor join and the
jobdetail text finalize, as they stood before ``functions/classify.py``
and ``functions/htmltext.py`` rewrote them as compiled alternations and
a windowed collapse, and before ``stages/extract.py`` resolved plain
hrefs without ``urljoin``.

They are the ground truth for the differential tests: the engine's
``is_job_url``, ``is_valid_link``, ``_should_exclude_url``,
``priority_for_link``, ``_join_anchors`` and ``finalize_jobdetail_text``
must return what these return on every input.  The keyword tuples are
the engine's own; the two the rewrite deleted (the seven menu regexes
and the ``_OBVIOUS_NON_JOB`` list, which only fed rules that return
False either way) are kept here with the code that read them.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlparse

from ..functions.classify import (
    _CAREER_KEYWORDS,
    _CAREER_SUBDOMAINS,
    _CONTENT_KEYWORDS,
    _EXCLUDE_MENU_KEYWORDS,
    _JOB_QUERY_PARAMS,
    _JOB_URL_PATTERNS,
    _JOBURL_SKIP,
    _JOBURL_SKIP_FILES,
    _NAV_KEYWORDS,
    _NON_JOB_SUBSTRINGS,
)
from ..functions.htmltext import collapse_ws

_EXCLUDE_MENU_PATTERNS = tuple(
    re.compile(p)
    for p in (
        r".*/(about|company|team|leadership).*",
        r".*/(contact|support|help).*",
        r".*/(marketing|advertising|seo).*",
        r".*/(api|docs|documentation).*",
        r".*/(pricing|plans|features).*",
        r".*/(privacy|terms|policy).*",
        r".*/(login|register|signup).*",
    )
)

_OBVIOUS_NON_JOB = (
    "google.com/maps", "facebook.com", "twitter.com", "linkedin.com",
    "youtube.com", "instagram.com", "tiktok.com",
    ".jpg", ".jpeg", ".png", ".gif", ".svg", ".ico",
    ".css", ".js", ".woff", ".woff2", ".ttf", ".eot",
    "/admin/", "/dashboard/", "/login/", "/register/", "/signup/",
    "/privacy/", "/terms/", "/cookie/", "/sitemap/",
    "/about/", "/company/", "/team/", "/contact/", "/services/",
    "/products/", "/solutions/", "/portfolio/", "/news/", "/blog/",
    "/press/", "/media/", "/investor/", "/career/", "/careers/",
    "/gioi-thieu/", "/cong-ty/", "/doi-ngu/", "/lien-he/",
    "/dich-vu/", "/san-pham/", "/giai-phap/", "/tin-tuc/",
    "/bai-viet/", "/thong-cao/", "/truyen-thong/",
)


def _should_exclude_url(url_lower: str) -> bool:
    """scrapy_career_spider.py:297-311 — menu-tab exclusion."""
    for kw in _EXCLUDE_MENU_KEYWORDS:
        if f"/{kw}" in url_lower or url_lower.endswith(f"/{kw}"):
            return True
    for pat in _EXCLUDE_MENU_PATTERNS:
        if pat.match(url_lower):
            return True
    return False


def is_valid_link(link: str, domain: str) -> bool:
    """M7 (scrapy_career_spider.py:264-325): reject fragments/schemes,
    off-domain absolutes, excluded menu tabs, and ~50 non-job substrings."""
    if not link or link.startswith(("#", "javascript:", "mailto:", "tel:")):
        return False
    if link.startswith("http") and domain not in link:
        return False
    link_lower = link.lower()
    if _should_exclude_url(link_lower):
        return False
    for pat in _NON_JOB_SUBSTRINGS:
        if pat in link_lower:
            return False
    return True


def priority_for_link(link: str) -> int:
    """Bucket a link into priority 100/80/50/10 by keyword substring."""
    link_lower = link.lower()
    if any(kw in link_lower for kw in _CAREER_KEYWORDS):
        return 100
    if any(kw in link_lower for kw in _NAV_KEYWORDS):
        return 80
    if any(kw in link_lower for kw in _CONTENT_KEYWORDS):
        return 50
    return 10


def is_job_url(url: str) -> bool:
    """M13 — the spider's job-detail-URL predicate, rule order preserved."""
    url_lower = url.lower()
    for pat in _JOBURL_SKIP:
        if pat in url_lower:
            return False
    if any(ext in url_lower for ext in _JOBURL_SKIP_FILES):
        return False
    if not url.startswith(("http://", "https://")):
        return False
    parsed = urlparse(url)
    domain = parsed.netloc.lower()
    for sub in _CAREER_SUBDOMAINS:
        if domain.startswith(sub):
            path = parsed.path.strip("/")
            if path and len(path.split("/")) >= 1:
                return True
    for pat in _JOB_URL_PATTERNS:
        if pat in url_lower:
            return True
    if "?" in url and any(p in url_lower for p in _JOB_QUERY_PARAMS):
        return True
    path = parsed.path.strip("/")
    if path:
        parts = path.split("/")
        if parts and parts[-1].isdigit():
            return True
    for pat in _OBVIOUS_NON_JOB:
        if pat in url_lower:
            return False
    if (
        url_lower.endswith(("/career", "/careers", "/jobs", "/"))
        or url_lower.rstrip("/").split("/")[-1] in ("career", "careers", "jobs")
    ):
        return False
    if not path or len(path.split("/")) < 2:
        return False
    return False


def join_anchors(facts, url: str) -> list[str | None]:
    """``urljoin`` each anchor's href against the page URL, once per
    distinct href; None for an empty href."""
    cache: dict[str, str] = {}
    out: list[str | None] = []
    for href, _t in facts.anchors:
        if not href:
            out.append(None)
            continue
        full = cache.get(href)
        if full is None:
            full = urljoin(url, href)
            cache[href] = full
        out.append(full)
    return out


def finalize_jobdetail_text(raw: str) -> str:
    """Whitespace-collapse + length gate (job_extraction_service.py:1733-1737)."""
    text = collapse_ws(raw)
    if len(text) > 50:
        return text[:5000]
    return ""
