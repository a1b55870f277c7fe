"""URL / page classification — pure string predicates and scorers.

Re-expressed from the reference spider and services (citations inline).
These are the per-record functions the frontier pipeline applies inside
``map_batches``; they take plain strings (URL, title, page text) so they
need no HTML once extraction has run.

Pinned deviations from the reference (all documented):
* keyword/pattern lists are module-level frozensets/tuples (compiled
  once per worker process, amortized over all batches);
* iteration order fixed = definition order (the reference dicts are
  insertion-ordered already, so behavior is identical).
"""

from __future__ import annotations

import re
from urllib.parse import urlparse, urlsplit

__all__ = [
    "is_valid_link",
    "priority_for_link",
    "PRIORITY_LINK_CAPS",
    "career_page_score",
    "is_career_listing_page",
    "is_homepage",
    "is_job_url",
    "host_of",
    "normalize_url",
]


def host_of(url: str) -> str:
    return urlparse(url).netloc


def normalize_url(u: str) -> str:
    """Strip ``#fragment`` and surrounding whitespace (utils/text.py:26-31)."""
    if "#" in u:
        u = u.split("#", 1)[0]
    return u.strip()


# ---------------------------------------------------------------------------
# M7 — link validity filter (scrapy_career_spider.py:264-325 + 63-90)
# ---------------------------------------------------------------------------

_EXCLUDE_MENU_KEYWORDS = (
    "about", "about-us", "company", "team", "leadership",
    "contact", "contact-us", "support", "help",
    "marketing", "advertising", "seo", "sem", "social-media",
    "content", "blog", "news", "press", "media",
    "api", "documentation", "docs", "tutorial", "guide",
    "pricing", "plans", "features", "benefits",
    "privacy", "terms", "policy", "sitemap", "search",
    "login", "register", "signup", "dashboard",
)

_NON_JOB_SUBSTRINGS = (
    "google.com/maps", "facebook.com", "twitter.com", "linkedin.com",
    "youtube.com", "instagram.com", "tiktok.com",
    "/services/", "/service/", "/products/", "/product/",
    "/solutions/", "/solution/", "/portfolio/", "/about/",
    "/contact/", "/team/", "/company/", "/news/", "/blog/",
    "/press/", "/media/", "/investor/",
    "/dich-vu/", "/san-pham/", "/giai-phap/", "/gioi-thieu/",
    "/lien-he/", "/doi-ngu/", "/cong-ty/", "/tin-tuc/",
    "/bai-viet/", "/thong-cao/", "/truyen-thong/",
    "/privacy/", "/terms/", "/cookie/", "/sitemap/",
    "/search/", "/login/", "/register/", "/signup/",
    "/admin/", "/dashboard/", "/account/", "/profile/",
    ".jpg", ".jpeg", ".png", ".gif", ".svg", ".ico",
    ".css", ".js", ".woff", ".woff2", ".ttf", ".eot",
    ".xml", ".json", ".pdf", ".doc", ".docx",
)


def _any_of(words) -> re.Pattern:
    """One alternation of escaped literals: it matches somewhere exactly
    when one of ``words`` is a substring."""
    return re.compile("|".join(map(re.escape, words)))


# every alternative of the reference's seven menu regexes is one of
# these keywords after a "/", and ``endswith("/kw")`` implies "/kw" in
_EXCLUDE_MENU_RE = _any_of(f"/{kw}" for kw in _EXCLUDE_MENU_KEYWORDS)
_NON_JOB_RE = _any_of(_NON_JOB_SUBSTRINGS)


def _should_exclude_url(url_lower: str) -> bool:
    """scrapy_career_spider.py:297-311 — menu-tab exclusion."""
    return _EXCLUDE_MENU_RE.search(url_lower) is not None


def is_valid_link(link: str, domain: str) -> bool:
    """M7 (scrapy_career_spider.py:264-325): reject fragments/schemes,
    off-domain absolutes, excluded menu tabs, and ~50 non-job substrings."""
    if not link or link.startswith(("#", "javascript:", "mailto:", "tel:")):
        return False
    if link.startswith("http") and domain not in link:
        return False
    link_lower = link.lower()
    return not (_should_exclude_url(link_lower) or _NON_JOB_RE.search(link_lower))


# ---------------------------------------------------------------------------
# M8 — link prioritization (scrapy_career_spider.py:327-415)
# ---------------------------------------------------------------------------

_CAREER_KEYWORDS = (
    "tuyen-dung", "tuyển-dụng", "tuyendung",
    "viec-lam", "việc-làm", "vieclam",
    "co-hoi", "cơ-hội", "cohoi",
    "nhan-vien", "nhân-viên", "nhanvien",
    "ung-vien", "ứng-viên", "ungvien",
    "cong-viec", "công-việc", "congviec",
    "lam-viec", "làm-việc", "lamviec",
    "thu-viec", "thử-việc", "thuviec",
    "chinh-thuc", "chính-thức", "chinhthuc",
    "nghe-nghiep", "nghề-nghiệp", "nghenghiep",
    "tim-viec", "tìm-việc", "timviec",
    "dang-tuyen", "đang-tuyển", "dangtuyen",
    "career", "careers", "job", "jobs",
    "recruitment", "employment", "hiring",
    "work", "position", "opportunity", "vacancy",
    "apply", "application", "join-us",
    "team", "talent", "open-role", "open-roles",
    "we-are-hiring", "work-with-us", "join-our-team",
    "grow-with-us", "build-with-us", "create-with-us",
    "full-time", "part-time", "remote", "hybrid",
    "onsite", "on-site", "freelance", "contract",
    "internship", "intern", "graduate", "entry-level",
    "senior", "junior", "lead", "principal",
    "hr", "human-resource", "human-resources",
    "staff", "employee", "employees",
    "developer", "engineer", "analyst", "manager",
    "specialist", "consultant", "coordinator",
    "assistant", "director", "executive",
    "programmer", "designer", "architect",
    "tester", "qa", "quality-assurance",
    "devops", "admin", "administrator",
    "sales", "marketing", "business",
    "finance", "accounting", "legal",
    "support", "customer-service", "operations",
)

_NAV_KEYWORDS = (
    "about", "about-us", "company", "team", "contact",
    "services", "products", "solutions", "portfolio",
    "giới-thiệu", "công-ty", "đội-ngũ", "liên-hệ",
    "dịch-vụ", "sản-phẩm", "giải-pháp",
)

_CONTENT_KEYWORDS = (
    "news", "blog", "article", "press", "media",
    "tin-tức", "bài-viết", "thông-cáo", "truyền-thông",
)

# per-priority link caps per page (scrapy_career_spider.py:185:
# "5 if priority == 100 else 3 if priority == 80 else 2")
PRIORITY_LINK_CAPS = {100: 5, 80: 3, 50: 2, 10: 2}


_CAREER_RE = _any_of(_CAREER_KEYWORDS)
_NAV_RE = _any_of(_NAV_KEYWORDS)
_CONTENT_RE = _any_of(_CONTENT_KEYWORDS)


def priority_for_link(link: str) -> int:
    """Bucket a link into priority 100/80/50/10 by keyword substring."""
    link_lower = link.lower()
    if _CAREER_RE.search(link_lower):
        return 100
    if _NAV_RE.search(link_lower):
        return 80
    if _CONTENT_RE.search(link_lower):
        return 50
    return 10


# ---------------------------------------------------------------------------
# M9 — career page score (scrapy_career_spider.py:497-546)
# ---------------------------------------------------------------------------

_URL_INDICATORS = (
    "career", "careers", "job", "jobs", "recruitment", "employment",
    "tuyen-dung", "viec-lam", "co-hoi", "nhan-vien", "ung-vien",
    "cong-viec", "lam-viec", "thu-viec", "chinh-thuc", "nghe-nghiep",
)

_TITLE_INDICATORS = (
    "career", "job", "recruitment", "employment", "hiring",
    "tuyển dụng", "việc làm", "cơ hội", "nhân viên", "ứng viên",
    "công việc", "làm việc", "thử việc", "chính thức", "nghề nghiệp",
)

_CONTENT_INDICATORS = (
    "apply", "application", "submit", "join", "work with us",
    "position", "role", "opportunity", "vacancy", "opening",
    "hiring", "recruiting", "employment", "career opportunity",
    "ứng tuyển", "nộp đơn", "tham gia", "làm việc cùng chúng tôi",
    "vị trí", "cơ hội", "tuyển dụng", "việc làm",
)


def career_page_score(url: str, title: str, content: str) -> float:
    """M9: URL hit +0.4 (once), title hit +0.3 (once), content hits +0.1
    each until score ≥ 0.6; min(score, 1.0).  ``content`` is the raw page
    HTML lowercased by us (the reference uses ``response.text``)."""
    url_l, title_l, content_l = url.lower(), title.lower(), content.lower()
    score = 0.0
    for ind in _URL_INDICATORS:
        if ind in url_l:
            score += 0.4
            break
    for ind in _TITLE_INDICATORS:
        if ind in title_l:
            score += 0.3
            break
    for ind in _CONTENT_INDICATORS:
        if ind in content_l:
            score += 0.1
            if score >= 0.6:
                break
    return min(score, 1.0)


# ---------------------------------------------------------------------------
# M10 — career listing page classifier (scrapy_career_spider.py:591-655)
# ---------------------------------------------------------------------------

_HOMEPAGE_PATHS = frozenset(
    ["/", "", "/index.html", "/index.php", "/default.html", "/default.php"]
)


def is_homepage(url: str) -> bool:
    """scrapy_career_spider.py:581-589."""
    parsed = urlparse(url.lower())
    return parsed.path in _HOMEPAGE_PATHS and not parsed.query


_JOB_DETAIL_INDICATORS = (
    "/career/", "/job/", "/position/", "/opportunity/",
    "/tuyen-dung/", "/viec-lam/", "/co-hoi/",
    "senior", "junior", "developer", "engineer", "analyst",
    "manager", "lead", "specialist", "consultant",
)

_CAREER_LISTING_INDICATORS = (
    "career.html", "careers.html", "job.html", "jobs.html",
    "tuyen-dung.html", "viec-lam.html", "co-hoi.html",
    "recruitment", "employment", "hiring", "join us",
    "work with us", "open positions", "current openings",
)

_CAREER_PATH_PATTERNS = (
    "/career", "/careers", "/jobs", "/positions", "/tuyen-dung",
    "/recruitment", "/vacancies", "/openings", "/opportunities",
    "/viec-lam", "/co-hoi", "/nhan-vien", "/ung-vien",
)

_CONTENT_CTA = ("apply now", "view all jobs", "browse positions", "current openings")


def is_career_listing_page(url: str, content: str) -> bool:
    """M10 rule cascade, in reference order."""
    url_l = url.lower()
    if is_homepage(url_l):
        return False
    parsed = urlparse(url_l)
    domain, path = parsed.netloc, parsed.path
    if domain.startswith(("career.", "careers.", "jobs.")):
        return True
    for ind in _JOB_DETAIL_INDICATORS:
        if ind in url_l:
            return False
    for ind in _CAREER_LISTING_INDICATORS:
        if ind in url_l:
            return True
    for pat in _CAREER_PATH_PATTERNS:
        if pat in path:
            return True
    content_l = content.lower()
    if any(ind in content_l for ind in _CONTENT_CTA):
        return True
    return False


# ---------------------------------------------------------------------------
# M13 — job URL classifier (scrapy_career_spider.py:828-953)
# ---------------------------------------------------------------------------

_JOBURL_SKIP = ("javascript:", "mailto:", "tel:", "#", "void(0)", "undefined", "null")
_JOBURL_SKIP_FILES = ("sitemap.xml", "robots.txt", ".xml", ".json", ".pdf", ".doc", ".docx")

_CAREER_SUBDOMAINS = (
    "career.", "careers.", "jobs.", "job.", "work.", "employment.",
    "recruitment.", "hiring.", "talent.", "opportunities.",
    "tuyen-dung.", "viec-lam.", "co-hoi.",
)

_JOB_URL_PATTERNS = (
    "/job/", "/jobs/", "/position/", "/positions/", "/vacancy/", "/vacancies/",
    "/opportunity/", "/opportunities/", "/opening/", "/openings/",
    "/role/", "/roles/", "/posting/", "/postings/", "/listing/", "/listings/",
    "/tuyen-dung/", "/viec-lam/", "/co-hoi/", "/nhan-vien/", "/ung-vien/",
    "/cong-viec/", "/lam-viec/", "/thu-viec/", "/chinh-thuc/",
    "/nghe-nghiep/", "/tim-viec/", "/dang-tuyen/", "/vi-tri/",
    "/developer/", "/engineer/", "/analyst/", "/manager/", "/specialist/",
    "/consultant/", "/coordinator/", "/assistant/", "/director/", "/lead/",
    "/senior/", "/junior/", "/intern/", "/trainee/", "/graduate/",
    "/remote/", "/hybrid/", "/full-time/", "/part-time/", "/contract/",
    "/freelance/", "/temporary/", "/permanent/",
    "/apply/", "/application/", "/candidate/", "/applicant/",
)

_JOB_QUERY_PARAMS = (
    "id=", "job=", "position=", "vacancy=", "role=", "posting=",
    "search=", "q=", "keyword=", "title=", "location=",
)

_JOBURL_SKIP_RE = _any_of(_JOBURL_SKIP + _JOBURL_SKIP_FILES)
_JOB_URL_RE = _any_of(_JOB_URL_PATTERNS)
_JOB_QUERY_RE = _any_of(_JOB_QUERY_PARAMS)


def is_job_url(url: str) -> bool:
    """M13 — the spider's job-detail-URL predicate, rule order preserved.
    The reference's rules after the numeric-tail check all return False."""
    url_lower = url.lower()
    if _JOBURL_SKIP_RE.search(url_lower):
        return False
    if not url.startswith(("http://", "https://")):
        return False
    # urlparse differs from urlsplit only by cutting ";params" off the path
    parsed = urlparse(url) if ";" in url else urlsplit(url)
    path = parsed.path.strip("/")
    if path and parsed.netloc.lower().startswith(_CAREER_SUBDOMAINS):
        return True
    if _JOB_URL_RE.search(url_lower):
        return True
    if "?" in url and _JOB_QUERY_RE.search(url_lower):
        return True
    return path.rsplit("/", 1)[-1].isdigit()
