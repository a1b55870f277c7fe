"""Job-record extraction from parsed pages — the reference's static-HTML
extraction methods, re-expressed as pure functions over :class:`PageFacts`.

Implemented methods (reference citations):

* M18 — job title + job_type from page content
  (``job_extraction_service.py:1672-1792``)
* M21 — description summarizer (``:1102-1118``)
* M24 — jobs from tables (``:2069-2114``)
* M25 — jobs from card regex patterns over page text (``:2192-2283``)
* M26 — jobs from lists / headings (``:2468-2521``)
* M27 — ``_is_job_title`` predicate (``:2523-2566``)
* M32 — hidden jobs from ``<script>`` JS data
  (``hidden_job_extractor_requests.py:84-123``)
* M33 — hidden jobs from hidden elements / ``data-job`` attrs (``:125-170``)
* M34 — job normalizer + job-type canonicalization (``:172-235``)
* D1/D2/D3 — dedup semantics (``job_extraction_service.py:658-673,
  2116-2190, 2285-2320``)

Every function is pure; the Ray stage fans these out per page inside
``map_batches`` and ``flat_map``s the resulting job structs.
"""

from __future__ import annotations

import json
import re
from urllib.parse import urlparse

from .htmltext import PageFacts, collapse_ws

__all__ = [
    "is_job_title",
    "summarize_description",
    "normalize_job_type",
    "extract_company_from_url",
    "extract_jobs_from_tables",
    "extract_jobs_from_lists",
    "extract_jobs_from_headings",
    "extract_jobs_from_cards",
    "extract_jobs_from_scripts",
    "extract_jobs_from_hidden",
    "extract_all_jobs",
    "job_type_from_content",
    "dedup_exact",
    "dedup_by_title_fuzzy",
    "are_titles_similar",
]


# ---------------------------------------------------------------------------
# M27 — job-title predicate (job_extraction_service.py:2523-2566)
# ---------------------------------------------------------------------------

_JOB_INDICATORS = (
    "developer", "engineer", "manager", "analyst", "specialist",
    "coordinator", "assistant", "director", "lead", "head", "chief",
    "architect", "consultant", "advisor", "expert", "professional",
    "programmer", "coder", "tester", "qa", "devops", "sre",
    "senior", "junior", "mid", "entry", "level", "principal", "staff",
    "associate", "executive", "vice", "deputy",
    "full-stack", "frontend", "backend", "mobile", "web",
    "data", "ai", "ml", "blockchain", "crypto", "fintech",
    "marketing", "sales", "hr", "finance", "legal", "operations",
    "python", "java", "javascript", "react", "vue", "angular",
    "node", "php", "c#", "dotnet", "ruby", "go", "rust",
    "aws", "azure", "gcp", "docker", "kubernetes",
)

_NON_JOB_INDICATORS = (
    "health insurance", "working per week", "appreciation bonus",
    "competitive salary", "benefits", "human-centric", "culture",
    "work from home", "remote work", "flexible", "vacation",
    "sick leave", "maternity", "paternity", "retirement",
    "gym membership", "free lunch", "snacks", "coffee",
    "team building", "company events", "training", "education",
)


def is_job_title(text: str) -> bool:
    if not text or len(text) < 5:
        return False
    text_lower = text.lower()
    for ind in _NON_JOB_INDICATORS:
        if ind in text_lower:
            return False
    for ind in _JOB_INDICATORS:
        if ind in text_lower:
            return True
    return False


# ---------------------------------------------------------------------------
# M21 — summarizer (job_extraction_service.py:1102-1118)
# ---------------------------------------------------------------------------

def summarize_description(text: str, max_length: int = 300) -> str:
    if not text:
        return ""
    text = collapse_ws(text)
    if len(text) <= max_length:
        return text
    cutoff = text[:max_length]
    period_pos = cutoff.rfind(".")
    if period_pos >= int(max_length * 0.6):
        return cutoff[: period_pos + 1].strip() + " ..."
    space_pos = cutoff.rfind(" ")
    if space_pos > 0:
        return cutoff[:space_pos].strip() + " ..."
    return cutoff.strip() + " ..."


# ---------------------------------------------------------------------------
# M34 — job-type canonicalization (hidden_job_extractor_requests.py:222-235)
# ---------------------------------------------------------------------------

def normalize_job_type(job_type: str) -> str:
    jt = job_type.lower().strip()
    if any(w in jt for w in ("full-time", "fulltime", "full time", "permanent")):
        return "Full-time"
    if any(w in jt for w in ("part-time", "parttime", "part time", "casual")):
        return "Part-time"
    if any(w in jt for w in ("contract", "temporary", "temp", "freelance")):
        return "Contract"
    if any(w in jt for w in ("internship", "intern", "student", "graduate")):
        return "Internship"
    return "Full-time"


def job_type_from_content(content_lower: str) -> str:
    """M18 job-type keyword cascade (job_extraction_service.py:1745-1760)."""
    if any(t in content_lower for t in ("full-time", "full time", "fulltime")):
        return "Full-time"
    if any(t in content_lower for t in ("part-time", "part time", "parttime")):
        return "Part-time"
    if any(t in content_lower for t in ("contract", "contractor")):
        return "Contract"
    if any(t in content_lower for t in ("intern", "internship")):
        return "Internship"
    if "remote" in content_lower:
        return "Remote"
    if "hybrid" in content_lower:
        return "Hybrid"
    return "Full-time"


def extract_company_from_url(url: str) -> str:
    """job_extraction_service.py:2575-2592 — first domain label, Title-cased."""
    try:
        domain = urlparse(url).netloc.lower()
        if domain.startswith("www."):
            domain = domain[4:]
        company = domain.split(".")[0]
        return company.title() if company else "Unknown"
    except Exception:
        return "Unknown"


# ---------------------------------------------------------------------------
# M24 / M26 — jobs from tables, lists, headings
# ---------------------------------------------------------------------------

def _mk_job(title: str, source: str, description: str = "", location: str = "",
            job_type: str = "Full-time", company: str = "Unknown") -> dict:
    return {
        "title": title,
        "description": description,
        "job_type": job_type,
        "location": location,
        "salary": "",
        "company": company,
        "source": source,
    }


def extract_jobs_from_tables(facts: PageFacts) -> list[dict]:
    """M24: rows with ≥2 cells whose first cell passes ``is_job_title``;
    description = 'Experience: … | Positions: …'."""
    jobs: list[dict] = []
    for table in facts.tables:
        for row in table:
            if len(row) >= 2:
                title = row[0].strip()
                if is_job_title(title):
                    desc = ""
                    experience = row[1].strip()
                    if experience:
                        desc = f"Experience: {experience}"
                    if len(row) > 2:
                        positions = row[2].strip()
                        if positions:
                            desc += f" | Positions: {positions}"
                    jobs.append(_mk_job(title, "table_format", description=desc))
    return jobs


def extract_jobs_from_lists(facts: PageFacts) -> list[dict]:
    return [
        _mk_job(t, "list_format")
        for t in (x.strip() for x in facts.list_items)
        if is_job_title(t)
    ]


def extract_jobs_from_headings(facts: PageFacts) -> list[dict]:
    jobs = []
    for h in ("h1", "h2", "h3", "h4", "h5", "h6"):
        for t in facts.headings[h]:
            t = t.strip()
            if is_job_title(t):
                jobs.append(_mk_job(t, "heading_format"))
    return jobs


# ---------------------------------------------------------------------------
# M25 — jobs from card regex patterns (job_extraction_service.py:2200-2229)
# ---------------------------------------------------------------------------

_CARD_PATTERNS = tuple(
    re.compile(p, re.DOTALL | re.IGNORECASE)
    for p in (
        r"(Thực tập sinh Business Analyst)",
        r"(Technical Solution Manager)",
        r"(Solution Delivery Engineer Intern)",
        r"(Solution Delivery Engineer)(?!\s+Intern)",
        r"(BiPlus Intern)",
        r"(BD Manager)",
        r"(Business Development Assistant)",
        r"(Java Developer \(định hướng lead team\))",
        r"(Java Developer)",
        r"(Flutter Developer)",
        r"(Quản lý nhân sự)",
        r"(Thực tập sinh Hành chính nhân sự)",
        r"(AM - Account Management)",
        r"(BiPlus Internship Program \d{4})",
        r"(BD Manager - Quản lý nhóm phát triển kinh doanh)",
        r"(Project Management)",
        r"(Nhân viên kế toán)",
        r"(Trợ lý kinh doanh)",
        r"([A-Z][a-zA-Z\s]+(?:Developer|Engineer|Manager|Analyst|Specialist|Assistant|Designer))"
        r"[^.\n]*?(?:Singapore Only|Fully Remote|Remote)[^.\n]*?(?:See Details|See|Apply|View)",
        r"\[Remote-HN\]\s+([^-\n]+)",
        r"\[Remote\]\s+([^-\n]+)",
        r"Tuyển dụng.*?(\d{2}/\d{2}/\d{4}):\s*([^-\n]+)",
        r"(\d{2}/\d{2}/\d{4}):\s*([^-\n]+)",
        r"([A-Z][^-\n]*(?:Developer|Engineer|Manager|Analyst|Specialist|Marketing|Test|Freelancer|Assistant|Intern))",
        r"(Chuyên viên|Nhân viên|Quản lý|Trưởng phòng|Giám đốc|Phó giám đốc)\s+[A-Za-zÀ-ỹ\s]+",
        r"(Thực tập sinh|Intern|Trainee|Apprentice)\s+[A-Za-zÀ-ỹ\s]+",
    )
)

_TITLE_SUFFIX_RE = re.compile(r"(Singapore Only|Fully Remote|See Details|See)$")
_COM_PREFIX_RE = re.compile(r"^com\s*")

# --- linear fast paths for the two quadratic card patterns ----------------
# Patterns 18 and 23 backtrack quadratically (together 98 % of the cascade's
# ~170 ms/page on the synthetic corpus); the rest are literal-anchored and
# cheap.  Both fast paths are match-identical to the Python engine — pinned
# by tests/test_re2_twins.py differentials.
_P18_IDX, _P23_IDX = 18, 23
assert _CARD_PATTERNS[_P18_IDX].pattern.startswith(r"([A-Z][a-zA-Z\s]+")
assert _CARD_PATTERNS[_P23_IDX].pattern.startswith(r"([A-Z][^-\n]*")

# Pattern 18 almost never matches (~3 % of pages): prefilter with its RE2
# twin (linear; engine gaps handled per functions/re2twin.py) and run the
# Python engine only on pages with a real match or a fold-gap codepoint.
from .re2twin import RE2_FALLBACK_RX as _RE2_FALLBACK_RX
from .re2twin import re2_twin as _re2_twin

_P18_RE2 = _re2_twin(_CARD_PATTERNS[_P18_IDX].pattern)

# Pattern 23 — ([A-Z][^-\n]*(?:Developer|…|Intern)) — matches often, so a
# prefilter doesn't help; instead simulate it exactly in linear time.  A
# match cannot cross '-' or '\n' (neither [A-Z] nor [^-\n]* nor the literal
# alternatives accept them), so every match lies inside one maximal
# '-'/'\n'-free segment.  Within a segment, leftmost-first start = the
# FIRST letter i, and the greedy star picks the RIGHTMOST alternation
# occurrence starting at q ≥ i+1 (alternatives are prefix-free, so at most
# one word matches per q, overlap-tolerant right scan finds it); the match
# consumes through that word, after which no alternation start remains —
# hence at most ONE match per segment.
_P23_SEG_RX = re.compile(r"[^-\n]+")
_P23_LETTER_RX = re.compile(r"[A-Z]", re.IGNORECASE)
_P23_ALT_RX = re.compile(
    r"Developer|Engineer|Manager|Analyst|Specialist|Marketing|Test|"
    r"Freelancer|Assistant|Intern",
    re.IGNORECASE,
)


def _p23_matches(page_text: str) -> list[str]:
    """Exact linear-time simulation of _CARD_PATTERNS[23].finditer:
    returns group(0) (== group(1)) strings in match order."""
    out: list[str] = []
    for seg_m in _P23_SEG_RX.finditer(page_text):
        seg = seg_m.group()
        first = _P23_LETTER_RX.search(seg)
        if first is None:
            continue
        i = first.start()
        last = None
        m = _P23_ALT_RX.search(seg, i + 1)
        while m:
            last = m
            m = _P23_ALT_RX.search(seg, m.start() + 1)
        if last is not None:
            out.append(seg[i:last.end()])
    return out


def _p18_prefilter_hit(page_text: str) -> bool:
    """True when the Python engine COULD match pattern 18 on this text
    (RE2 twin match, or a fold-gap codepoint forcing the Python path)."""
    if _RE2_FALLBACK_RX.search(page_text):
        return True
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.match_substring_regex(pa.array([page_text]), _P18_RE2)[
        0
    ].as_py()


def _clean_card_title(title: str) -> str:
    t = _TITLE_SUFFIX_RE.sub("", title).strip()
    t = _COM_PREFIX_RE.sub("", t).strip()
    return collapse_ws(t)


def extract_jobs_from_cards(page_text: str, fast: bool = True) -> list[dict]:
    """M25: pattern cascade over the page's visible text; per-title dedup
    on the cleaned title; location inferred from the raw match.

    ``fast=True`` (default) routes the two quadratic patterns through
    their linear twins (match-identical — see module comments above);
    ``fast=False`` is the byte-for-byte reference cascade the
    differential tests compare against."""
    jobs: list[dict] = []
    seen: set[str] = set()
    for idx, pat in enumerate(_CARD_PATTERNS):
        if fast and idx == _P23_IDX:
            pairs = [(s, s) for s in _p23_matches(page_text)]
        else:
            if fast and idx == _P18_IDX and not _p18_prefilter_hit(
                page_text
            ):
                continue
            pairs = [
                (
                    m.group(1) if m.groups() else m.group(0),
                    m.group(0),
                )
                for m in pat.finditer(page_text)
            ]
        for title_src, raw in pairs:
            title = title_src.strip()
            if not title:
                continue
            clean = _clean_card_title(title)
            if not clean or clean in seen or not is_job_title(clean):
                continue
            seen.add(clean)
            location = ""
            if "Singapore Only" in raw:
                location = "Singapore Only"
            elif "Fully Remote" in raw:
                location = "Fully Remote"
            elif "Remote" in raw:
                location = "Remote"
            jobs.append(_mk_job(clean, "card_format", location=location))
    return jobs


# ---------------------------------------------------------------------------
# M32 / M33 — hidden jobs (JS data, hidden elements, data-job attrs)
# ---------------------------------------------------------------------------

_JS_DATA_PATTERNS = tuple(
    re.compile(p, re.IGNORECASE | re.DOTALL)
    for p in (
        r"jobs\s*:\s*(\[.*?\])",
        r"careers\s*:\s*(\[.*?\])",
        r"positions\s*:\s*(\[.*?\])",
        r"openings\s*:\s*(\[.*?\])",
        r"vacancies\s*:\s*(\[.*?\])",
    )
)


def normalize_job_data(job_data: dict) -> dict | None:
    """M34 field-alias coalescing; None unless title ≥ 3 chars."""
    title = job_data.get("title", "") or job_data.get("name", "") or job_data.get("position", "")
    if not title or len(str(title).strip()) < 3:
        return None
    company = job_data.get("company", "") or job_data.get("employer", "")
    location = (
        job_data.get("location", "") or job_data.get("city", "") or job_data.get("address", "")
    )
    description = (
        job_data.get("description", "") or job_data.get("summary", "") or job_data.get("details", "")
    )
    jt = (
        job_data.get("job_type", "") or job_data.get("type", "")
        or job_data.get("employment_type", "")
    )
    job_type = normalize_job_type(jt) if jt else "Full-time"
    salary = job_data.get("salary", "") or job_data.get("compensation", "") or job_data.get("pay", "")
    return {
        "title": str(title).strip(),
        "company": str(company).strip(),
        "location": str(location).strip(),
        "job_type": job_type,
        "salary": str(salary).strip(),
        "description": str(description).strip(),
        "source": "js_data",
    }


def extract_jobs_from_scripts(facts: PageFacts, max_scripts: int = 3,
                              max_jobs_per_match: int = 5) -> list[dict]:
    """M32: regex JSON arrays out of the first ``max_scripts`` script bodies."""
    jobs: list[dict] = []
    for body in facts.script_bodies[:max_scripts]:
        for pat in _JS_DATA_PATTERNS:
            for match in pat.findall(body):
                try:
                    data = json.loads(match)
                except json.JSONDecodeError:
                    continue
                if isinstance(data, list):
                    for job in data[:max_jobs_per_match]:
                        if isinstance(job, dict):
                            nj = normalize_job_data(job)
                            if nj:
                                jobs.append(nj)
    return jobs


def extract_jobs_from_hidden(facts: PageFacts, max_hidden: int = 3,
                             max_attrs: int = 5) -> list[dict]:
    """M33: hidden-element texts that look like job titles + parsed
    ``data-job`` JSON attributes."""
    jobs: list[dict] = []
    for text in facts.hidden_texts[:max_hidden]:
        if is_job_title(text):
            jobs.append(_mk_job(text, "hidden_element"))
    for attr in facts.data_job_attrs[:max_attrs]:
        try:
            data = json.loads(attr)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            nj = normalize_job_data(data)
            if nj:
                nj["source"] = "data_attribute"
                jobs.append(nj)
    return jobs


def extract_all_jobs(facts: PageFacts, page_text: str, source_url: str) -> list[dict]:
    """All static extraction methods, in a fixed order; company filled from
    the URL; ``job_index`` assigned by position (the reference addresses
    embedded jobs as ``{url}?job_index={i}``, job_extraction_service.py:884-895)."""
    company = extract_company_from_url(source_url)
    jobs = (
        extract_jobs_from_tables(facts)
        + extract_jobs_from_cards(page_text)
        + extract_jobs_from_lists(facts)
        + extract_jobs_from_headings(facts)
        + extract_jobs_from_scripts(facts)
        + extract_jobs_from_hidden(facts)
    )
    out = []
    for i, job in enumerate(dedup_exact(dedup_by_title_fuzzy(jobs))):
        job = dict(job)
        job.setdefault("company", company)
        if not job.get("company") or job["company"] == "Unknown":
            job["company"] = company
        job["source_url"] = source_url
        job["job_index"] = i
        out.append(job)
    return out


# ---------------------------------------------------------------------------
# D1 / D2 — dedup semantics
# ---------------------------------------------------------------------------

def dedup_exact(jobs: list[dict]) -> list[dict]:
    """D1 (job_extraction_service.py:658-673): key = lower(title)|lower(company),
    keep first."""
    seen: set[str] = set()
    out = []
    for job in jobs:
        key = f"{job.get('title', '').lower().strip()}|{job.get('company', '').lower().strip()}"
        if key not in seen:
            seen.add(key)
            out.append(job)
    return out


_COMMON_WORDS = frozenset(
    ["the", "a", "an", "and", "or", "of", "in", "at", "to", "for", "with", "by"]
)


def are_titles_similar(title1: str, title2: str) -> bool:
    """D2 (job_extraction_service.py:2161-2190): exact match; subset with
    ≤1-word symmetric difference; or ≥3 shared significant words."""
    words1 = set(title1.split()) - _COMMON_WORDS
    words2 = set(title2.split()) - _COMMON_WORDS
    if title1 == title2:
        return True
    if words1.issubset(words2) or words2.issubset(words1):
        return len(words1.symmetric_difference(words2)) <= 1
    return len(words1.intersection(words2)) >= 3


_GENERIC_SINGLE_TITLES = frozenset(
    ["engineer", "developer", "manager", "analyst", "assistant", "specialist"]
)


def dedup_by_title_fuzzy(jobs: list[dict]) -> list[dict]:
    """D2 (job_extraction_service.py:2116-2159): drop generic one-word /
    short titles, then first-wins fuzzy title dedup."""
    filtered = []
    for job in jobs:
        title = job.get("title", "").lower().strip()
        if len(title.split()) <= 1 and title in _GENERIC_SINGLE_TITLES:
            continue
        if len(title) < 5:
            continue
        filtered.append(job)
    unique: list[dict] = []
    seen_titles: set[str] = set()
    for job in filtered:
        title_lower = job.get("title", "").strip().lower()
        if title_lower in seen_titles:
            continue
        if any(are_titles_similar(title_lower, s) for s in seen_titles):
            continue
        unique.append(job)
        seen_titles.add(title_lower)
    return unique
