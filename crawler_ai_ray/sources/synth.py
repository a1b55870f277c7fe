"""Deterministic synthetic web corpus (FIXTURES.md F1/F2) — the sandbox
"network".

Generates the ``pages`` Parquet table exactly per the driver's input_hint
``(url:string, warc_ts:timestamp[ms], html:binary, text:string,
lang:string)`` plus golden side-tables used by tests and by the DuckDB
oracle SQL:

* ``pages.parquet``   — the corpus; ``text`` is the **golden** jobdetail
  text produced by the *oracle* extractor
  (:mod:`crawler_ai_ray.oracle.extract_oracle`), i.e. the independent
  implementation, so engine-vs-golden comparisons are a real check.
* ``golden.parquet``  — per-url golden extraction facts (crawldata text,
  title, contacts, links, classification) — FIXTURES.md F3a/F3b.
* ``jobs_golden.parquet`` — per (source_url, job_index) job records (F3c).
* ``seeds.parquet``   — seed homepages with ``seed_order`` (F2).
* ``hostcfg.parquet`` — per-host politeness/robots config (F6).

Everything is seeded (``seed=42`` by default) with per-host derived
string seeds (`random.Random(str)` uses sha512 seeding — stable across
processes and platforms, independent of PYTHONHASHSEED).  The corpus for
a given (tag, n_hosts, CORPUS_VERSION) is therefore byte-stable, so the
DuckDB oracle and the Ray engine can both regenerate/read it at any time.

Link-graph guarantees (F2): every host has homepage → nav → career page
→ job pages (depth ≤ 3); cross-host links exist (must be filtered);
duplicate + ``#fragment`` links exist; one hot host (index 0) has a much
larger crawl budget and a deep job-board subgraph (skew fixture); trap
URLs exercise the reject rules (dates, long ids, assets).
"""

from __future__ import annotations

import os
import random
from datetime import datetime, timezone

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import (
    api_jobs,
    career_urls,
    classify,
    contact_record,
    contacts,
    container_jobs,
    footer_contacts,
    link_scoring,
    minidom,
    job_fallback,
    job_quality,
    job_validation,
    page_meta,
    page_structure,
    subdomains,
    job_urls,
    jobs as jobfns,
    sitemap,
)
from ..functions.htmltext import (
    extract_anchor_pairs,
    extract_out_links,
    facts_crawldata_text,
)
from ..oracle import contacts_oracle
from ..oracle.facts_oracle import parse_page
from ..oracle.extract_oracle import oracle_text_jobdetail

# Bump when generation or golden semantics change (stale /tmp caches are
# keyed by this).
CORPUS_VERSION = "v26"  # v26: DUST alias pages (tracking-param url variants, identical html)

# DUST alias query params: none may contain a classify/career keyword
# substring (checked by tests/test_corpus_invariants.py)
_DUST_PARAMS = ("utm=mirror1", "ref=dup", "fbclid=x7")

DEFAULT_ROOT = os.environ.get("GRAFT_CORPUS_ROOT", "/tmp/crawler_ai_ray_corpus")

# corpus scale per testdata tag
HOSTS_BY_TAG = {
    "unit": 8,
    "sf0.001": 30,
    "sf0.01": 120,
    "sf0.1": 1200,
}

_BASE_TS_MS = int(datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp() * 1000)

_TLDS = ["com", "vn", "io", "net"]

_EN_WORDS = (
    "platform cloud data service team product quality growth innovation partner "
    "customer solution digital market global system process design build deliver "
    "secure scale network analytics insight strategy value trust modern agile"
).split()

_VI_WORDS = (
    "công ty phát triển phần mềm dịch vụ khách hàng chất lượng đội ngũ sản phẩm "
    "giải pháp công nghệ thông tin hệ thống quy trình thiết kế xây dựng bảo mật "
    "mở rộng mạng lưới phân tích chiến lược giá trị tin cậy hiện đại"
).split()

_JOB_TITLES_EN = [
    "Senior Java Developer", "Java Developer", "Flutter Developer",
    "Backend Engineer", "Frontend Developer", "Data Analyst",
    "DevOps Engineer", "QA Tester", "Product Manager", "Business Analyst Intern",
    "Technical Solution Manager", "Solution Delivery Engineer",
    "Mobile Developer", "Cloud Architect", "Marketing Specialist",
    "Sales Executive", "HR Specialist", "Finance Analyst",
]

_JOB_TITLES_VI = [
    "Nhân viên kế toán", "Trợ lý kinh doanh", "Quản lý nhân sự",
    "Thực tập sinh Business Analyst", "Java Developer (định hướng lead team)",
    "Chuyên viên tuyển dụng", "Nhân viên kinh doanh", "Trưởng phòng kỹ thuật",
]

_JOB_TYPES = ["Full-time", "Part-time", "Contract", "Internship", "Remote", "Hybrid"]

_SALARIES = ["$1000-$2000", "15-25 triệu", "Negotiable", "Up to $3000", "Thỏa thuận"]


def _slug(s: str) -> str:
    out = []
    for ch in s.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch in " -_()":
            out.append("-")
    slug = "".join(out)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def _para(rng: random.Random, words: list[str], n: int) -> str:
    # Commas/periods every few words keep the text realistic and bound the
    # backtracking of the reference-exact card regexes (M25), whose cost is
    # quadratic in the length of punctuation-free alphabetic runs.
    out = []
    run = 0
    for _ in range(n):
        w = rng.choice(words)
        out.append(w)
        run += 1
        if run >= rng.randint(4, 8):
            out[-1] = w + rng.choice([",", ".", ",", ";"])
            run = 0
    return " ".join(out).capitalize() + "."


def _padding(rng: random.Random, words: list[str], target_kb: float) -> str:
    """Filler paragraphs totalling roughly target_kb kilobytes."""
    paras = []
    size = 0
    target = int(target_kb * 1024)
    while size < target:
        p = _para(rng, words, rng.randint(30, 80))
        paras.append(f"<p>{p}</p>")
        size += len(p) + 7
    return "\n".join(paras)


class _Host:
    def __init__(self, idx: int, seed: int) -> None:
        rng = random.Random(f"{seed}:host:{idx}")
        self.idx = idx
        self.rng = rng
        self.lang = "vi" if rng.random() < 0.4 else "en"
        # NB: host names must not collide with the M7 exclusion substrings
        # (e.g. "company" — '/company' matches the host part of the URL in
        # the reference's full-URL check, scrapy_career_spider.py:297-311)
        self.name = f"firm{idx}"
        self.tld = rng.choice(_TLDS)
        self.domain = f"{self.name}.{self.tld}"
        self.base = f"https://{self.domain}"
        self.career_sub = rng.random() < 0.25       # careers.{domain} subdomain
        self.career_path = (
            "/tuyen-dung" if self.lang == "vi" else rng.choice(["/careers", "/jobs"])
        )
        self.hot = idx == 0                          # skew fixture
        self.n_jobs = rng.randint(60, 90) if self.hot else rng.randint(4, 12)
        self.max_pages = 400 if self.hot else 50
        self.crawl_delay_s = 1.0 if rng.random() < 0.2 else 0.0
        self.robots_disallow = (
            ["/products/", "/blog/"] if rng.random() < 0.25 else []
        )
        self.email = f"hr@{self.domain}"
        self.phone = f"09{rng.randint(10000000, 99999999)}"
        titles = _JOB_TITLES_EN if self.lang == "en" else (_JOB_TITLES_VI + _JOB_TITLES_EN)
        k = min(self.n_jobs, len(titles))
        self.job_titles = rng.sample(titles, k)
        while len(self.job_titles) < self.n_jobs:
            t = rng.choice(titles)
            self.job_titles.append(f"{t} {len(self.job_titles)}")
        self.words = _EN_WORDS if self.lang == "en" else _VI_WORDS


def _page_shell(host: _Host, title: str, desc: str, nav_links: list[tuple[str, str]],
                body: str, footer_extra: str = "") -> str:
    nav_html = "".join(f'<a href="{h}">{t}</a> ' for h, t in nav_links)
    return f"""<!DOCTYPE html>
<html lang="{host.lang}"><head>
<title>{title}</title>
<meta name="description" content="{desc}">
<style>.card{{border:1px solid #ccc}} .hidden{{display:none}}</style>
</head><body>
<header><div class="logo">{host.name.title()}</div>
<nav>{nav_html}</nav></header>
<main>
{body}
</main>
<footer>
<p>Contact: <a href="mailto:{host.email}">{host.email}</a> | Hotline: {host.phone[:4]} {host.phone[4:7]} {host.phone[7:]}</p>
<p><a href="https://facebook.com/{host.name}">Facebook</a>
<a href="/contact">Contact us</a> <a href="/about">About</a></p>
<img src="/assets/cropped-favicon-32x32.png" alt="favicon@2x.png">
{footer_extra}
</footer>
</body></html>"""


def _gen_host_pages(host: _Host) -> list[dict]:
    """All pages for one host: list of dicts url/html/lang."""
    rng = host.rng
    pages: list[dict] = []
    career_url = f"{host.base}{host.career_path}"
    careers_domain = f"https://careers.{host.domain}" if host.career_sub else None

    vi = host.lang == "vi"
    nav = [
        ("/about", "Giới thiệu" if vi else "About us"),
        (host.career_path, "Tuyển dụng" if vi else "Careers"),
        ("/blog", "Tin tức" if vi else "Blog"),
        ("/products/1", "Sản phẩm" if vi else "Products"),
        ("/contact", "Liên hệ" if vi else "Contact"),
    ]

    n_blog = rng.randint(2, 6)
    n_products = rng.randint(1, 4)
    blog_urls = [
        f"/blog/2024/{rng.randint(1, 12):02d}/post-{i}" for i in range(n_blog)
    ]

    # --- homepage -----------------------------------------------------
    cross = f"https://firm{(host.idx + 1) % 997}.com/"
    body = f"""
<h1>Welcome to {host.name.title()}</h1>
<h2>{'Chúng tôi xây dựng tương lai' if vi else 'We build the future'}</h2>
{_padding(rng, host.words, rng.uniform(1, 6))}
<p><a href="{host.career_path}">{'Cơ hội việc làm' if vi else 'Join our team'}</a>
<a href="{host.career_path}#positions">{'Vị trí đang tuyển' if vi else 'Open roles'}</a>
<a href="{cross}">Partner site</a>
<a href="{blog_urls[0]}">Latest news</a>
<a href="/assets/brochure.pdf">Brochure</a></p>
"""
    if careers_domain:
        body += f'<p><a href="{careers_domain}/openings">All openings</a></p>'
    pages.append({
        "url": f"{host.base}/",
        "html": _page_shell(host, f"{host.name.title()} - Home",
                            f"{host.name.title()} official website", nav, body),
    })

    # --- about / contact ---------------------------------------------
    pages.append({
        "url": f"{host.base}/about",
        "html": _page_shell(host, f"About {host.name.title()}",
                            "Company profile", nav,
                            f"<h1>About us</h1>{_padding(rng, host.words, rng.uniform(1, 4))}"),
    })
    contact_body = f"""
<h1>Contact</h1>
<p>Email: sales@{host.domain} or {host.email}</p>
<p>{'Điện thoại' if vi else 'Phone'}: +84 {host.phone[1:3]} {host.phone[3:6]} {host.phone[6:]}​</p>
<p>Office: 123 Main Street</p>
{_padding(rng, host.words, 1)}
"""
    pages.append({
        "url": f"{host.base}/contact",
        "html": _page_shell(host, f"Contact {host.name.title()}", "Get in touch",
                            nav, contact_body),
    })

    # --- blog + products (noise / robots targets) --------------------
    for i, bu in enumerate(blog_urls):
        pages.append({
            "url": f"{host.base}{bu}",
            "html": _page_shell(
                host, f"Blog post {i}", "News article", nav,
                f"<h1>Story {i}</h1>{_padding(rng, host.words, rng.uniform(2, 12))}"
                f'<p><a href="{blog_urls[(i + 1) % n_blog]}">Next post</a></p>'),
        })
    for i in range(n_products):
        pages.append({
            "url": f"{host.base}/products/{i + 1}",
            "html": _page_shell(
                host, f"Product {i + 1}", "Product detail", nav,
                f"<h1>Product {i + 1}</h1>{_padding(rng, host.words, rng.uniform(1, 8))}"),
        })

    # --- job detail pages --------------------------------------------
    job_path = "/tuyen-dung" if vi else "/jobs"
    job_urls = []
    for j, title in enumerate(host.job_titles):
        ju = f"{host.base}{job_path}/{_slug(title)}-{j}"
        job_urls.append((ju, title))
    for j, (ju, title) in enumerate(job_urls):
        jt = rng.choice(_JOB_TYPES)
        salary = rng.choice(_SALARIES)
        related = job_urls[(j + 1) % len(job_urls)][0]
        body = f"""
<h1>{title}</h1>
<p>{'Hình thức' if vi else 'Job type'}: {jt.lower()} position. Salary: {salary}.</p>
<p>{'Ngày đăng' if vi else 'Posted'}: {rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/2024</p>
<h2>Requirements</h2>
<ul><li>{rng.randint(1, 5)}+ years experience</li><li>Team player mindset</li></ul>
{_padding(rng, host.words, rng.uniform(2, 20))}
<p><a href="{related}">Related position</a> <a href="{host.career_path}">All jobs</a></p>
<p><a href="/apply/{j}?id={j + 100}">Apply now</a></p>
"""
        pages.append({
            "url": ju,
            "html": _page_shell(host, f"{title} - {host.name.title()}",
                                f"Job opening: {title}", nav, body),
        })

    # --- career listing page(s) --------------------------------------
    # archetypes rotate so every extraction method (table/card/list/
    # heading/js/hidden) is exercised somewhere in the corpus
    archetype = host.idx % 4
    n_career_pages = max(1, (len(job_urls) + 19) // 20)  # paginate by 20
    for pg in range(n_career_pages):
        chunk = job_urls[pg * 20: (pg + 1) * 20]
        links_html = "".join(
            f'<div class="job-card"><a href="{u}">{t}</a></div>\n' for u, t in chunk
        )
        extra = ""
        if archetype == 0 and pg == 0:
            rows = "".join(
                f"<tr><td>{t}</td><td>{rng.randint(1, 5)} years</td><td>{rng.randint(1, 4)}</td></tr>"
                for _, t in chunk[:5]
            )
            extra += f"<table><tr><th>Position</th><th>Experience</th><th>Slots</th></tr>{rows}</table>"
        elif archetype == 1 and pg == 0:
            extra += "<ul>" + "".join(f"<li>{t}</li>" for _, t in chunk[:6]) + "</ul>"
        elif archetype == 2 and pg == 0:
            js_jobs = ", ".join(
                '{"title": "%s", "type": "%s"}' % (t, rng.choice(_JOB_TYPES))
                for _, t in chunk[:4]
            )
            extra += f'<script>var data = {{ jobs: [{js_jobs}] }};</script>'
            extra += (
                f'<div class="hidden">{chunk[0][1]} - hidden opening</div>'
                if chunk else ""
            )
        elif archetype == 3 and pg == 0:
            extra += "".join(f"<h3>{t}</h3><p>Apply today</p>" for _, t in chunk[:5])
            if chunk:
                extra += (
                    '<div data-job=\'{"title": "%s", "location": "Remote"}\'>●</div>'
                    % chunk[0][1]
                )
        pag = ""
        if n_career_pages > 1:
            pag = "".join(
                f'<a href="{host.career_path}?page={p + 1}">Page {p + 1}</a> '
                for p in range(n_career_pages)
            )
        body = f"""
<h1>{'Tuyển dụng' if vi else 'Careers'}</h1>
<h2>{'Vị trí đang tuyển' if vi else 'Open positions'}</h2>
<p>{'Ứng tuyển ngay hôm nay' if vi else 'Apply now and join our team'}.</p>
{links_html}
{extra}
{pag}
{_padding(rng, host.words, rng.uniform(0.5, 2))}
<p><a href="{host.career_path}#top">Back to top</a></p>
"""
        url = career_url if pg == 0 else f"{career_url}?page={pg + 1}"
        pages.append({
            "url": url,
            "html": _page_shell(host, f"Careers - {host.name.title()}",
                                "Open positions", nav, body),
        })

    # --- careers subdomain -------------------------------------------
    if careers_domain:
        sub_nav = [("/openings", "Openings"), (f"{host.base}/", "Main site")]
        links_html = "".join(
            f'<p><a href="{u}">{t}</a></p>' for u, t in job_urls[:8]
        )
        pages.append({
            "url": f"{careers_domain}/openings",
            "html": _page_shell(host, f"Openings - {host.name.title()}",
                                "All open positions", sub_nav,
                                f"<h1>Current openings</h1>{links_html}"),
        })

    # --- sitemap.xml (S9 fixture; unlinked → never enters the frontier)
    locs = "".join(
        f"  <url><loc>{p['url']}</loc></url>\n" for p in pages
    )
    pages.append({
        "url": f"{host.base}/sitemap.xml",
        "html": (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
            f"{locs}"
            f"  <url><loc>{host.base}/press/release-1</loc></url>\n"
            "</urlset>"
        ),
    })

    # --- JSON API endpoint (M31 fixture; shape rotates by host) ------
    api_jobs = [
        {
            ("title", "name", "position")[i % 3]: t,
            "type": _JOB_TYPES[i % len(_JOB_TYPES)],
            "location": ("Hanoi", "Remote", "")[i % 3],
            ("url", "link", "apply_url")[i % 3]: u,
            "salary": _SALARIES[i % len(_SALARIES)],
        }
        for i, (u, t) in enumerate(job_urls[:6])
    ]
    shape = host.idx % 5
    if shape == 0:
        payload = {"jobs": api_jobs}
    elif shape == 1:
        payload = {"data": {"jobs": api_jobs}}
    elif shape == 2:
        payload = {"results": api_jobs}
    elif shape == 3:
        payload = {"items": api_jobs}
    else:
        payload = api_jobs
    import json as _json

    pages.append({
        "url": f"{host.base}/api/jobs",
        "html": _json.dumps(payload, sort_keys=True),
    })

    return pages


# ---------------------------------------------------------------------------
# golden computation
# ---------------------------------------------------------------------------

def _golden_for_page(url: str, html: str) -> tuple[dict, list[dict]]:
    """Golden extraction facts for one page.

    ``text`` comes from the independent oracle extractor and the page
    facts from the reference parser copy (``oracle/facts_oracle.py``);
    the remaining fields are produced by the same pure functions the
    engine stages use (their unit tests pin the semantics; the golden
    comparison then checks the distributed plumbing end-to-end).
    """
    facts = parse_page(html)
    text = oracle_text_jobdetail(html)
    page_text = "".join(facts.text_pieces)  # soup.get_text() analogue for M25
    title = (facts.title or "").strip()
    all_links = []
    seen = set()
    from urllib.parse import urljoin
    for href, _t in facts.anchors:
        if not href:
            continue
        full = urljoin(url, href)
        if full not in seen:
            seen.add(full)
            all_links.append(full)
    anchor_pairs = extract_anchor_pairs(facts, url)
    row = {
        "url": url,
        "text": text,
        "text_crawldata": facts_crawldata_text(facts),
        "title": title,
        "meta_description": facts.meta_description,
        "emails": contacts_oracle.extract_emails(html),
        "phones_loose": contacts.extract_phones_loose(html),
        "phones_vn": contacts_oracle.extract_phones_vn(text),
        "out_links": extract_out_links(facts, url),
        "all_links": all_links,
        # aligned (target_host, anchor_text) pairs — the anchor-corpus
        # projection (htmltext.extract_anchor_pairs)
        "anchor_hosts": [h for h, _ in anchor_pairs],
        "anchor_texts": [t for _, t in anchor_pairs],
        "priority": classify.priority_for_link(url),
        "is_career_listing": classify.is_career_listing_page(url, html),
        "career_score": classify.career_page_score(url, title, html),
        "is_job_url": classify.is_job_url(url),
        "n_tokens": len(text.split()),
    }
    row.update(
        {
            "is_job_url_service": job_urls.is_job_url_service(url),
            "is_valid_job_pattern": job_urls.is_valid_job_url_pattern(url),
            "is_career_page_url": job_urls.is_career_page_url(url),
            "is_pagination_url": job_urls.is_pagination_url(url),
            "pagination_candidates": job_urls.pagination_candidates(url),
        }
    )
    md = page_meta.page_metadata(facts)
    m4_title, m4_desc = page_meta.extract_title_description(facts)
    ps = page_structure.analyze_page_structure(
        url, [h for h, _ in facts.anchors], "".join(facts.all_pieces)
    )
    row.update(
        {
            "n_meta_tags": len(md["meta_tags"]),
            "n_og_tags": len(md["og_tags"]),
            "n_twitter_tags": len(md["twitter_tags"]),
            "n_structured_data": md["n_structured_data"],
            "title_tag": md["title_tag"],
            "head_scripts": md["head_scripts"],
            "head_styles": md["head_styles"],
            "images": md["images"],
            "links": md["links"],
            "og_title": md["og_tags"].get("og:title", ""),
            "og_description": md["og_tags"].get("og:description", ""),
            "twitter_card": md["twitter_tags"].get("twitter:card", ""),
            "m4_title": m4_title,
            "m4_description": m4_desc,
            "ps_page_type": ps["page_type"],
            "ps_has_individual": ps["has_individual_urls"],
            "ps_has_embedded": ps["has_embedded_jobs"],
            "ps_job_count": ps["job_count"],
            "ps_strategy": ps["recommended_strategy"],
            "ps_individual_found": ps["individual_urls_found"],
            "ps_embedded_found": ps["embedded_jobs_found"],
            "ps_text_length": ps["page_text_length"],
            "ps_detected_type": page_structure.detect_page_type(
                url, [h for h, _ in facts.anchors]
            ),
            "ps_listing_redirect": page_structure.find_job_listing_redirect(
                url, facts.clickables
            )
            or "",
        }
    )
    m19 = job_fallback.extract_job_from_main_content(facts, url)
    m20 = job_fallback.extract_job_alternative(facts, url)
    row.update(
        {
            "fb_title": m19.get("job_name", ""),
            "fb_description": m19.get("job_description", ""),
            "alt_title": m20.get("job_name", ""),
            "alt_description": m20.get("job_description", ""),
        }
    )
    row["nav_links"] = page_structure.extract_all_links_nav(
        html, classify.host_of(url)
    )
    cj = container_jobs.container_jobs(html, url)
    ls = link_scoring.extract_job_links_detailed(html, url)
    ec_root = minidom.build_tree(html)
    ec_rows = []
    ec_idx = 0
    for el in ec_root.iter_elements():
        if el.tag in ("div", "section", "article", "li") and el.attrs.get(
            "class"
        ) is not None:
            v = link_scoring.check_element_for_job(el)
            ec_rows.append((ec_idx, el.tag, v["is_likely_job"],
                            round(v["confidence"], 10)))
            ec_idx += 1
    row.update(
        {
            "cj_index": [j["job_index"] for j in cj],
            "cj_title": [j["title"] for j in cj],
            "cj_job_type": [j["job_type"] for j in cj],
            "cj_location": [j["location"] for j in cj],
            "cj_salary": [j["salary"] for j in cj],
            "cj_link": [j["job_link"] for j in cj],
            "ls_url": [r["url"] for r in ls],
            "ls_text": [r["text"] for r in ls],
            "ls_score": [r["job_score"] for r in ls],
            "ls_card": [r["is_direct_card"] for r in ls],
            "ec_index": [r[0] for r in ec_rows],
            "ec_tag": [r[1] for r in ec_rows],
            "ec_likely": [r[2] for r in ec_rows],
            "ec_conf": [r[3] for r in ec_rows],
        }
    )
    fc = footer_contacts.footer_contact_info(html)
    row["footer_phones"] = fc["phones"]
    row["footer_emails"] = fc["emails"]
    row["subdomain_candidates"] = subdomains.subdomain_candidates(url, html)
    social = contact_record.social_media_links(html, row["out_links"])
    forms = contact_record.detect_contact_forms(row["out_links"])
    m38_pages, m38_texts, m38_conf = contact_record.career_anchor_links(
        facts.anchors, url
    )
    row.update(
        {
            "social_links": social,
            "contact_forms": forms,
            "m38_career_pages": m38_pages,
            "m38_career_texts": m38_texts,
            "m38_confidence": m38_conf,
        }
    )
    m11 = career_urls.career_url_confidence(url)
    m12_ok, m12_score = career_urls.strict_filter_accepts(url)
    row.update(
        {
            "m11_confidence": round(m11["confidence"], 10),
            "m11_is_career_page": m11["is_career_page"],
            "m11_is_potential": m11["is_potential"],
            "m11_rejection_reason": m11["rejection_reason"],
            "m11_n_indicators": m11["n_indicators"],
            "m12_accept": m12_ok,
            "m12_score": m12_score,
        }
    )
    job_rows = []
    # Embedded-job extraction runs only on career listing pages, mirroring
    # the reference dispatch (job_extraction_service.py:864-930).
    jobs_found = (
        jobfns.extract_all_jobs(facts, page_text, url)
        if row["is_career_listing"]
        else []
    )
    for job in jobs_found:
        jrow = {
            "source_url": url,
            "job_index": job["job_index"],
            "title": job["title"],
            "company": job["company"],
            "location": job["location"],
            "job_type": job["job_type"],
            "salary": job["salary"],
            "description": job["description"],
            "summary": jobfns.summarize_description(job["description"]),
            "source": job["source"],
        }
        v_ok, v_reason = job_validation.validate_job(jrow, url)
        v_resp = job_validation.format_job_response(dict(jrow), url)
        jrow.update(
            {
                "is_valid": v_ok,
                "v_reason": v_reason,
                "response_success": v_resp["success"],
            }
        )
        # enrichment + analyzer goldens (enh_* = post-enhancement values
        # so the raw columns above stay comparable for crawl_jobs)
        enh = job_quality.enhance_job(jrow, url)
        desc = enh.get("description", "") or ""
        posted = job_quality.extract_posted_date(desc) or ""
        req, ben = job_quality.extract_requirements_benefits(desc)
        enh["posted_date"], enh["requirements"], enh["benefits"] = (
            posted, req, ben,
        )
        q = job_quality.quality_scores(enh)
        jrow.update(
            {
                "enh_company": enh["company"],
                "enh_location": enh["location"],
                "enh_job_type": enh["job_type"],
                "enh_salary": enh["salary"],
                "posted_date": posted,
                "requirements": req,
                "benefits": ben,
                "level": job_quality.extract_job_level(jrow["title"]),
                "category": job_quality.categorize_job(jrow["title"]),
                "technologies": job_quality.extract_technologies(
                    f"{jrow['title']} {desc}"
                ),
                "q_completeness": q["completeness"],
                "q_relevance": q["relevance"],
                "q_freshness": q["freshness"],
                "q_overall": q["overall"],
            }
        )
        job_rows.append(jrow)

    # S9 / M31 goldens
    row["sitemap_job_locs"] = (
        sitemap.filter_job_locs(sitemap.parse_sitemap_locs(html))
        if url.endswith("/sitemap.xml")
        else []
    )
    api_rows: list[dict] = []
    if "/api/" in url:
        import json as _json

        try:
            data = _json.loads(html)
        except ValueError:
            data = None
        if data is not None:
            for i, job in enumerate(api_jobs.parse_api_job_data(data, url)):
                api_rows.append(
                    {"source_url": url, "job_index": i, **job}
                )
    return row, job_rows, api_rows


# ---------------------------------------------------------------------------
# table assembly / caching
# ---------------------------------------------------------------------------

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("ms")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
        # crc32(host) % 256 — the PageStore shard key at 256-bucket
        # granularity.  Pages are written SORTED by this column so a
        # shard actor's init reads only its own row groups via a
        # stats-pruned parquet filter instead of decoding the whole
        # corpus × num_shards (state/pagestore.py).
        ("hshard", pa.int32()),
    ]
)


# fetch-outcome fixtures (S1/S2 error taxonomy — functions/fetch_errors):
# (path-or-sentinel, head_status, attempt outcomes).  Paths never collide
# with generated pages and are NOT linked, so crawl ordering/seen-set
# conformance is untouched; they exist for the fetch_results population.
_FETCH_ERROR_FIXTURES = [
    ("/gone-archive", 410, [410, 410, 410]),     # HEAD-kill → not_found
    ("/old-jobs", 200, [404, 404, 404]),         # GET permanent → not_found
    ("/admin", 403, [403, 403, 403]),            # HEAD-kill → blocked
    ("/flaky", 0, [503, 503, 503]),              # retries exhausted → other
    ("/limited", 200, [429, 429, 429]),          # → rate_limited
    ("/slow", 0, [-1, -1, -1]),                  # timeouts → timeout
    ("/refused", 0, [-3, -3, -3]),               # → connection
    ("/unreachable", 0, [-4, -4, -4]),           # → connection
    ("/bad-encoding", 0, [-5, -5, -5]),          # → other
    ("/server-error", 200, [500, 500, 500]),     # → other
]

# transient profiles applied to REAL pages: final attempt succeeds, so
# crawl output (success + extracted text) is unchanged — only the fetch
# metadata (attempts_used, backoff) differs from the clean default
_FETCH_TRANSIENT_PROFILES = [
    (0, [503, 200, 200]),
    (200, [429, 429, 200]),
    (0, [-1, 200, 200]),
    (200, [500, 503, 200]),
]


def _fetch_profiles(idx: int, seed: int, domain: str,
                    page_urls: list[str]) -> list[dict]:
    """Deterministic per-host fetchcfg rows (own RNG stream so the page
    generator's streams — and therefore every existing golden — are
    untouched)."""
    rng = random.Random(f"{seed}:fetch:{idx}")
    base = f"https://{domain}"
    rows: list[dict] = []
    for path, head, att in _FETCH_ERROR_FIXTURES:
        if rng.random() < 0.5:
            rows.append(
                {
                    "url": f"{base}{path}",
                    "host": domain,
                    "head_status": head,
                    "attempts": att,
                }
            )
    if rng.random() < 0.4:  # DNS-dead subdomain
        rows.append(
            {
                "url": f"https://invalid.{domain}/",
                "host": f"invalid.{domain}",
                "head_status": 0,
                "attempts": [-2, -2, -2],
            }
        )
    if rng.random() < 0.4:  # non-HTTP scheme (pre-fetch skip)
        rows.append(
            {
                "url": f"mailto:hr@{domain}",
                "host": domain,
                "head_status": 0,
                "attempts": [0, 0, 0],
            }
        )
    # transient-then-success on up to 2 real pages
    for u in rng.sample(page_urls, min(2, len(page_urls))):
        if rng.random() < 0.6:
            head, att = rng.choice(_FETCH_TRANSIENT_PROFILES)
            rows.append(
                {"url": u, "host": domain, "head_status": head,
                 "attempts": att}
            )
    return rows


def _build_host(args: tuple[int, int]) -> tuple:
    """Worker: all rows for one host (picklable top-level fn).

    Deterministic regardless of which process/order runs it — every host
    derives its own RNG from (seed, idx)."""
    idx, seed = args
    host = _Host(idx, seed)
    pages = _gen_host_pages(host)
    # DUST aliases (Bar-Yossef et al., WWW 2007 "Do not crawl in the
    # DUST"): ~1 in 8 pages (md5-selected, corpus-stable) gains one
    # tracking-param variant serving BYTE-IDENTICAL html — the
    # url-aliasing noise a real web corpus carries.  Aliases are
    # UNLINKED (never enter the frontier; crawl conformance unchanged)
    # and skip the 1:1 sitemap fixture; params avoid every
    # classify/career keyword substring so url-derived goldens stay
    # collision-free (the M7 host-name rule, applied to params).
    import hashlib as _hl

    aliases = []
    for p in pages:
        if p["url"].endswith("/sitemap.xml"):
            continue
        hsel = int(_hl.md5(("dust:" + p["url"]).encode()).hexdigest()[:8], 16)
        if hsel % 8 == 0:
            param = _DUST_PARAMS[(hsel >> 3) % len(_DUST_PARAMS)]
            sep = "&" if "?" in p["url"] else "?"
            aliases.append({**p, "url": p["url"] + sep + param})
    pages.extend(aliases)
    seed_row = {"url": f"{host.base}/", "seed_order": idx, "host": host.domain}
    host_rows = [
        {
            "host": host.domain,
            "crawl_delay_s": host.crawl_delay_s,
            "robots_disallow": host.robots_disallow,
            "max_pages": host.max_pages,
        }
    ]
    if host.career_sub:
        host_rows.append({**host_rows[0], "host": f"careers.{host.domain}"})
    page_rows, golden_rows, job_rows, api_rows = [], [], [], []
    apify_rows = [
        {
            "host": host.domain,
            "domain": host.domain,
            "title": f"{host.name.title()} Corp",
            "phone": f"09{host.idx % 100000000:08d}",
            "website": f"{host.base}/",
        }
    ]
    for p in pages:
        g, jrows, arows = _golden_for_page(p["url"], p["html"])
        page_rows.append(
            {
                "url": p["url"],
                "warc_ts": 0,  # assigned globally after collection
                "html": p["html"].encode("utf-8"),
                "text": g["text"],
                "lang": host.lang,
            }
        )
        golden_rows.append(g)
        job_rows.extend(jrows)
        api_rows.extend(arows)
    fetch_rows = _fetch_profiles(
        idx, seed, host.domain, [p["url"] for p in page_rows]
    )
    return (
        page_rows, golden_rows, job_rows, api_rows, apify_rows, seed_row,
        host_rows, fetch_rows,
    )


def generate_corpus(out_dir: str, n_hosts: int, seed: int = 42) -> None:
    os.makedirs(out_dir, exist_ok=True)
    page_rows: list[dict] = []
    golden_rows: list[dict] = []
    job_rows: list[dict] = []
    seed_rows: list[dict] = []
    host_rows: list[dict] = []

    results: list[tuple]
    if n_hosts >= 64:
        # parallel generation; results collected in host order so the
        # corpus is byte-stable no matter the worker count
        import concurrent.futures as cf

        workers = min(16, os.cpu_count() or 4)
        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(
                ex.map(_build_host, [(i, seed) for i in range(n_hosts)], chunksize=8)
            )
    else:
        results = [_build_host((i, seed)) for i in range(n_hosts)]

    api_rows: list[dict] = []
    apify_rows: list[dict] = []
    fetch_rows: list[dict] = []
    for prows, grows, jrows, arows, aprows, srow, hrows, frows in results:
        for p in prows:
            p["warc_ts"] = _BASE_TS_MS + len(page_rows) * 1000
            page_rows.append(p)
        golden_rows.extend(grows)
        job_rows.extend(jrows)
        api_rows.extend(arows)
        apify_rows.extend(aprows)
        seed_rows.append(srow)
        host_rows.extend(hrows)
        fetch_rows.extend(frows)

    import zlib

    import numpy as np

    for p in page_rows:
        host = classify.host_of(p["url"])
        p["hshard"] = zlib.crc32(host.encode("utf-8")) % 256
    # stable sort by shard bucket: with 512-row row groups each group
    # spans a narrow hshard range, so a PageStoreShard's filtered read
    # prunes to ~1/num_shards of the file by row-group stats alone
    order = np.argsort(
        np.array([p["hshard"] for p in page_rows], dtype=np.int32),
        kind="stable",
    )
    page_rows = [page_rows[i] for i in order]
    pages_tbl = pa.Table.from_pylist(page_rows, schema=PAGES_SCHEMA)
    # small row groups: Ray Data parallelizes a single-file read at
    # row-group granularity — 512-row groups let 32+ read tasks split one
    # file (2000-row groups capped the whole pipeline at ~11 tasks)
    pq.write_table(pages_tbl, os.path.join(out_dir, "pages.parquet"),
                   row_group_size=512)
    pq.write_table(pa.Table.from_pylist(golden_rows),
                   os.path.join(out_dir, "golden.parquet"), row_group_size=2000)
    if job_rows:
        pq.write_table(pa.Table.from_pylist(job_rows),
                       os.path.join(out_dir, "jobs_golden.parquet"))
    if api_rows:
        pq.write_table(pa.Table.from_pylist(api_rows),
                       os.path.join(out_dir, "api_jobs_golden.parquet"))
    # D3-normalized jobs golden: per-page normalize_jobs over the same
    # job rows (job order within a page = extraction order)
    from ..functions.merge_ops import normalize_jobs

    by_page: dict[str, list[dict]] = {}
    for j in job_rows:
        by_page.setdefault(j["source_url"], []).append(j)
    norm_rows: list[dict] = []
    keep = ("source_url", "job_index", "title", "company", "location",
            "job_type", "salary", "description", "summary", "source")
    for jurl in by_page:
        for j in normalize_jobs(by_page[jurl]):
            norm_rows.append({k: j[k] for k in keep})
    if norm_rows:
        pq.write_table(pa.Table.from_pylist(norm_rows),
                       os.path.join(out_dir, "jobs_norm_golden.parquet"))
    # D2 fuzzy-dedup golden (page-local, like the reference call site)
    fuzzy_rows = [
        {"source_url": j["source_url"], "job_index": j["job_index"],
         "title": j["title"]}
        for jurl in by_page
        for j in jobfns.dedup_by_title_fuzzy(by_page[jurl])
    ]
    if fuzzy_rows:
        pq.write_table(pa.Table.from_pylist(fuzzy_rows),
                       os.path.join(out_dir, "jobs_fuzzy_golden.parquet"))
    # fetch-outcome fixtures + golden (S1/S2 error taxonomy).  fetchcfg
    # holds only the NON-default profiles; the golden replays the
    # reference retry loop (functions/fetch_errors.simulate_fetch) over
    # the whole population — pages not in cfg get the clean default.
    from ..functions.fetch_errors import (
        DEFAULT_ATTEMPTS,
        DEFAULT_HEAD,
        simulate_fetch,
    )

    fetchcfg_schema = pa.schema(
        [
            ("url", pa.string()),
            ("host", pa.string()),
            ("head_status", pa.int32()),
            ("attempts", pa.list_(pa.int32())),
        ]
    )
    pq.write_table(
        pa.Table.from_pylist(fetch_rows, schema=fetchcfg_schema),
        os.path.join(out_dir, "fetchcfg.parquet"),
    )
    cfg_by_url = {r["url"]: r for r in fetch_rows}
    fg_rows = []
    for p in page_rows:
        c = cfg_by_url.get(p["url"])
        head = c["head_status"] if c else DEFAULT_HEAD
        att = c["attempts"] if c else list(DEFAULT_ATTEMPTS)
        fg_rows.append(
            {"url": p["url"], **simulate_fetch(p["url"], head, att)}
        )
    page_urls = {p["url"] for p in page_rows}
    # invariant consumers rely on (e.g. __ray_entry__._fetch_population
    # derives page-membership from the profile, no pages scan): a cfg
    # profile succeeds ⟺ its url is a real page
    for r in fetch_rows:
        ok = simulate_fetch(r["url"], r["head_status"], r["attempts"])[
            "success"
        ]
        assert ok == (r["url"] in page_urls), r["url"]
    for r in fetch_rows:
        if r["url"] not in page_urls:
            fg_rows.append(
                {
                    "url": r["url"],
                    **simulate_fetch(
                        r["url"], r["head_status"], r["attempts"]
                    ),
                }
            )
    pq.write_table(
        pa.Table.from_pylist(fg_rows),
        os.path.join(out_dir, "fetch_golden.parquet"),
    )
    pq.write_table(pa.Table.from_pylist(apify_rows),
                   os.path.join(out_dir, "apify.parquet"))
    pq.write_table(pa.Table.from_pylist(seed_rows),
                   os.path.join(out_dir, "seeds.parquet"))
    pq.write_table(pa.Table.from_pylist(host_rows),
                   os.path.join(out_dir, "hostcfg.parquet"))
    with open(os.path.join(out_dir, "MANIFEST"), "w") as f:
        f.write(f"{CORPUS_VERSION} hosts={n_hosts} seed={seed} pages={len(page_rows)}\n")


def corpus_tag(sf_dir: str) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir))
    return tag if tag in HOSTS_BY_TAG else "sf0.01"


def corpus_dir(tag: str) -> str:
    return os.path.join(DEFAULT_ROOT, CORPUS_VERSION, tag)


def ensure_corpus(sf_dir_or_tag: str, seed: int = 42) -> str:
    """Idempotently generate (once) and return the corpus directory for a
    testdata scale tag or sf dir path."""
    tag = (
        sf_dir_or_tag
        if sf_dir_or_tag in HOSTS_BY_TAG
        else corpus_tag(sf_dir_or_tag)
    )
    out = corpus_dir(tag)
    manifest = os.path.join(out, "MANIFEST")
    n_hosts = HOSTS_BY_TAG[tag]
    want = f"{CORPUS_VERSION} hosts={n_hosts} seed={seed}"
    if os.path.exists(manifest):
        with open(manifest) as f:
            if f.read().startswith(want):
                return out
    tmp = out + ".tmp"
    import shutil

    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    generate_corpus(tmp, n_hosts, seed)
    if os.path.exists(out):
        shutil.rmtree(out)
    os.replace(tmp, out)
    return out
