"""Contact extraction — the reference's three regex semantics, pinned.

* **M1 emails** (``app/services/crawler.py:292-316``, identically in
  ``scrapy_career_spider.py:962-984``): two overlapping patterns run over
  the *raw HTML* with ``re.IGNORECASE``, matches lowercased, basic
  ``@``/dot validation, matches containing any of a substring blocklist
  dropped, then set-dedup.  The reference's output order is Python-set
  order (nondeterministic); this engine pins **sorted** order, which is
  also what the spider emits at aggregation time
  (``scrapy_career_spider.py:676-681`` sorts the global sets).

  The reference runs both patterns unanchored with ``findall``, which is
  quadratic in the length of any run of local-part characters.  The
  engine reproduces each pattern's ``findall`` list with one linear scan
  anchored on ``@``: find each ``@`` with ``str.find``, extend left over
  the local-part class (never past the end of the previous match, which
  keeps findall's non-overlapping leftmost-first order), take pattern
  0's leading ``\\b`` as the first word boundary in that run, and
  ``match`` the pattern's domain tail at ``@+1``.  The literal two-pattern
  code lives on as the reference in
  :mod:`crawler_ai_ray.oracle.contacts_oracle`, which the corpus goldens
  and the differential tests use.

* **M2 loose phones** (``crawler.py:319-327``): three loose patterns over
  raw HTML, concatenated, set-dedup (pinned sorted).

* **M3 VN-strict phones** (``contact_extractor_service.py:52-54`` +
  ``app/utils/text.py:40-55``): ``(?<!\\d)(?:\\+?84|0)(?:SEP\\d){8,10}(?!\\d)``
  over whitespace-normalized text, each candidate cleaned to digits
  (``+84`` → ``0``), kept iff 10–11 digits, order-preserving dedup.
  An exact nine-digit-chain gate skips the normalise and the scan on
  text that cannot hold a candidate; the ungated function lives on in
  :mod:`crawler_ai_ray.oracle.contacts_oracle`.

All functions are pure and operate on one string; the Ray stage applies
them per row inside ``map_batches`` with the patterns compiled once at
module import (amortized across every batch of every task).
"""

from __future__ import annotations

import re

from .htmltext import collapse_ws

__all__ = [
    "extract_emails",
    "extract_phones_loose",
    "extract_phones_vn",
    "normalize_text",
    "clean_phone",
]

# --- M1 emails -------------------------------------------------------------

# The two reference patterns, each split at its '@' into a local-part
# class (scanned by hand) and a domain tail (matched at '@'+1).  Under
# re.IGNORECASE the letter ranges also match the four non-ASCII case
# folds of ASCII letters: ſ (s), K (Kelvin, k), İ and ı (i).
_LOCAL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._%+-"
    "\u017f\u212a\u0130\u0131"
)
# (domain tail, leading \b on the local part)
_EMAIL_SCANS = (
    (re.compile(r"[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b", re.IGNORECASE), True),
    (re.compile(r"[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}", re.IGNORECASE), False),
)

# crawler.py:306-309 — substrings that invalidate a match.
_EMAIL_BLOCKLIST = (
    "cropped-favicon", "favicon", ".png", ".jpg", ".jpeg", ".gif",
    "data:", "javascript:", "mailto:", "tel:", "http", "https",
)


def _is_word(c: str) -> bool:
    """``re`` ``\\w`` on one str character."""
    return c.isalnum() or c == "_"


def _email_findall(html: str, tail: re.Pattern, word_start: bool) -> list[str]:
    """``findall`` of ``[local]+@<tail>`` (``\\b`` first when
    ``word_start``) in one pass over the ``@`` positions."""
    out: list[str] = []
    floor = 0  # end of the previous match: findall never overlaps
    at = html.find("@")
    while at != -1:
        start = at
        while start > floor and html[start - 1] in _LOCAL_CHARS:
            start -= 1
        m = tail.match(html, at + 1) if start < at else None
        if m is not None and word_start:
            # leftmost \b in the run; none means no match at this '@'
            prev = start > 0 and _is_word(html[start - 1])
            while start < at and _is_word(html[start]) == prev:
                start += 1
            if start == at:
                m = None
        if m is None:
            at = html.find("@", at + 1)
            continue
        floor = m.end()
        out.append(html[start:floor])
        at = html.find("@", floor)
    return out


def extract_emails(html: str) -> list[str]:
    """M1 semantics; returns sorted unique emails."""
    if "@" not in html:  # fast path — both patterns require a literal '@'
        return []
    found: list[str] = []
    for tail, word_start in _EMAIL_SCANS:
        found.extend(_email_findall(html, tail, word_start))
    valid: set[str] = set()
    for email in found:
        email = email.strip().lower()
        if "@" in email and "." in email.split("@", 1)[1]:
            if not any(bad in email for bad in _EMAIL_BLOCKLIST):
                valid.add(email)
    return sorted(valid)


# --- M2 loose phones -------------------------------------------------------

_PHONE_PATTERNS = [
    re.compile(r"\+84\s?\d{1,2}\s?\d{3}\s?\d{3}\s?\d{3}"),
    re.compile(r"0\d{1,2}\s?\d{3}\s?\d{3}\s?\d{3}"),
    re.compile(r"\d{10,11}"),
]


def extract_phones_loose(html: str) -> list[str]:
    """M2 semantics; returns sorted unique raw matches."""
    found: set[str] = set()
    for pat in _PHONE_PATTERNS:
        found.update(pat.findall(html))
    return sorted(found)


# --- M3 VN-strict phones ---------------------------------------------------

# utils/text.py:40-43 — whitespace incl. NBSP + zero-width range, separators.
_WS_CLASS = r"\s\u00A0\u2000-\u200B"
_SEP_CLASS = rf"[{_WS_CLASS}\.\-\(\)]"
_SEP = rf"{_SEP_CLASS}*"

_VN_PHONE_RX = re.compile(rf"(?<!\d)(?:\+?84|0)(?:{_SEP}\d){{8,10}}(?!\d)")
# Exact gate: every _VN_PHONE_RX match holds nine digits joined by
# separator runs, and whitespace normalisation (which only shortens
# separator runs or strips them at the ends) neither makes nor breaks
# such a chain.  No chain, no candidate.
_DIGIT_CHAIN_RX = re.compile(rf"\d(?:{_SEP}\d){{8}}")
_NON_DIGIT_PLUS_RX = re.compile(r"[^\d+]")
_NON_DIGIT_RX = re.compile(r"\D")


def normalize_text(s: str) -> str:
    """utils/text.py:44-46 — collapse every ``_WS_CLASS`` run to one space
    and strip.  U+200B is the class's only member that is not
    ``str.isspace``, so it is mapped to a space before the split-join."""
    return collapse_ws(s.replace("\u200b", " "))


def clean_phone(candidate: str) -> str | None:
    """utils/text.py:48-55 — digits only, +84→0, keep iff 10–11 digits."""
    s = _NON_DIGIT_PLUS_RX.sub("", candidate)
    if s.startswith("+84"):
        s = "0" + s[3:]
    s = _NON_DIGIT_RX.sub("", s)
    return s if 10 <= len(s) <= 11 else None


def extract_phones_vn(text: str) -> list[str]:
    """M3 semantics over visible text; order-preserving dedup then the
    reference's final sort-by-length (contact_extractor_service.py:368-390).
    Text without a nine-digit chain returns ``[]`` before the normalise
    and the candidate scan."""
    if _DIGIT_CHAIN_RX.search(text) is None:
        return []
    norm = normalize_text(text)
    out: list[str] = []
    seen: set[str] = set()
    for m in _VN_PHONE_RX.finditer(norm):
        cleaned = clean_phone(m.group(0))
        if cleaned is not None and cleaned not in seen:
            seen.add(cleaned)
            out.append(cleaned)
    out.sort(key=len)
    return out
