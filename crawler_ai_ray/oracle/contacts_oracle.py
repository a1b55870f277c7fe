"""Reference copies of the contact and whitespace kernels — the
reference's literal regexes, kept as the ground truth the engine's
linear-time rewrites in ``functions/contacts.py`` and
``functions/htmltext.py`` are checked against.

* :func:`extract_emails` — M1 (``app/services/crawler.py:292-316``): the
  two overlapping unanchored patterns run with ``findall`` over the raw
  HTML.  Both are quadratic in the length of a run of local-part
  characters; fine for goldens and tests, not for the engine.
* :func:`normalize_text` — ``app/utils/text.py:44-46``: one regex
  collapsing ``[\\s\\u00A0\\u2000-\\u200B]+`` runs.
* :func:`finalize_jobdetail_text` — ``job_extraction_service.py:1733-1737``:
  ``re.sub(r'\\s+', ' ', text).strip()`` plus the length gate.

``sources/synth.py`` builds the golden ``emails`` / ``phones_vn``
columns with these, so a broken engine kernel cannot agree with its own
goldens.
"""

from __future__ import annotations

import re

from ..functions.contacts import _VN_PHONE_RX, clean_phone

EMAIL_PATTERNS = [
    re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b", re.IGNORECASE),
    re.compile(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}", re.IGNORECASE),
]

_EMAIL_BLOCKLIST = (
    "cropped-favicon", "favicon", ".png", ".jpg", ".jpeg", ".gif",
    "data:", "javascript:", "mailto:", "tel:", "http", "https",
)

_WS_CLASS = r"\s\u00A0\u2000-\u200B"
_WS_RX = re.compile(rf"[{_WS_CLASS}]+")
WS_RE = re.compile(r"\s+")


def extract_emails(html: str) -> list[str]:
    """M1 semantics; returns sorted unique emails."""
    if "@" not in html:  # fast path — both patterns require a literal '@'
        return []
    found: list[str] = []
    for pat in EMAIL_PATTERNS:
        found.extend(pat.findall(html))
    valid: set[str] = set()
    for email in found:
        email = email.strip().lower()
        if "@" in email and "." in email.split("@", 1)[1]:
            if not any(bad in email for bad in _EMAIL_BLOCKLIST):
                valid.add(email)
    return sorted(valid)


def normalize_text(s: str) -> str:
    """utils/text.py:44-46 — collapse all unicode whitespace to one space."""
    return _WS_RX.sub(" ", s).strip()


def finalize_jobdetail_text(raw: str) -> str:
    """Whitespace-collapse + length gate (job_extraction_service.py:1733-1737)."""
    text = WS_RE.sub(" ", raw).strip()
    if len(text) > 50:
        return text[:5000]
    return ""


def extract_phones_vn(text: str) -> list[str]:
    """M3 over :func:`normalize_text`; the candidate pattern and digit
    cleaning are the engine's (unchanged from the reference)."""
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
