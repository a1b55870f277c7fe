"""Differential tests: the engine's linear-time contact and whitespace
kernels against the reference's literal regexes, kept verbatim in
``oracle/contacts_oracle.py``.

* emails — per-pattern raw ``findall`` lists and the final sorted list,
  over seeded strings (local-part punctuation, ``|``, chained addresses,
  the IGNORECASE folds ſ K İ ı), hypothesis strings and every page of the
  unit corpus;
* whitespace — an all-code-point sweep of ``\\s`` against
  ``str.isspace``, then hypothesis strings through the jobdetail finalize
  and ``normalize_text``;
* a 1 MB page of one local-part run plus one address, which the
  reference patterns need hours for;
* VN phones — the gated ``extract_phones_vn`` against the reference's
  ungated one on every corpus page and on hypothesis strings of digits,
  ``+``, letters and every separator character, plus an all-code-point
  check of the gate's separator class.
"""

from __future__ import annotations

import os
import random
import re
import sys
import time

import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from crawler_ai_ray.functions import contacts
from crawler_ai_ray.functions.htmltext import collapse_ws, finalize_jobdetail_text
from crawler_ai_ray.oracle import contacts_oracle as ref

_ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))

_EMAIL_ALPHABET = (
    "abcxyzABCXYZ019"  # local/domain letters and digits
    "._%+-|@"          # local-part punctuation, '|' in pattern 0's TLD class
    "\u017f\u212a\u0130\u0131"  # ſ, Kelvin K, İ, ı: non-ASCII IGNORECASE folds
    " _<>\"'/:=\n\xe9\xa0"  # separators, \w non-ASCII, NBSP
)
_EMAIL_PIECES = [
    "a@b.com@c.org", "hr@acme.com", "x@ab.c", ".png", "mailto:",
    "a.b@c.d.ef", "--@x.yz", "_@a.bc", "%@q.io|z", "\u017f@\u212a.\u0131\u0130",
]


def _engine_findall(html: str) -> list[list[str]]:
    return [
        contacts._email_findall(html, tail, word_start)
        for tail, word_start in contacts._EMAIL_SCANS
    ]


def _ref_findall(html: str) -> list[list[str]]:
    return [pat.findall(html) for pat in ref.EMAIL_PATTERNS]


def _assert_emails_equal(html: str) -> None:
    assert _engine_findall(html) == _ref_findall(html), repr(html)
    assert contacts.extract_emails(html) == ref.extract_emails(html), repr(html)


def _seeded_email_string(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            parts.append(rng.choice(_EMAIL_PIECES))
        else:
            parts.append(
                "".join(rng.choices(_EMAIL_ALPHABET, k=rng.randint(0, 12)))
            )
    return "".join(parts)


# -- character classes ------------------------------------------------------


def test_local_class_matches_regex_class_on_every_code_point():
    for cls in ("[A-Za-z0-9._%+-]", "[a-zA-Z0-9._%+-]"):
        got = set(re.findall(cls, _ALL_CHARS, re.IGNORECASE))
        assert got == contacts._LOCAL_CHARS


def test_is_word_matches_regex_w_on_every_code_point():
    want = set(re.findall(r"\w", _ALL_CHARS))
    assert {c for c in _ALL_CHARS if contacts._is_word(c)} == want


def test_regex_s_is_str_isspace_on_every_code_point():
    want = {c for c in _ALL_CHARS if c.isspace()}
    assert set(re.findall(r"\s", _ALL_CHARS)) == want
    # normalize_text's class is \s plus U+200B
    got = set(re.findall(rf"[{contacts._WS_CLASS}]", _ALL_CHARS))
    assert got == want | {"\u200b"}


# -- emails -----------------------------------------------------------------


def test_emails_seeded_strings_match_reference():
    rng = random.Random(20261017)
    for _ in range(20_000):
        _assert_emails_equal(_seeded_email_string(rng))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_EMAIL_ALPHABET, max_size=60))
def test_emails_hypothesis_match_reference(html):
    _assert_emails_equal(html)


def test_emails_unit_corpus_match_reference(unit_corpus):
    pages = pq.read_table(
        os.path.join(unit_corpus, "pages.parquet"), columns=["html"]
    ).column("html").to_pylist()
    assert pages
    for html in pages:
        _assert_emails_equal(html.decode("utf-8", errors="ignore"))


def test_emails_pathological_run_is_linear():
    # a 1 MB page (the reference spider's HTML cap) of one local-part run
    # plus one address.  When no '@' follows the run, the reference
    # patterns rescan it from every start position (~1e12 steps).
    addr = "hr@acme.com"
    n = (1 << 20) - len(addr) - 1
    cases = [
        ("a" * n + " " + addr, [addr]),
        ("-" * n + " " + addr, [addr]),
        ("a" * n + addr, ["a" * n + addr]),
        # pattern 0 starts at the word boundary, pattern 1 at the run
        ("-" * n + addr, ["-" * n + addr, addr]),
    ]
    for html, want in cases:
        t = time.perf_counter()
        got = contacts.extract_emails(html)
        assert time.perf_counter() - t < 5.0
        assert got == want


# -- whitespace collapse ----------------------------------------------------

_WS_TEXT = st.text(
    alphabet=st.sampled_from(
        list("ab .\t\n\r\x0b\x0c\x1c\x85") + [
            "\xa0", "\u1680", "\u2000", "\u2009", "\u200a", "\u200b",
            "\u2028", "\u2029", "\u202f", "\u205f", "\u3000", "\ufeff",
            "\xe9",
        ]
    ),
    max_size=120,
)


@settings(max_examples=1000, deadline=None)
@given(_WS_TEXT)
def test_finalize_matches_reference(raw):
    assert collapse_ws(raw) == ref.WS_RE.sub(" ", raw).strip()
    assert finalize_jobdetail_text(raw) == ref.finalize_jobdetail_text(raw)


@settings(max_examples=1000, deadline=None)
@given(_WS_TEXT)
def test_normalize_text_matches_reference(s):
    assert contacts.normalize_text(s) == ref.normalize_text(s)
    assert contacts.extract_phones_vn(s) == ref.extract_phones_vn(s)


def test_collapse_all_code_points_match_reference():
    chunk = 4096
    for i in range(0, len(_ALL_CHARS), chunk):
        s = "x" + _ALL_CHARS[i:i + chunk] + "x"
        assert collapse_ws(s) == ref.WS_RE.sub(" ", s).strip()
        assert contacts.normalize_text(s) == ref.normalize_text(s)


# -- VN phones: the nine-digit-chain gate ------------------------------------

_SEP_CHARS = sorted(set(re.findall(contacts._SEP_CLASS, _ALL_CHARS)))


def test_phone_gate_separators_are_sep_class_on_every_code_point():
    # c joins "0" to eight more digits iff it is a separator or a digit
    gate = contacts._DIGIT_CHAIN_RX
    want = set(_SEP_CHARS) | set(re.findall(r"\d", _ALL_CHARS))
    assert {"\u200b", "\xa0", ".", "-", "(", ")"} <= want
    assert {c for c in _ALL_CHARS if gate.search("0" + c + "12345678")} == want


_PHONE_ALPHABET = st.sampled_from(
    list("0123456789" * 3) + ["+", "8", "4", "a", "Z", "x", "\u0663", "\uff11"]
    + _SEP_CHARS
)


@st.composite
def _phone_text(draw):
    """Phone-shaped runs: an optional +84/84/0 prefix, 7–12 digits each
    followed by 0–3 separators, inside random junk."""
    parts = [draw(st.text(alphabet=_PHONE_ALPHABET, max_size=12))]
    for _ in range(draw(st.integers(1, 3))):
        parts.append(draw(st.sampled_from(["", "+84", "84", "0", "x"])))
        for _ in range(draw(st.integers(7, 12))):
            parts.append(draw(st.sampled_from("0123456789")))
            parts.append(draw(st.text(
                alphabet=st.sampled_from(_SEP_CHARS), max_size=3
            )))
        parts.append(draw(st.text(alphabet=_PHONE_ALPHABET, max_size=6)))
    return "".join(parts)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_PHONE_ALPHABET, max_size=80))
def test_phones_vn_gate_matches_reference_on_strings(s):
    assert contacts.extract_phones_vn(s) == ref.extract_phones_vn(s)


@settings(max_examples=1000, deadline=None)
@given(_phone_text())
def test_phones_vn_gate_matches_reference_on_phone_shapes(s):
    assert contacts.extract_phones_vn(s) == ref.extract_phones_vn(s)


def test_phones_vn_gate_matches_reference_on_corpora(unit_corpus):
    from crawler_ai_ray.functions.htmltext import facts_jobdetail_text, parse_core
    from crawler_ai_ray.sources.synth import ensure_corpus

    fired = 0
    for corpus in (unit_corpus, ensure_corpus("sf0.001")):
        pages = pq.read_table(
            os.path.join(corpus, "pages.parquet"), columns=["html"]
        ).column("html").to_pylist()
        for html_b in pages:
            html = html_b.decode("utf-8", errors="ignore")
            for s in (facts_jobdetail_text(parse_core(html)), html):
                got = contacts.extract_phones_vn(s)
                assert got == ref.extract_phones_vn(s), s[:200]
                fired += bool(got)
    assert fired  # the corpora do hold VN phones
