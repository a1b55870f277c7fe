"""WARC/1.0 archive sink + source and the CDX index — the web-archive
interchange format of the crawl tier (ISO 28500; Common Crawl / Internet
Archive delivery format; CDX is the index scheme `crawl_url_surt` /
`crawl_cdx_domains` already model key-side).

Reference parity: the reference persists fetched pages as per-site JSON
reports (main.py report sink); WARC is the web-scale archival
generalization — page payloads stored byte-exact with their fetch
metadata, indexable without decompressing the archive.

Deterministic layout (what makes the CDX fully SQL-oracle-able):

* one WARC file per ``hshard`` (the pages table's crc32(host)%256
  column — the engine's persistent partition key, so a shard's pages
  co-locate with their page-store shard and the write is resumable per
  shard);
* records within a shard are sorted by ``(warc_ts, url)``;
* every record serializes with a FIXED header template (constant field
  order, ``\r\n`` endings, constant-length date), so
  ``record_len = WARC_HEADER_CONST + len(url) + len(str(payload_len))
  + payload_len`` and ``offset`` is the running sum in sort order —
  both recomputed exactly by the DuckDB oracle from the pages table
  alone (no engine output consulted).

Scale shape: the shard write is ``groupby(hshard).map_groups`` — one
bounded exchange routing (url, ts, html) rows to their shard task; each
task streams its sorted records to ONE file and emits skinny CDX rows.
Resume: a per-shard ``.done`` marker skips finished shards (the
partitioned-output contract).  ``read_warc`` parses by Content-Length
(payloads may contain any byte sequence) with one task per file.
"""

from __future__ import annotations

import hashlib
import os

from ..stages.dedup import md5_lower64

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

__all__ = [
    "write_warc", "write_warc_dedup", "read_warc",
    "WARC_HEADER_CONST", "WARC_REVISIT_CONST", "CDX_SCHEMA",
    "CDX_DEDUP_SCHEMA",
]

_CRLF = b"\r\n"

CDX_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("ts_ms", pa.int64()),
        ("hshard", pa.int32()),
        ("offset", pa.int64()),
        ("record_len", pa.int64()),
        ("digest_lower", pa.uint64()),
    ]
)


def _iso(ts_ms: int) -> str:
    """Constant-length (20-char) UTC ISO-8601 second timestamp."""
    import datetime as _dt

    d = _dt.datetime.fromtimestamp(ts_ms // 1000, tz=_dt.timezone.utc)
    return d.strftime("%Y-%m-%dT%H:%M:%SZ")


def _record(url: str, ts_ms: int, html: bytes) -> bytes:
    md5_hex = hashlib.md5(html).hexdigest()
    n = len(html)
    head = (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: response" + _CRLF
        + b"WARC-Record-ID: <urn:md5:" + md5_hex.encode() + b">" + _CRLF
        + b"WARC-Target-URI: " + url.encode() + _CRLF
        + b"WARC-Date: " + _iso(ts_ms).encode() + _CRLF
        + b"WARC-Payload-Digest: md5:" + md5_hex.encode() + _CRLF
        + b"Content-Type: text/html" + _CRLF
        + b"Content-Length: " + str(n).encode() + _CRLF
        + _CRLF
    )
    return head + html + _CRLF + _CRLF


# every byte of the record except the url (utf-8 BYTE length — DuckDB
# ``strlen``), the payload, and the decimal digits of Content-Length
WARC_HEADER_CONST = len(_record("", 0, b"")) - len(str(0))


def _revisit_record(
    url: str, ts_ms: int, canon_url: str, md5_hex: str
) -> bytes:
    """WARC/1.0 ``revisit`` record (ISO 28500 §6.7.2 identical-payload
    profile): no payload, points at the canonical capture."""
    return (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: revisit" + _CRLF
        + b"WARC-Record-ID: <urn:md5:" + md5_hex.encode() + b">" + _CRLF
        + b"WARC-Target-URI: " + url.encode() + _CRLF
        + b"WARC-Date: " + _iso(ts_ms).encode() + _CRLF
        + b"WARC-Refers-To-Target-URI: " + canon_url.encode() + _CRLF
        + b"WARC-Payload-Digest: md5:" + md5_hex.encode() + _CRLF
        + b"Content-Length: 0" + _CRLF
        + _CRLF
        + _CRLF + _CRLF
    )


# fixed bytes of a revisit record: everything except the two urls
WARC_REVISIT_CONST = len(_revisit_record("", 0, "", "0" * 32))


def write_warc(pages_ds, out_dir: str, resume: bool = False) -> pa.Table:
    """Archive a pages Dataset (url, warc_ts, html, hshard) as per-shard
    WARC files + CDX parquet parts under ``out_dir``; returns the full
    CDX table (skinny — one row per record).  ``resume=True`` skips
    shards whose ``.done`` marker exists and re-reads their CDX part.

    Precondition: every ``warc_ts`` is a whole second.  ``WARC-Date``
    is written at second resolution (the constant-length header the
    CDX layout relies on), while the CDX keeps the exact ``ts_ms``, so
    a sub-second timestamp would not survive :func:`read_warc`."""
    import ray

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "hshard" not in g.column_names:
            return CDX_SCHEMA.empty_table()
        shard = int(g["hshard"][0].as_py())
        warc_path = os.path.join(out_dir, f"shard={shard:04d}.warc")
        cdx_path = os.path.join(out_dir, f"shard={shard:04d}.cdx.parquet")
        done = warc_path + ".done"
        if resume and os.path.exists(done):
            try:
                return pq.read_table(cdx_path)
            except Exception:
                # a killed/retried task can leave a truncated part
                # behind the marker — fall through and rewrite
                os.remove(done)
        ts = pc.cast(g["warc_ts"], pa.timestamp("ms"))
        ts_ms = ts.cast(pa.int64())
        srt = pa.table(
            {"url": g["url"], "ts_ms": ts_ms, "html": g["html"]}
        ).sort_by([("ts_ms", "ascending"), ("url", "ascending")])
        urls = srt["url"].to_pylist()
        tss = srt["ts_ms"].to_pylist()
        htmls = srt["html"].to_pylist()
        offsets = np.zeros(len(urls), np.int64)
        lens = np.zeros(len(urls), np.int64)
        digs = np.zeros(len(urls), np.uint64)
        off = 0
        tmp = warc_path + ".tmp"
        with open(tmp, "wb") as f:
            for i, (u, t, h) in enumerate(zip(urls, tss, htmls)):
                rec = _record(u, t, h)
                f.write(rec)
                offsets[i] = off
                lens[i] = len(rec)
                digs[i] = md5_lower64(h)
                off += len(rec)
        os.replace(tmp, warc_path)
        cdx = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "ts_ms": pa.array(tss, pa.int64()),
                "hshard": pa.array([shard] * len(urls), pa.int32()),
                "offset": pa.array(offsets, pa.int64()),
                "record_len": pa.array(lens, pa.int64()),
                "digest_lower": pa.array(digs, pa.uint64()),
            }
        )
        pq.write_table(cdx, cdx_path + ".tmp")
        os.replace(cdx_path + ".tmp", cdx_path)
        with open(done, "w") as f:
            f.write("ok\n")
        return cdx

    parts = [
        t
        for t in ray.get(
            pages_ds.groupby("hshard")
            .map_groups(write_shard, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return CDX_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _parse_warc_file(path: str) -> pa.Table:
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    kinds: list[str] = []
    refers: list[str | None] = []
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    n = len(data)
    while pos < n:
        hdr_end = data.index(b"\r\n\r\n", pos)
        header = data[pos:hdr_end].decode("utf-8")
        fields = {}
        for line in header.split("\r\n")[1:]:
            k, _, v = line.partition(": ")
            fields[k] = v
        clen = int(fields["Content-Length"])
        body_start = hdr_end + 4
        htmls.append(data[body_start : body_start + clen])
        urls.append(fields["WARC-Target-URI"])
        kinds.append(fields["WARC-Type"])
        refers.append(fields.get("WARC-Refers-To-Target-URI"))
        import datetime as _dt

        d = _dt.datetime.strptime(
            fields["WARC-Date"], "%Y-%m-%dT%H:%M:%SZ"
        ).replace(tzinfo=_dt.timezone.utc)
        tss.append(int(d.timestamp()) * 1000)
        pos = body_start + clen + 4  # payload + \r\n\r\n
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "ts_ms": pa.array(tss, pa.int64()),
            "html": pa.array(htmls, pa.binary()),
            "record_type": pa.array(kinds, pa.string()),
            "refers_to": pa.array(refers, pa.string()),
        }
    )


def read_warc(out_dir: str):
    """WARC files under ``out_dir`` → Dataset of (url, ts_ms, html) —
    one parse task per file (files are shard-sized by construction).
    ``ts_ms`` is rebuilt from the second-resolution ``WARC-Date``, so it
    equals the archived timestamp only under :func:`write_warc`'s
    whole-second precondition."""
    import ray
    import ray.data

    paths = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".warc")
    )

    def parse(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "ts_ms": pa.array([], pa.int64()),
                    "html": pa.array([], pa.binary()),
                    "record_type": pa.array([], pa.string()),
                    "refers_to": pa.array([], pa.string()),
                }
            )
        return pa.concat_tables(
            [_parse_warc_file(p) for p in batch["path"].to_pylist()]
        )

    return ray.data.from_arrow(
        pa.table({"path": pa.array(paths, pa.string())})
    ).map_batches(parse, batch_format="pyarrow", batch_size=1)


CDX_DEDUP_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("ts_ms", pa.int64()),
        ("hshard", pa.int32()),
        ("record_type", pa.string()),
        ("canon_url", pa.string()),
        ("offset", pa.int64()),
        ("record_len", pa.int64()),
        ("digest_lower", pa.uint64()),
    ]
)


def write_warc_dedup(pages_ds, out_dir: str, resume: bool = False) -> pa.Table:
    """Deduplicated WARC archive: within each shard, the FIRST capture
    of a payload (by ``(warc_ts, url)``) writes a full ``response``
    record; every later identical-payload capture writes a payload-less
    ``revisit`` record pointing at the canonical url (ISO 28500
    identical-payload-digest profile — how Common Crawl / Heritrix
    avoid re-storing unchanged content).

    Dedup scope is the SHARD (hshard = crc32(host) % 256): url-alias
    duplicates (the DUST family) are same-host, so they always land in
    the same shard and collapse with NO extra exchange — the canonical
    choice happens inside the shard task that already holds the rows.
    Cross-host mirror payloads are detection's job
    (`mirror_host_pairs`), not the archive's.  Layout stays fully
    deterministic (sort + fixed templates), so the CDX — record type,
    canonical url, offset, length — is recomputed by the DuckDB oracle
    from the pages table alone."""
    import ray

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "hshard" not in g.column_names:
            return CDX_DEDUP_SCHEMA.empty_table()
        shard = int(g["hshard"][0].as_py())
        warc_path = os.path.join(out_dir, f"shard={shard:04d}.warc")
        cdx_path = os.path.join(out_dir, f"shard={shard:04d}.cdx.parquet")
        done = warc_path + ".done"
        if resume and os.path.exists(done):
            try:
                return pq.read_table(cdx_path)
            except Exception:
                # a killed/retried task can leave a truncated part
                # behind the marker — fall through and rewrite
                os.remove(done)
        ts_ms = pc.cast(g["warc_ts"], pa.timestamp("ms")).cast(pa.int64())
        srt = pa.table(
            {"url": g["url"], "ts_ms": ts_ms, "html": g["html"]}
        ).sort_by([("ts_ms", "ascending"), ("url", "ascending")])
        urls = srt["url"].to_pylist()
        tss = srt["ts_ms"].to_pylist()
        htmls = srt["html"].to_pylist()
        canon_by_digest: dict[bytes, str] = {}
        offsets = np.zeros(len(urls), np.int64)
        lens = np.zeros(len(urls), np.int64)
        digs = np.zeros(len(urls), np.uint64)
        kinds: list[str] = []
        canons: list[str] = []
        off = 0
        tmp = warc_path + ".tmp"
        with open(tmp, "wb") as f:
            for i, (u, t, h) in enumerate(zip(urls, tss, htmls)):
                dig = hashlib.md5(h).digest()
                canon = canon_by_digest.get(dig)
                if canon is None:
                    canon_by_digest[dig] = u
                    rec = _record(u, t, h)
                    kinds.append("response")
                    canons.append(u)
                else:
                    rec = _revisit_record(u, t, canon, dig.hex())
                    kinds.append("revisit")
                    canons.append(canon)
                f.write(rec)
                offsets[i] = off
                lens[i] = len(rec)
                digs[i] = int.from_bytes(
                    dig[8:], "little", signed=False
                )  # = md5_lower64; full digest kept above for canon key
                off += len(rec)
        os.replace(tmp, warc_path)
        cdx = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "ts_ms": pa.array(tss, pa.int64()),
                "hshard": pa.array([shard] * len(urls), pa.int32()),
                "record_type": pa.array(kinds, pa.string()),
                "canon_url": pa.array(canons, pa.string()),
                "offset": pa.array(offsets, pa.int64()),
                "record_len": pa.array(lens, pa.int64()),
                "digest_lower": pa.array(digs, pa.uint64()),
            }
        )
        pq.write_table(cdx, cdx_path + ".tmp")
        os.replace(cdx_path + ".tmp", cdx_path)
        with open(done, "w") as f:
            f.write("ok\n")
        return cdx

    parts = [
        t
        for t in ray.get(
            pages_ds.groupby("hshard")
            .map_groups(write_shard, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return CDX_DEDUP_SCHEMA.empty_table()
    return pa.concat_tables(parts)
