"""Multimodal (image / audio / video) column processing.

Media travel as opaque ``binary`` columns + typed metadata structs —
the same pattern the crawl engine uses for ``html:binary`` — and every
transform is an **actor-pool** ``map_batches`` stage (codec / model
setup happens once per actor in ``__init__``, work per batch in
``__call__``).

Decode is REAL: the container has no PIL/ffmpeg, but three standard
UNCOMPRESSED formats decode with numpy + byte parsing alone, so the
corpus is generated in them and the stages do genuine byte-level
decoding:

* image — netpbm **P6 PPM** (``P6\\n<w> <h>\\n255\\n`` + raw RGB24);
* audio — **RIFF/WAVE PCM16** (``fmt `` + ``data`` chunk walk);
* video — **YUV4MPEG2 (y4m)** ``Cmono`` (``FRAME\\n`` + raw luma
  planes per frame).

``decoder="fake"`` remains as a digest-seeded stand-in for perf
experiments; plugging a compressed-codec library in means replacing
only the ``decode_*`` functions — schemas, batch sizing, actor
signatures and output layout are codec-agnostic.

Batch-size guidance (the part that matters at 100 TB): media rows are
orders of magnitude wider than text rows; batches must be sized by
BYTES not rows.  ``media_batch_size(avg_bytes)`` targets ~32 MB per
batch so batch × concurrency stays inside a worker heap, and the
object store (not Python lists) holds everything in flight.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

__all__ = [
    "MEDIA_SCHEMA",
    "IMAGE_FEATURES_SCHEMA",
    "media_batch_size",
    "encode_ppm",
    "decode_ppm",
    "encode_wav",
    "decode_wav",
    "encode_y4m",
    "decode_y4m",
    "ImageDecodeResize",
    "AudioFeatures",
    "VideoFrameSample",
    "VideoKeyframes",
    "synth_media_table",
    "synth_media_neardup_table",
    "dhash64",
    "ImagePHash",
    "audio_fp64",
    "AudioFingerprint",
    "synth_audio_neardup_table",
]

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),          # image | audio | video
        ("payload", pa.binary()),       # encoded bytes (ppm/wav/y4m)
        ("meta", pa.struct(
            [
                ("width", pa.int32()),
                ("height", pa.int32()),
                ("sample_rate", pa.int32()),
                ("n_frames", pa.int32()),
                ("codec", pa.string()),
            ]
        )),
    ]
)

IMAGE_FEATURES_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("mean_luma", pa.float64()),
        ("embedding", pa.list_(pa.float32(), 16)),
    ]
)

TARGET_BATCH_BYTES = 32 << 20


def synth_media_neardup_table(n: int, seed: int = 13) -> pa.Table:
    """Image corpus with PLANTED near-duplicates: the base corpus plus,
    for every 4th image, a copy (media_id + 100000) with a small corner
    patch brightened — a handful of dhash block means move, so the copy
    sits within a few Hamming bits of its original while unrelated
    noise images stay ~32 bits apart."""
    base = synth_media_table(n, "image", seed=seed)
    rows = base.to_pylist()
    extra = []
    for r in rows:
        if r["media_id"] % 4 != 0:
            continue
        px = decode_ppm(r["payload"]).copy()
        h, w = px.shape[:2]
        px[: max(1, h // 6), : max(1, w // 6)] = np.minimum(
            px[: max(1, h // 6), : max(1, w // 6)].astype(np.int64) + 60, 255
        ).astype(np.uint8)
        extra.append(
            {
                **r,
                "media_id": r["media_id"] + 100000,
                "payload": encode_ppm(px),
            }
        )
    return pa.Table.from_pylist(rows + extra, schema=base.schema)


def media_batch_size(avg_payload_bytes: int, floor: int = 4, cap: int = 1024) -> int:
    """Rows per batch so one batch ≈ 32 MB of payload."""
    return max(floor, min(cap, TARGET_BATCH_BYTES // max(1, avg_payload_bytes)))


# ---------------------------------------------------------------------------
# codecs — real standard formats, numpy/bytes only
# ---------------------------------------------------------------------------

def encode_ppm(px: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary P6 PPM."""
    h, w = px.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + px.astype(np.uint8).tobytes()


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary P6 PPM → (h, w, 3) uint8.  Handles ``#`` comments and
    arbitrary whitespace between header tokens, per the netpbm spec."""
    if payload[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    tokens: list[int] = []
    i = 2
    while len(tokens) < 3:
        c = payload[i : i + 1]
        if c == b"#":  # comment to end of line
            i = payload.index(b"\n", i) + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while not payload[j : j + 1].isspace():
                j += 1
            tokens.append(int(payload[i:j]))
            i = j
    w, h, maxval = tokens
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    i += 1  # single whitespace byte after maxval
    raster = np.frombuffer(payload, dtype=np.uint8, count=w * h * 3, offset=i)
    return raster.reshape(h, w, 3)


def encode_wav(pcm: np.ndarray, sample_rate: int) -> bytes:
    """int16 mono PCM → RIFF/WAVE."""
    data = pcm.astype("<i2").tobytes()
    fmt = struct.pack(
        "<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16
    )  # PCM, mono, sr, byterate, block align, bits
    chunks = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(chunks)) + chunks


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM16 mono → (int16 array, sample_rate) via a real
    chunk walk (tolerates extra chunks like LIST/INFO)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    i, sr, pcm = 12, None, None
    while i + 8 <= len(payload):
        cid = payload[i : i + 4]
        (size,) = struct.unpack("<I", payload[i + 4 : i + 8])
        body = payload[i + 8 : i + 8 + size]
        if cid == b"fmt ":
            audio_fmt, channels, sr, _br, _ba, bits = struct.unpack(
                "<HHIIHH", body[:16]
            )
            if (audio_fmt, channels, bits) != (1, 1, 16):
                raise ValueError("only PCM16 mono supported")
        elif cid == b"data":
            pcm = np.frombuffer(body, dtype="<i2")
        i += 8 + size + (size & 1)  # chunks are word-aligned
    if sr is None or pcm is None:
        raise ValueError("missing fmt/data chunk")
    return pcm, sr


def encode_y4m(frames: np.ndarray, fps: int = 30) -> bytes:
    """(n, h, w) uint8 luma frames → YUV4MPEG2 Cmono stream."""
    n, h, w = frames.shape
    head = b"YUV4MPEG2 W%d H%d F%d:1 Ip A1:1 Cmono\n" % (w, h, fps)
    return head + b"".join(
        b"FRAME\n" + frames[i].astype(np.uint8).tobytes() for i in range(n)
    )


def decode_y4m(payload: bytes) -> tuple[np.ndarray, int]:
    """YUV4MPEG2 Cmono → ((n, h, w) uint8, fps)."""
    nl = payload.index(b"\n")
    head = payload[:nl].split(b" ")
    if head[0] != b"YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 payload")
    w = h = fps = None
    for tok in head[1:]:
        if tok[:1] == b"W":
            w = int(tok[1:])
        elif tok[:1] == b"H":
            h = int(tok[1:])
        elif tok[:1] == b"F":
            fps = int(tok[1:].split(b":")[0])
        elif tok[:1] == b"C" and tok != b"Cmono":
            raise ValueError(f"unsupported colorspace {tok!r}")
    fsize = w * h
    frames = []
    i = nl + 1
    while i < len(payload):
        if payload[i : i + 6] != b"FRAME\n":
            raise ValueError("bad FRAME marker")
        i += 6
        frames.append(
            np.frombuffer(payload, dtype=np.uint8, count=fsize, offset=i)
            .reshape(h, w)
        )
        i += fsize
    return np.stack(frames) if frames else np.zeros((0, h, w), np.uint8), fps


def _fake_pixels(payload: bytes, w: int, h: int) -> np.ndarray:
    """Digest-seeded stand-in decode (perf-experiment path)."""
    seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
    rng = np.random.RandomState(seed % (2**32))
    return rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)


# ---------------------------------------------------------------------------
# actor-pool stages
# ---------------------------------------------------------------------------

class ImageDecodeResize:
    """Actor-pool stage: PPM payload → pixels → nearest-neighbor resize
    → (mean luma, 16-bin histogram embedding).

    Use: ``ds.map_batches(ImageDecodeResize, fn_constructor_kwargs=...,
    concurrency=N, batch_size=media_batch_size(avg))``."""

    def __init__(self, out_w: int = 64, out_h: int = 64, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.out_w, self.out_h = out_w, out_h

    def _resize(self, px: np.ndarray) -> np.ndarray:
        # nearest-neighbor resample — pure numpy, deterministic
        h, w = px.shape[:2]
        yi = (np.arange(self.out_h) * h // self.out_h).clip(0, h - 1)
        xi = (np.arange(self.out_w) * w // self.out_w).clip(0, w - 1)
        return px[yi[:, None], xi[None, :]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        cols = {n: [] for n in IMAGE_FEATURES_SCHEMA.names}
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                px = decode_ppm(payload)
            else:
                px = _fake_pixels(payload, meta["width"] or 32,
                                  meta["height"] or 32)
            px = self._resize(px)
            luma = float(
                (0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]).mean()
            )
            # 16-bin grayscale histogram as the stand-in "embedding"
            hist, _ = np.histogram(px.mean(axis=2), bins=16, range=(0, 256))
            emb = (hist / max(1, hist.sum())).astype(np.float32)
            cols["media_id"].append(mid)
            cols["width"].append(self.out_w)
            cols["height"].append(self.out_h)
            cols["mean_luma"].append(luma)
            cols["embedding"].append(emb.tolist())
        return pa.Table.from_pydict(cols, schema=IMAGE_FEATURES_SCHEMA)


class AudioFeatures:
    """Actor-pool stage: WAV payload → (duration, rms, zero-crossings)
    of the REAL decoded PCM."""

    def __init__(self, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = {"media_id": [], "duration_s": [], "rms": [], "zero_crossings": []}
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                pcm_i16, sr = decode_wav(payload)
                pcm = pcm_i16.astype(np.float64) / 32768.0
            else:
                sr = meta["sample_rate"] or 16000
                seed = int.from_bytes(
                    hashlib.blake2b(payload, digest_size=8).digest(), "little"
                )
                pcm = np.random.RandomState(seed % (2**32)).randn(sr)
            out["media_id"].append(mid)
            out["duration_s"].append(len(pcm) / sr)
            out["rms"].append(float(np.sqrt((pcm**2).mean())) if len(pcm) else 0.0)
            out["zero_crossings"].append(int((np.diff(np.sign(pcm)) != 0).sum()))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "duration_s": pa.array(out["duration_s"], type=pa.float64()),
                "rms": pa.array(out["rms"], type=pa.float64()),
                "zero_crossings": pa.array(out["zero_crossings"], type=pa.int64()),
            }
        )


class VideoFrameSample:
    """Actor-pool stage: y4m payload → every-nth-frame feature rows
    (variable fan-out — flat_map shape expressed as map_batches)."""

    def __init__(self, every_n: int = 10, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.every_n = every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = {"media_id": [], "frame_idx": [], "mean_luma": []}
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                frames, _fps = decode_y4m(payload)
                for f in range(0, len(frames), self.every_n):
                    out["media_id"].append(mid)
                    out["frame_idx"].append(f)
                    out["mean_luma"].append(float(frames[f].mean()))
            else:
                n = meta["n_frames"] or 30
                for f in range(0, n, self.every_n):
                    px = _fake_pixels(payload + f.to_bytes(4, "little"), 16, 16)
                    out["media_id"].append(mid)
                    out["frame_idx"].append(f)
                    out["mean_luma"].append(float(px.mean()))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "frame_idx": pa.array(out["frame_idx"], type=pa.int32()),
                "mean_luma": pa.array(out["mean_luma"], type=pa.float64()),
            }
        )


def dhash64(px: np.ndarray) -> int:
    """64-bit difference hash (dHash): integer block-mean downsample to
    9×8 grayscale, bit y·8+x = g[y,x] < g[y,x+1].  All-integer ⇒ the
    sequential golden matches exactly; near-duplicate images differ in
    few bits (the image analogue of text simhash)."""
    g = (
        px[..., 0].astype(np.int64)
        + px[..., 1].astype(np.int64)
        + px[..., 2].astype(np.int64)
    ) // 3
    h, w = g.shape
    yb = (np.arange(9) * h) // 9
    xb = (np.arange(10) * w) // 10
    small = np.empty((8, 9), dtype=np.int64)
    for y in range(8):
        for x in range(9):
            blk = g[yb[y] : max(yb[y + 1], yb[y] + 1),
                    xb[x] : max(xb[x + 1], xb[x] + 1)]
            small[y, x] = int(blk.sum()) // blk.size
    bits = (small[:, :-1] < small[:, 1:]).astype(np.uint64).ravel()
    return int((bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))


class ImagePHash:
    """Actor-pool stage: PPM payload → 64-bit perceptual hash (dHash);
    output (media_id, phash int64-bitcast) feeds the banded Hamming
    sweep of ``dedup.hash64_neardup_pairs`` (or its driver branch
    ``hash64_neardup_pairs_local``) for image near-dup detection."""

    def __init__(self, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out_id, out_h = [], []
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                px = decode_ppm(payload)
            else:
                px = _fake_pixels(payload, meta["width"] or 32,
                                  meta["height"] or 32)
            out_id.append(mid)
            out_h.append(np.uint64(dhash64(px)).astype(np.int64).item())
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "phash": pa.array(out_h, pa.int64()),
            }
        )


def audio_fp64(pcm: np.ndarray) -> int:
    """64-bit audio fingerprint: 65 equal windows, integer energy
    (Σ pcm², exact int64) per window, bit i = e[i] < e[i+1] — the
    sign-of-energy-delta contour (a chromaprint-style reduction that
    is all-integer ⇒ golden-exact and robust to small noise)."""
    n = len(pcm)
    k = 65
    bounds = (np.arange(k + 1) * n) // k
    e = np.array(
        [
            int(
                (
                    pcm[bounds[i] : max(bounds[i + 1], bounds[i] + 1)].astype(
                        np.int64
                    )
                    ** 2
                ).sum()
            )
            for i in range(k)
        ]
    )
    bits = (e[:-1] < e[1:]).astype(np.uint64)
    return int((bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))


class AudioFingerprint:
    """Actor-pool stage: WAV payload → (media_id, afp int64-bitcast);
    feeds the banded Hamming sweep of ``dedup.hash64_neardup_pairs``
    (or its driver branch ``hash64_neardup_pairs_local``) for audio
    near-dup."""

    def __init__(self, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_id, out_h = [], []
        for mid, payload in zip(ids, payloads):
            if self.decoder == "real":
                pcm, _sr = decode_wav(payload)
            else:
                pcm = np.frombuffer(payload[:4096], dtype=np.uint8).astype(
                    np.int16
                )
            out_id.append(mid)
            out_h.append(np.uint64(audio_fp64(pcm)).astype(np.int64).item())
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "afp": pa.array(out_h, pa.int64()),
            }
        )


def synth_audio_neardup_table(n: int, seed: int = 13) -> pa.Table:
    """Audio corpus with PLANTED near-duplicates: every 4th clip gets a
    copy (media_id + 100000) with small uniform sample noise — its
    energy contour (and so its fingerprint) stays within a couple of
    bits while unrelated clips sit ~32 apart."""
    base = synth_media_table(n, "audio", seed=seed, silence_gaps=False)
    rows = base.to_pylist()
    rng = np.random.RandomState(seed + 1)
    extra = []
    for r in rows:
        if r["media_id"] % 4 != 0:
            continue
        pcm, sr = decode_wav(r["payload"])
        noisy = (
            pcm.astype(np.int64) + rng.randint(-50, 51, size=len(pcm))
        ).clip(-32768, 32767).astype(np.int16)
        extra.append(
            {
                **r,
                "media_id": r["media_id"] + 100000,
                "payload": encode_wav(noisy, sr),
            }
        )
    return pa.Table.from_pylist(rows + extra, schema=base.schema)


class VideoKeyframes:
    """Actor-pool stage: y4m payload → keyframe rows by integer SAD
    (sum of absolute luma differences) against the LAST KEPT frame —
    the standard shot-boundary/keyframe selection, all-integer so the
    golden oracle matches exactly.  Frame 0 always keys; frame f keys
    when ``sad(f, last_kept) · 1000 ≥ threshold_milli · n_pixels``
    (i.e. mean abs diff ≥ threshold_milli/1000 luma levels)."""

    def __init__(self, threshold_milli: int = 8000, decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.threshold_milli = threshold_milli

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = {"media_id": [], "frame_idx": [], "sad": []}
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                frames, _fps = decode_y4m(payload)
            else:
                n = meta["n_frames"] or 30
                frames = np.stack(
                    [
                        _fake_pixels(
                            payload + f.to_bytes(4, "little"), 16, 16
                        )[..., 0]
                        for f in range(n)
                    ]
                )
            if not len(frames):
                continue
            npx = int(frames[0].size)
            last = frames[0].astype(np.int64)
            out["media_id"].append(mid)
            out["frame_idx"].append(0)
            out["sad"].append(0)
            for f in range(1, len(frames)):
                cur = frames[f].astype(np.int64)
                sad = int(np.abs(cur - last).sum())
                if sad * 1000 >= self.threshold_milli * npx:
                    out["media_id"].append(mid)
                    out["frame_idx"].append(f)
                    out["sad"].append(sad)
                    last = cur
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "frame_idx": pa.array(out["frame_idx"], type=pa.int32()),
                "sad": pa.array(out["sad"], type=pa.int64()),
            }
        )


def synth_media_table(
    n: int, kind: str = "image", seed: int = 13,
    silence_gaps: bool = True,
) -> pa.Table:
    """Deterministic media corpus in REAL encodings (P6 PPM / WAV PCM16
    / y4m Cmono) for tests and bench.  ``silence_gaps`` plants
    speech-like pauses in the audio clips (what makes VAD segmentation
    non-vacuous); the PLANTED-near-dup audio corpus turns them off —
    in a near-silent gap the copy's ±50 dither would dominate the
    energy contour and break the designed fingerprint proximity."""
    rng = np.random.RandomState(seed)
    rows = []
    for i in range(n):
        w = int(rng.randint(16, 128))
        h = int(rng.randint(16, 128))
        sr = 16000
        n_frames = int(rng.randint(10, 60))
        if kind == "image":
            px = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
            payload, codec = encode_ppm(px), "ppm"
        elif kind == "audio":
            n_samp = int(rng.randint(sr // 2, sr * 2))
            t = np.arange(n_samp) / sr
            tone = np.sin(2 * np.pi * float(rng.randint(80, 2000)) * t)
            pcm = ((tone * 0.5 + rng.randn(n_samp) * 0.1) * 20000).clip(
                -32768, 32767
            ).astype(np.int16)
            # speech-like pauses: 1-3 near-silent gaps (tiny dither, so
            # VAD windows fall well under any reasonable threshold) —
            # what makes silence segmentation non-vacuous
            for _ in range(int(rng.randint(1, 4)) if silence_gaps else 0):
                gap = int(rng.randint(sr // 50, sr // 4))
                start = int(rng.randint(0, max(n_samp - gap, 1)))
                pcm[start : start + gap] = (
                    rng.randn(len(pcm[start : start + gap])) * 40
                ).astype(np.int16)
            payload, codec = encode_wav(pcm, sr), "wav-pcm16"
            w = h = 0
        elif kind == "video":
            fw = fh = 16
            frames = rng.randint(
                0, 256, size=(n_frames, fh, fw), dtype=np.uint8
            )
            payload, codec = encode_y4m(frames, fps=30), "y4m"
            w, h = fw, fh
        else:
            raise ValueError(f"unknown media kind {kind!r}")
        rows.append(
            {
                "media_id": i,
                "kind": kind,
                "payload": payload,
                "meta": {
                    "width": w,
                    "height": h,
                    "sample_rate": sr,
                    "n_frames": n_frames,
                    "codec": codec,
                },
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class AudioSilence:
    """Actor-pool stage: WAV payload → voiced/silence SEGMENTS by
    integer energy VAD — the pre-filter a speech-data pipeline runs
    before transcription (drop silence, split long takes).

    Windows of ``win`` samples (default 160 = 10 ms @ 16 kHz); a window
    is VOICED iff ``sum(|pcm_i16|) ≥ threshold · n_samples`` (mean
    absolute amplitude ≥ ``threshold`` int16 levels — all-integer, so
    the sequential golden matches bit-for-bit).  Contiguous same-class
    windows merge into segments → ``(media_id, seg_idx, voiced,
    start_sample, n_samples, sum_abs)``.  A trailing partial window is
    classified as its own shorter window (``sum ≥ threshold · tail``)
    and merges into the final segment only when its class matches;
    otherwise it opens one more segment."""

    def __init__(self, win: int = 160, threshold: int = 1000,
                 decoder: str = "real"):
        if decoder not in ("real", "fake"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.win = int(win)
        self.threshold = int(threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = {
            "media_id": [], "seg_idx": [], "voiced": [],
            "start_sample": [], "n_samples": [], "sum_abs": [],
        }
        for mid, payload, meta in zip(ids, payloads, metas):
            if self.decoder == "real":
                pcm, _sr = decode_wav(payload)
            else:
                sr = meta["sample_rate"] or 16000
                seed = int.from_bytes(
                    hashlib.blake2b(payload, digest_size=8).digest(),
                    "little",
                )
                pcm = (
                    np.random.RandomState(seed % (2**32))
                    .randn(sr) * 8192
                ).astype(np.int16)
            n = len(pcm)
            if n == 0:
                continue
            w = self.win
            n_full = n // w
            a = np.abs(pcm.astype(np.int64))
            sums = (
                a[: n_full * w].reshape(n_full, w).sum(axis=1)
                if n_full
                else np.zeros(0, np.int64)
            )
            tail = n - n_full * w
            if tail:
                sums = np.append(sums, a[n_full * w :].sum())
            lens = np.full(len(sums), w, np.int64)
            if tail:
                lens[-1] = tail
            voiced = sums >= self.threshold * lens
            seg = 0
            i = 0
            while i < len(sums):
                j = i
                while j < len(sums) and voiced[j] == voiced[i]:
                    j += 1
                out["media_id"].append(mid)
                out["seg_idx"].append(seg)
                out["voiced"].append(bool(voiced[i]))
                out["start_sample"].append(i * w)
                out["n_samples"].append(int(lens[i:j].sum()))
                out["sum_abs"].append(int(sums[i:j].sum()))
                seg += 1
                i = j
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "seg_idx": pa.array(out["seg_idx"], type=pa.int32()),
                "voiced": pa.array(out["voiced"], type=pa.bool_()),
                "start_sample": pa.array(
                    out["start_sample"], type=pa.int64()
                ),
                "n_samples": pa.array(out["n_samples"], type=pa.int64()),
                "sum_abs": pa.array(out["sum_abs"], type=pa.int64()),
            }
        )
