"""Cross-host mirror candidates: engine vs an engine-code-free
set-based brute force, forced distributed path agreement, DF cap
behavior, and empty input."""

import numpy as np
import pyarrow as pa


def _mk_pages():
    """18 hosts; hosts m0/m1 share 3 10-word windows (a near-mirror),
    m2/m3 share exactly 1 (below min_shared), and one window is planted
    on EVERY host (DF-cap fodder)."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    common = " ".join(f"c{i}" for i in range(10))  # on every host
    shared_a = [
        " ".join(f"a{k}_{i}" for i in range(10)) for k in range(3)
    ]
    shared_b = " ".join(f"b{i}" for i in range(10))
    hosts, texts = [], []
    for h in range(18):
        host = f"m{h}.example"
        base = " ".join(rng.choice(vocab, 30))  # 3 private windows
        parts = [common, base]
        if h in (0, 1):
            parts += shared_a
        if h in (2, 3):
            parts.append(shared_b)
        hosts.append(host)
        texts.append(" ".join(parts))
    return hosts, texts


def _brute(hosts, texts, seg_words=10, max_df=64, min_shared=2):
    segs = {}
    for h, t in zip(hosts, texts):
        w = t.split(" ")
        s = {
            " ".join(w[i : i + seg_words])
            for i in range(0, len(w), seg_words)
        }
        segs.setdefault(h, set()).update(s)
    df = {}
    for h, ss in segs.items():
        for s in ss:
            df[s] = df.get(s, 0) + 1
    pairs = {}
    hh = sorted(segs)
    for i in range(len(hh)):
        for j in range(i + 1, len(hh)):
            sh = sum(
                1
                for s in segs[hh[i]] & segs[hh[j]]
                if 2 <= df[s] <= max_df
            )
            if sh >= min_shared:
                pairs[(hh[i], hh[j])] = (
                    sh, len(segs[hh[i]]), len(segs[hh[j]])
                )
    return pairs


def test_mirror_pairs_bruteforce_and_paths(ray_session, force_shuffle):
    import ray.data

    from crawler_ai_ray.stages.dedup import mirror_host_pairs

    hosts, texts = _mk_pages()
    ds = ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(5)
    got = mirror_host_pairs(ds).to_pandas()
    want = _brute(hosts, texts)
    assert len(got) == len(want)
    for r in got.itertuples():
        sh, na, nb = want[(r.host_a, r.host_b)]
        assert r.shared == sh
        assert (r.a_segments, r.b_segments) == (na, nb)
        assert r.jaccard_micros == sh * 10**6 // (na + nb - sh)
        assert r.containment_micros == sh * 10**6 // min(na, nb)
    # the m0/m1 mirror pair is found; the every-host window (DF=18,
    # within the 64 cap) also lifts m2/m3 to shared=2 — exactly what
    # the brute force says
    keys = set(want)
    assert ("m0.example", "m1.example") in keys
    assert want[("m0.example", "m1.example")][0] >= 4  # 3 planted + common
    # forced distributed tier bit-identical
    with force_shuffle():
        forced = mirror_host_pairs(ds).to_pandas()
    a = got.sort_values(["host_a", "host_b"], ignore_index=True)
    b = forced.sort_values(["host_a", "host_b"], ignore_index=True)
    assert a.equals(b)
    # tight DF cap kills the every-host segment: m2/m3 (1 planted
    # window + the now-capped common one) drops below min_shared
    capped = mirror_host_pairs(ds, max_df_hosts=3).to_pandas()
    want_capped = _brute(hosts, texts, max_df=3)
    assert len(capped) == len(want_capped)
    cap_keys = set(zip(capped.host_a, capped.host_b))
    assert ("m2.example", "m3.example") not in cap_keys
    assert ("m0.example", "m1.example") in cap_keys
    # empty input
    empty = mirror_host_pairs(
        ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "text": pa.array([], pa.string()),
                }
            )
        )
    )
    assert empty.num_rows == 0
