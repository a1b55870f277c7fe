"""Wall time of every graph kernel on every tier it has, on one
corpus's host edges, next to a same-code MinHash control.

Usage: python3 tools/graph_tiers.py [CORPUS] [--loops N] [--cpus C]

CORPUS is a corpus directory holding ``pages.parquet`` or a scale tag
(``sf0.001``, ``sf0.01``, ...; generated on first use), default
``sf0.01``.  The host edges are built once; each kernel/tier pair then
runs once to warm up and N more times, and a figure is the median of
those N calls in milliseconds.  The tier is forced the way the tests
force it: ``local`` is the default gate, ``broadcast`` passes
``driver_max_edges=0`` and ``sharded`` also ``shard_min_edges=0``.
Run it in fresh processes, alternating the trees being compared, and
read each side next to its control: when the control moves, the box
changed, not the code.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TIERS = {
    "local": {},
    "broadcast": {"driver_max_edges": 0},
    "sharded": {"driver_max_edges": 0, "shard_min_edges": 0},
}


def _kernels(seeds: list[str]) -> dict:
    from crawler_ai_ray.stages import linkgraph as lg

    all3, two = list(TIERS), ["local", "broadcast"]
    return {
        "pagerank": (lambda e, **kw: lg.pagerank_hosts(e, **kw), all3),
        "ppr": (lambda e, **kw: lg.personalized_pagerank_hosts(e, seeds, **kw), all3),
        "bfs": (lambda e, **kw: lg.bfs_hosts(e, seeds, **kw), all3),
        "hyperball": (lambda e, **kw: lg.harmonic_hosts(e, **kw), all3),
        "hits": (lambda e, **kw: lg.hits_hosts(e, **kw), two),
        "katz": (lambda e, **kw: lg.katz_hosts(e, **kw), two),
        "opic": (lambda e, **kw: lg.opic_hosts(e, **kw), two),
    }


def _edges(corpus: str):
    import ray.data

    from crawler_ai_ray.stages.extract import extract_links
    from crawler_ai_ray.stages.linkgraph import host_edges

    if not os.path.exists(os.path.join(corpus, "pages.parquet")):
        from crawler_ai_ray.sources.synth import ensure_corpus

        corpus = ensure_corpus(corpus)
    pages = ray.data.read_parquet(
        os.path.join(corpus, "pages.parquet"), columns=["url", "html"]
    )
    return host_edges(extract_links(pages)).materialize(), corpus


def _control(corpus: str, n: int = 200, loops: int = 3) -> float:
    """MinHash signatures of the first ``n`` pages' HTML, docs/s."""
    import pyarrow.parquet as pq

    from crawler_ai_ray.stages.dedup import minhash_signature

    html = pq.read_table(os.path.join(corpus, "pages.parquet"), columns=["html"])
    docs = [h.decode("utf-8", errors="ignore") for h in html["html"].to_pylist()[:n]]
    runs = []
    for _ in range(loops):
        t = time.perf_counter()
        for d in docs:
            minhash_signature(d)
        runs.append(time.perf_counter() - t)
    return len(docs) / statistics.median(runs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", nargs="?", default="sf0.01")
    ap.add_argument("--loops", type=int, default=5)
    ap.add_argument("--cpus", type=int, default=4)
    args = ap.parse_args()

    import pyarrow as pa
    import ray
    import ray.data

    ray.init(num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        edges, corpus = _edges(args.corpus)
        et = pa.concat_tables(
            [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        )
        hosts = sorted(set(et["src"].to_pylist()) | set(et["dst"].to_pylist()))
        seeds = hosts[::10]
        print(
            f"corpus={args.corpus} edges={et.num_rows} hosts={len(hosts)} "
            f"seeds={len(seeds)} loops={args.loops} cpus={args.cpus}"
        )
        for name, (fn, tiers) in _kernels(seeds).items():
            for tier in tiers:
                fn(edges, **TIERS[tier])  # warm-up
                runs = []
                for _ in range(args.loops):
                    t = time.perf_counter()
                    fn(edges, **TIERS[tier])
                    runs.append(time.perf_counter() - t)
                print(f"{name:10s} {tier:10s} {statistics.median(runs) * 1e3:9.1f} ms")
        print(f"control_minhash_docs_per_s {_control(corpus):10.1f}")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
