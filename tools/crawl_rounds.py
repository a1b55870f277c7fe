"""Per-round time of a finished crawl or recrawl, read from its round
manifests.

Usage: python3 tools/crawl_rounds.py CRAWL_DIR

CRAWL_DIR is a ``run_crawl`` / ``run_recrawl`` output directory. For
each round the tool prints its wall (dispatch to the return of its last
bucket task), its slowest partition, the overhead between the two
(dispatch, scheduling and result transfer) and the median over the
round's partitions of each phase a bucket task records: checkpoint read,
wave plan, waiting on page-store replies, extraction, expansion plus
seen filter, and the partitioned write. A last line gives the medians
over all rounds. Needs no Ray session.
"""

from __future__ import annotations

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from crawler_ai_ray.pipelines.crawl import PHASES, round_manifests  # noqa: E402


def round_rows(ms: list[dict]) -> list[dict]:
    rows = []
    for m in ms:
        parts = m.get("partitions", [])
        slowest = max((p["wall_ms"] for p in parts), default=0.0)
        row = {
            "round": m["round"], "tasks": len(parts), "wall_ms": m["wall_ms"],
            "slowest_ms": slowest, "overhead_ms": m["wall_ms"] - slowest,
        }
        for k in PHASES:
            vals = [p[k] for p in parts if k in p]
            row[k] = statistics.median(vals) if vals else None
        rows.append(row)
    return rows


def _fmt(v) -> str:
    return f"{v:8.1f}" if v is not None else f"{'-':>8s}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = round_rows(round_manifests(argv[0]))
    if not rows:
        print(f"no round manifests under {argv[0]}", file=sys.stderr)
        return 1
    cols = ("wall_ms", "slowest_ms", "overhead_ms") + PHASES
    print(f"{'round':>5s} {'tasks':>5s} " + " ".join(f"{c[:-3]:>8.8s}" for c in cols))
    for r in rows:
        print(f"{r['round']:5d} {r['tasks']:5d} " + " ".join(_fmt(r[c]) for c in cols))
    med = {
        c: statistics.median(vals) if vals else None
        for c in cols
        for vals in [[r[c] for r in rows if r[c] is not None]]
    }
    print(f"{'med':>5s} {'':5s} " + " ".join(_fmt(med[c]) for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
