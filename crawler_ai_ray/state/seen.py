"""Sharded URL-seen set — the engine's replacement for Scrapy's dupefilter
and the reference's ad-hoc ``visited_urls``/``seen`` sets
(``job_extraction_service.py:325-338``, ``routes.py:141-147``).

Design (north_rule: "bloom/cuckoo URL-seen … actor pool, hosts
hash-partitioned across shards"):

* ``UrlSeenShard`` Ray actors, ``shard = crc32(host) % num_shards`` —
  **all of a host's URLs live in one shard**, so the per-host
  check-and-add during frontier expansion is a single batched actor call
  and per-host exactness needs no cross-shard coordination.
* Each shard holds one structure per mode.  ``exact`` mode (the default
  in-sandbox, so conformance tests are byte-exact) keeps a plain
  ``set``.  Approximate mode keeps a :class:`ScalableCuckooFilter`
  (~16 bits/URL — the scale structure: 10^10 URLs ≈ 20 GB across the
  pool): a chain of cuckoo filters, where a URL the newest filter cannot
  place goes to a new, twice larger one.  No URL is ever dropped, so
  false negatives (a seen URL fetched again) cannot occur; a false
  positive makes the crawl *skip* a URL (crawl-safe direction), at a
  rate of at most 8/2^16 per filter in the chain.
* ``dump()``/``restore()`` round-trip the shard through Arrow for the
  Parquet checkpoint (FIXTURES.md F5 resume semantics).  A shard keeps
  its journal of fresh URLs keyed by the round in each call's
  ``epoch``, and writes its own delta file: the crawl driver dumps
  round r while round r+1's calls already arrive, and the round-r
  delta still holds exactly round r's URLs.

The sharding hash is ``zlib.crc32`` (stable across processes, unlike
``hash()``), so a dump written by one run can be restored by another.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa

__all__ = [
    "CuckooFilter", "ScalableCuckooFilter", "UrlSeenShard", "SeenPool",
    "shard_for_host",
]


def shard_for_host(host: str, num_shards: int) -> int:
    return zlib.crc32(host.encode("utf-8")) % num_shards


def _fingerprints(hashes: np.ndarray) -> np.ndarray:
    """16-bit fingerprints, never 0 (0 marks an empty slot)."""
    fp = (hashes >> np.uint64(48)).astype(np.uint16)
    fp[fp == 0] = 1
    return fp


class CuckooFilter:
    """A standard (2-choice, 4-slot-bucket) cuckoo filter over uint64 key
    hashes.  Vectorized numpy storage; insertion does the usual random
    eviction walk.  Public-algorithm implementation (Fan et al., CoNEXT'14).
    """

    MAX_KICKS = 500

    def __init__(self, capacity: int = 1 << 16, seed: int = 7) -> None:
        n_buckets = 1
        while n_buckets * 4 < capacity:
            n_buckets <<= 1
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self.overflowed = False

    def _indices(self, h: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = np.uint64(self.n_buckets - 1)
        i1 = (h & mask).astype(np.int64)
        # partner bucket: i xor hash(fp)  (stable integer mix)
        fp_h = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & mask
        i2 = (i1.astype(np.uint64) ^ fp_h).astype(np.int64)
        return i1, i2

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        fp = _fingerprints(h)
        i1, i2 = self._indices(h, fp)
        t = self.table
        fpc = fp[:, None]
        return ((t[i1] == fpc).any(axis=1)) | ((t[i2] == fpc).any(axis=1))

    def _insert_one(self, i1: int, i2: int, fp: int) -> bool:
        """Place ``fp`` in bucket ``i1`` or ``i2``; False, with the table
        as it was, when the eviction walk finds no free slot."""
        for i in (i1, i2):
            row = self.table[i]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return True
        # eviction walk
        i = int(self.rng.choice((i1, i2)))
        cur = np.uint16(fp)
        mask = self.n_buckets - 1
        walk = []
        for _ in range(self.MAX_KICKS):
            slot = int(self.rng.integers(0, 4))
            walk.append((i, slot))
            cur, self.table[i, slot] = self.table[i, slot], cur
            i = int(i ^ ((int(cur) * 0x5BD1E995) & mask))
            row = self.table[i]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = cur
                self.count += 1
                return True
        # undo the walk: every evicted fingerprint goes back to its slot
        for i, slot in reversed(walk):
            cur, self.table[i, slot] = self.table[i, slot], cur
        self.overflowed = True
        return False

    def add_many(self, h: np.ndarray) -> np.ndarray:
        """Insert in order up to the first key that finds no slot; returns
        that key and the ones after it (empty when all fit)."""
        fp = _fingerprints(h)
        i1, i2 = self._indices(h, fp)
        for k, (a, b, f) in enumerate(zip(i1, i2, fp)):
            if not self._insert_one(int(a), int(b), int(f)):
                return h[k:]
        return h[:0]


class ScalableCuckooFilter:
    """A chain of :class:`CuckooFilter` s, each twice the capacity of the
    one before.  Inserts go to the newest filter; a key it cannot place
    starts the next one, so no key is lost.  A lookup probes every
    filter, which bounds the false-positive rate by 8/2^16 per filter."""

    def __init__(self, capacity: int = 1 << 16, seed: int = 7) -> None:
        self.seed = seed
        self.filters = [CuckooFilter(capacity, seed)]

    @property
    def count(self) -> int:
        return sum(f.count for f in self.filters)

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        out = self.filters[0].contains_many(h)
        for f in self.filters[1:]:
            out |= f.contains_many(h)
        return out

    def add_many(self, h: np.ndarray) -> None:
        rest = self.filters[-1].add_many(h)
        while len(rest):
            grown = CuckooFilter(self.filters[-1].n_buckets * 8, self.seed)
            self.filters.append(grown)
            rest = grown.add_many(rest)

    def dump(self) -> pa.Table:
        """One row per filter: its slot table, flattened."""
        flat = [f.table.reshape(-1) for f in self.filters]
        offsets = np.cumsum([0] + [len(t) for t in flat], dtype=np.int64)
        slots = pa.LargeListArray.from_arrays(
            pa.array(offsets), pa.array(np.concatenate(flat), pa.uint16())
        )
        return pa.table({"slots": slots})

    def restore(self, table: pa.Table) -> None:
        self.filters = []
        for slots in table["slots"].to_numpy(zero_copy_only=False):
            f = CuckooFilter(len(slots), self.seed)
            f.table = np.asarray(slots, dtype=np.uint16).reshape(f.n_buckets, 4)
            f.count = int(np.count_nonzero(f.table))
            self.filters.append(f)


def _hash_urls(urls: list[str]) -> np.ndarray:
    """Stable 64-bit url hashes (two crc32 halves — cheap and process-stable;
    at real scale swap for xxhash64)."""
    out = np.empty(len(urls), dtype=np.uint64)
    for i, u in enumerate(urls):
        b = u.encode("utf-8")
        out[i] = (zlib.crc32(b) << 32) | zlib.crc32(b, 0xFEEDBEEF)
    return out


class UrlSeenShard:
    """One shard of the URL-seen set.  Plain class — wrap with
    ``ray.remote(UrlSeenShard)`` (done in :class:`SeenPool`) so tests can
    also drive it locally."""

    def __init__(self, capacity: int = 1 << 18, exact: bool = True) -> None:
        self.capacity = capacity
        self.exact: set[str] | None = set() if exact else None
        self.filter = None if exact else ScalableCuckooFilter(capacity)
        # urls added since the last delta dump, by the round of the
        # caller's epoch (per-round incremental checkpoints: O(new) per
        # round instead of O(seen)); epoch-less and seed calls are -1
        self._journal: dict[int, list[str]] = {}
        # idempotency: last answer per caller epoch ("rnd:bucket:sub");
        # a RETRIED bucket task replays its original answer instead of
        # seeing its own first attempt's marks (which would silently
        # shrink the frontier).  Entries from older rounds are pruned
        # on first use of a new round → ≤ bucket-tasks entries live.
        self._epoch_cache: dict[str, list[bool]] = {}
        self._epoch_rnd: str | None = None

    def reset(self) -> None:
        """Blank ALL state (filter, exact set, journal, epoch cache) —
        a persistent service pool starts each crawl job from the same
        state a fresh actor would, without paying actor spin-up."""
        self.__init__(self.capacity, exact=self.exact is not None)

    def check_and_add(
        self, urls: list[str], epoch: str | None = None
    ) -> list[bool]:
        """For each url: True iff it was NOT seen before (and is now added).
        The frontier keeps rows where the answer is True (anti-join J5).
        ``epoch`` makes the call idempotent per caller round/bucket —
        required now that bucket rounds run as plain Ray tasks, which
        Ray may transparently retry."""
        if epoch is not None:
            cached = self._epoch_cache.get(epoch)
            if cached is not None and len(cached) == len(urls):
                return cached
        rnd = epoch.split(":", 1)[0] if epoch is not None else ""
        journal = self._journal.setdefault(int(rnd) if rnd.isdigit() else -1, [])
        out = self._check_and_add(urls, journal)
        if epoch is not None:
            if rnd != self._epoch_rnd:
                self._epoch_cache.clear()
                self._epoch_rnd = rnd
            self._epoch_cache[epoch] = out
        return out

    def _check_and_add(self, urls: list[str], journal: list[str]) -> list[bool]:
        if self.exact is not None:
            out = []
            for u in urls:
                fresh = u not in self.exact
                if fresh:
                    self.exact.add(u)
                    journal.append(u)
                out.append(fresh)
            return out
        h = _hash_urls(urls)
        seen = self.filter.contains_many(h)
        fresh = ~seen
        # dedup within the call (two identical urls in one batch)
        first_idx: dict[int, int] = {}
        for i, hv in enumerate(h):
            if fresh[i] and int(hv) in first_idx:
                fresh[i] = False
            else:
                first_idx.setdefault(int(hv), i)
        if fresh.any():
            self.filter.add_many(h[fresh])
            journal.extend(u for u, f in zip(urls, fresh) if f)
        return fresh.tolist()

    def n_seen(self) -> int:
        return len(self.exact) if self.exact is not None else self.filter.count

    def dump(self) -> pa.Table:
        """Full checkpoint.  Exact mode dumps urls; approximate mode dumps
        every filter of the chain."""
        if self.exact is not None:
            return pa.table({"url": pa.array(sorted(self.exact), pa.string())})
        return self.filter.dump()

    def dump_delta(self, rnd: int | None = None) -> pa.Table:
        """Incremental checkpoint: urls added since the previous delta
        dump by calls of round ``rnd`` or earlier (every round when
        None); restore = replay every round's delta in order."""
        keys = [k for k in self._journal if rnd is None or k <= rnd]
        urls = [u for k in keys for u in self._journal.pop(k)]
        return pa.table({"url": pa.array(sorted(urls), pa.string())})

    def write_delta(self, path: str, rnd: int) -> int:
        """Write ``dump_delta(rnd)`` to the parquet file ``path`` through
        a temp file and ``os.replace``; returns its row count."""
        import pyarrow.parquet as pq

        t = self.dump_delta(rnd)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
        return t.num_rows

    def restore(self, table: pa.Table) -> None:
        """Replay a url dump or delta into this shard's structure, or load
        an approximate-mode filter dump."""
        if "url" not in table.column_names:
            self.filter.restore(table)
        elif self.exact is not None:
            self.exact.update(table["url"].to_pylist())
        elif table.num_rows:
            self.filter.add_many(_hash_urls(table["url"].to_pylist()))


class SeenPool:
    """Driver-side handle over the shard actors."""

    def __init__(self, num_shards: int = 8, capacity_per_shard: int = 1 << 18,
                 exact: bool = True) -> None:
        import ray

        self.num_shards = num_shards
        actor = ray.remote(num_cpus=0.25)(UrlSeenShard)
        self.shards = [
            actor.remote(capacity_per_shard, exact) for _ in range(num_shards)
        ]

    def handle_for_host(self, host: str):
        return self.shards[shard_for_host(host, self.num_shards)]

    def check_and_add(self, host: str, urls: list[str]) -> list[bool]:
        """Blocking convenience (used from inside map_groups, where the
        per-host group makes exactly one batched call)."""
        import ray

        return ray.get(self.handle_for_host(host).check_and_add.remote(urls))

    def reset(self) -> None:
        """Blank every shard (see ``UrlSeenShard.reset``) — persistent
        service pools start each crawl from fresh state."""
        import ray

        ray.get([s.reset.remote() for s in self.shards])

    def dump(self, out_dir: str, rnd: int) -> int:
        """Each shard writes its own ``shard-XXXX.parquet`` under
        ``out_dir`` (no table travels to the driver); returns once every
        file exists, with the number of rows written.  A file holds only
        the urls added by calls of round ``rnd`` or earlier since the
        last dump (O(new) per round — at 10^10-URL scale a full dump per
        round would be quadratic I/O)."""
        import ray

        return sum(ray.get([
            s.write_delta.remote(
                os.path.join(out_dir, f"shard-{i:04d}.parquet"), rnd
            )
            for i, s in enumerate(self.shards)
        ]))

    def restore(self, in_dirs: str | list[str]) -> None:
        """Replay one or more dump dirs (deltas in round order)."""
        import pyarrow.parquet as pq
        import ray

        if isinstance(in_dirs, str):
            in_dirs = [in_dirs]
        refs = []
        for in_dir in in_dirs:
            for i, s in enumerate(self.shards):
                path = os.path.join(in_dir, f"shard-{i:04d}.parquet")
                if os.path.exists(path):
                    refs.append(s.restore.remote(pq.read_table(path)))
        ray.get(refs)

    def shutdown(self) -> None:
        import ray

        for s in self.shards:
            ray.kill(s)
        self.shards = []
