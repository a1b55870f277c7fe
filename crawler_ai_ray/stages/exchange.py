"""The adaptive driver-or-bucket finish, in one place.

Many wide steps end the same way: a map stage emits partial rows
tagged with a ``bucket`` column (``hash(key) % n``, so every partial of
a key lands in one bucket), and a kernel finishes each bucket exactly.
When the partials are few, one pass on the driver over all of them
beats a Ray sort-shuffle whose fixed cost dwarfs the data; when they
are many, the kernel runs per bucket through ``groupby(bucket)
.map_groups``.  :func:`bucket_finish` owns both the decision (row count
from block metadata against :data:`DRIVER_FINISH_MAX`) and the
mechanism, so a kernel is written once and sees the same rows — minus
the bucket column — on either branch.

Tests force the shuffle branch by setting ``DRIVER_FINISH_MAX`` to 0;
:data:`PATHS` counts which branch each call took.
"""
from __future__ import annotations

import collections

import pyarrow as pa
import pyarrow.compute as pc

# Partial-row count at or below which a finish runs on the driver
# (~2M skinny rows is ~100 MB of Arrow: cheap to gather, and far below
# the point where one driver pass loses to a shuffle).  Read at call
# time, so setting the module attribute retunes every finish.
DRIVER_FINISH_MAX = 2_000_000

# Branch taken by each bucket_finish call in this process, keyed
# "driver" / "shuffle".
PATHS: collections.Counter = collections.Counter()


def blocks(ds) -> list[pa.Table]:
    """Execute ``ds`` and return its non-empty Arrow blocks (Ray's
    schema-less empty blocks have no rows, so they drop out too)."""
    import ray

    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]


def bucket_of(keys, n: int) -> pa.Array:
    """``key % n`` as int64 for a non-negative integer key column — a
    bit mask when ``n`` is a power of two."""
    k = pc.cast(keys, pa.uint64())
    if n & (n - 1) == 0:
        b = pc.bit_wise_and(k, n - 1)
    else:
        b = pc.subtract(k, pc.multiply(pc.divide(k, n), n))
    return pc.cast(b, pa.int64())


def _map_buckets(pre, fn, key: str):
    """Lazy ``fn`` per ``key`` group, the key column dropped.  Ray's
    sort-based ``map_groups`` calls it only for non-empty groups, so
    empty and schema-less blocks never reach ``fn``."""
    return pre.groupby(key).map_groups(
        lambda g: fn(g.drop_columns([key])), batch_format="pyarrow"
    )


def bucketed_agg(ds, key: str, local_fn, schema: pa.Schema,
                 num_buckets: int = 64):
    """Distributed groupby on an int64 key as ONE bucket shuffle:
    ``bucket = key % num_buckets`` tag → ``groupby(bucket).map_groups``
    with ``local_fn`` running on the complete co-located key set (the
    high-cardinality-groupby house rule: never
    ``groupby(key).aggregate`` at millions of groups — bucket the key
    and sweep each bucket with Arrow locally).  ``schema`` is the input
    schema (static — avoids the lazy schema() limit-1 probe) and types
    Ray's schema-less empty blocks.  Returns a lazy Dataset."""

    def tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            b = schema.empty_table()
        return b.append_column("bucket", bucket_of(b[key], num_buckets))

    return _map_buckets(
        ds.map_batches(tag, batch_format="pyarrow"), local_fn, "bucket"
    )


def bucket_finish(pre, fn, empty: pa.Schema, key: str = "bucket",
                  driver_max: int | None = None, lazy: bool = False):
    """Finish bucket-tagged partials with ``fn``, on the driver or per
    bucket.

    ``pre`` is materialized and its row count read from block
    metadata.  At or below ``driver_max`` (default
    :data:`DRIVER_FINISH_MAX`, read now) rows, ``fn`` runs once on the
    driver over the concatenated non-empty blocks; above it, once per
    ``key`` group through the sort-based ``groupby(key).map_groups``.
    Either way ``fn`` sees the rows without the ``key`` column, so it
    must be exact on any union of whole buckets.

    Returns the concatenated non-empty outputs as one table (``empty``'s
    empty table when there are none).  With ``lazy`` it returns a
    Dataset instead: the shuffle branch stays lazy (nothing is gathered
    to the driver) and the driver branch's table is wrapped with
    ``ray.data.from_arrow``."""
    import ray.data

    pre = pre.materialize()
    limit = DRIVER_FINISH_MAX if driver_max is None else driver_max
    if pre.count() <= limit:
        PATHS["driver"] += 1
        rows = blocks(pre)
        out = fn(pa.concat_tables(rows).drop_columns([key])) if rows else None
        if out is None or out.num_rows == 0:
            out = empty.empty_table()
        return ray.data.from_arrow(out) if lazy else out
    PATHS["shuffle"] += 1
    ds = _map_buckets(pre, fn, key)
    if lazy:
        return ds
    parts = blocks(ds)
    return pa.concat_tables(parts) if parts else empty.empty_table()
