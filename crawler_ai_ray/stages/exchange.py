"""The adaptive driver-or-bucket finish and the broadcast-or-bucketed
join, in one place.

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

:func:`join` makes the same kind of decision for a join: a build side
of at most :data:`BROADCAST_MAX` rows is sorted once on the driver and
broadcast to a map-side ``searchsorted`` probe (:func:`lookup`);
a larger one goes through the bucketed shuffle of
:func:`hash_bucket_join`.

Tests force the shuffle branch by setting ``DRIVER_FINISH_MAX`` to 0
and the bucketed join by setting ``BROADCAST_MAX`` to 0; :data:`PATHS`
counts which branch each call took.
"""
from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Partial-row count at or below which a finish runs on the driver
# (~2M skinny rows is ~100 MB of Arrow: cheap to gather, and far below
# the point where one driver pass loses to a shuffle).  Read at call
# time, so setting the module attribute retunes every finish.
DRIVER_FINISH_MAX = 2_000_000

# Build-side row count at or below which a join broadcasts (4M int64
# keys are 32 MB plus payload on every probe task).  Read at call time,
# like DRIVER_FINISH_MAX.
BROADCAST_MAX = 4_000_000

# Branch taken by each bucket_finish / join call in this process, keyed
# "driver" / "shuffle" / "broadcast" / "bucketed".
PATHS: collections.Counter = collections.Counter()


def blocks(ds) -> list[pa.Table]:
    """Execute ``ds`` once and return its non-empty Arrow blocks (Ray's
    schema-less empty blocks have no rows, so they drop out too).
    ``to_arrow_refs`` on a lazy Dataset runs the plan a second time
    under a limit-1 probe to read the schema; a materialized one knows
    it."""
    import ray

    return [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]


def bucket_of(keys, n: int) -> pa.Array:
    """``key % n`` as int64 for a non-negative integer key column (u64
    keys ≥ 2^63 included) — a bit mask when ``n`` is a power of two.
    The mask and divisor are u64 scalars: a Python int would promote
    the column to int64 and fail on those keys."""
    k = pc.cast(keys, pa.uint64())
    if n & (n - 1) == 0:
        b = pc.bit_wise_and(k, pa.scalar(n - 1, pa.uint64()))
    else:
        d = pa.scalar(n, pa.uint64())
        b = pc.subtract(k, pc.multiply(pc.divide(k, d), d))
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


def lookup(keys: np.ndarray, q: np.ndarray):
    """Sorted-array membership: (hit mask, insert positions clipped to
    ``keys``), so ``vals[idx[hit]]`` is each hit's value."""
    if len(keys) == 0:
        return np.zeros(len(q), dtype=bool), np.zeros(len(q), dtype=np.int64)
    idx = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return keys[idx] == q, idx


def hash_bucket_join(left, right, on: str, num_buckets: int = 32,
                     bucket_postprocess=None, join_type: str = "inner",
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None,
                     hot_keys: list[int] | None = None,
                     n_salts: int = 8):
    """Distributed inner hash join on an **integer key** as a
    composition of ``map_batches`` + ``union`` + ``groupby(bucket)``
    + ``map_groups`` (SURVEY §2.5 J3 generalized; custom-operator
    path (a) from the build brief).

    Both sides are tagged with ``bucket = key % num_buckets`` and a
    ``side`` flag, schemas are null-padded to a common layout, and the
    single Ray shuffle has ``num_buckets`` groups; each bucket group
    then joins its two sides locally with Arrow ``Table.join``
    (co-location is exact: a key lives in exactly one bucket).
    Measured against ``ray.data.Dataset.join`` at sf0.1 / 32 cpus this
    is ~1.5-2× faster end-to-end — Ray's join pays per-partition actor
    constants that dominate at these sizes; at cluster scale raise
    ``num_buckets`` ∝ data size exactly as you would ``Dataset.join``'s
    ``num_partitions``.

    ``bucket_postprocess(joined: pa.Table) -> pa.Table``, when given,
    runs inside each bucket task (e.g. a partial rollup) so the join
    output never re-shuffles at full width.  ``join_type`` passes
    through to Arrow ``Table.join`` — "inner" (default), "left outer",
    "left semi", "left anti" (the anti-join is the seen-URL filter
    generalized, SURVEY §2.5 J5); semi/anti emit left columns only.

    ``hot_keys`` (from ``sample_hot_keys`` or caller knowledge) salts
    skew: each hot key gets its own ``n_salts`` sub-buckets past the
    base range — LEFT rows of that key spread round-robin across the
    salts, RIGHT rows replicate into every salt, so one key holding
    50 % of the left side becomes ``n_salts`` parallel tasks instead
    of one straggler.  Exact for every join_type here (a left row
    lives in exactly one bucket and sees the full right match set);
    the planted-skew test pins salted ≡ unsalted.  Replication
    assumes the hot key's RIGHT side is small (the usual probe-side
    skew); two-sided hot keys are a cross-product explosion no
    partitioning fixes."""
    hot_arr = (
        np.sort(np.asarray(hot_keys, dtype=np.int64))
        if hot_keys
        else None
    )

    # schema() on a lazy map_batches Dataset triggers a limit-1 probe
    # execution; callers that know their prepped schemas pass them
    # explicitly, skipping the probe (and the rare Ray task-cancel
    # race a LimitOperator can hit)
    lbase = left_schema if left_schema is not None else (
        left.schema().base_schema
    )
    rbase = right_schema if right_schema is not None else (
        right.schema().base_schema
    )
    lcols = [f.name for f in lbase]
    rcols = [f.name for f in rbase]
    lschema = {f.name: f.type for f in lbase}
    rschema = {f.name: f.type for f in rbase}
    if on not in lschema or on not in rschema:
        raise ValueError(f"join key {on!r} must exist on both sides")
    payload = [(c, lschema[c]) for c in lcols if c != on] + [
        (c, rschema[c]) for c in rcols if c != on
    ]
    if len({c for c, _ in payload}) != len(payload):
        raise ValueError("non-key columns must be disjoint")

    def tag(side_flag, own_cols):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {
                "bucket": bucket_of(batch[on], num_buckets),
                on: batch[on],
                "side": pa.array([side_flag] * batch.num_rows, pa.int8()),
            }
            for c, typ in payload:
                cols[c] = batch[c] if c in own_cols else pa.nulls(
                    batch.num_rows, typ
                )
            tagged = pa.table(cols)
            if hot_arr is None or batch.num_rows == 0:
                return tagged
            kv = batch[on].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.clip(
                np.searchsorted(hot_arr, kv), 0, len(hot_arr) - 1
            )
            ishot = hot_arr[pos] == kv
            if not ishot.any():
                return tagged
            if side_flag == 0:
                # left: spread each hot key's rows round-robin over its
                # n_salts dedicated buckets (deterministic within batch;
                # assignment choice never changes the join output)
                salt = np.arange(batch.num_rows, dtype=np.int64) % n_salts
                bucket = tagged["bucket"].to_numpy(
                    zero_copy_only=False
                ).copy()
                bucket[ishot] = (
                    num_buckets + pos[ishot] * n_salts + salt[ishot]
                )
                return tagged.set_column(
                    0, "bucket", pa.array(bucket, pa.int64())
                )
            # right: non-hot rows keep base buckets; hot rows replicate
            # into every salt bucket of their key
            base = tagged.filter(pa.array(~ishot))
            hot = tagged.filter(pa.array(ishot))
            hpos = pos[ishot]
            reps = []
            for s in range(n_salts):
                reps.append(
                    hot.set_column(
                        0,
                        "bucket",
                        pa.array(
                            num_buckets + hpos * n_salts + s, pa.int64()
                        ),
                    )
                )
            return pa.concat_tables([base] + reps)

        return fn

    both = left.map_batches(tag(0, set(lcols)), batch_format="pyarrow").union(
        right.map_batches(tag(1, set(rcols)), batch_format="pyarrow")
    )
    lpay = [c for c in lcols if c != on]
    rpay = [c for c in rcols if c != on]

    def join_bucket(g: pa.Table) -> pa.Table:
        lt = g.filter(pc.equal(g["side"], 0)).select([on] + lpay)
        rt = g.filter(pc.equal(g["side"], 1)).select(
            [on] + ([] if join_type in ("left semi", "left anti") else rpay)
        )
        j = lt.join(rt, keys=on, join_type=join_type)
        return bucket_postprocess(j) if bucket_postprocess else j

    return both.groupby("bucket").map_groups(join_bucket, batch_format="pyarrow")



# the result of a join that produced no rows
_NO_ROWS = pa.schema([])


def _build_side(right: pa.Table, on: str, how: str):
    """The broadcast build side: its keys sorted once, with the payload
    columns aligned to them for ``inner`` / ``left outer``."""
    keys = right[on].to_numpy()
    if how in ("left semi", "left anti"):
        return np.unique(keys), None
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(
            f"broadcast {how} join needs unique right keys on {on!r}"
        )
    payload = right.drop_columns([on]).take(pa.array(order))
    return keys, payload.combine_chunks()


def _probe(batch: pa.Table, on: str, how: str, keys, payload) -> pa.Table:
    """One left batch joined against the sorted build side: left
    columns, then the payload columns (null where ``left outer`` finds
    no match)."""
    hit, idx = lookup(keys, batch[on].to_numpy())
    if how == "left outer":
        rows = pa.array(idx, mask=~hit)
    else:
        batch = batch.filter(pa.array(~hit if how == "left anti" else hit))
        if payload is None:
            return batch
        rows = pa.array(idx[hit])
    for name, col in zip(payload.column_names, payload.columns):
        batch = batch.append_column(name, col.take(rows))
    return batch


def join(left, right, on: str, how: str = "inner", finish=None,
         combine=None, left_schema: pa.Schema | None = None,
         right_schema: pa.Schema | None = None, num_buckets: int = 32,
         lazy: bool = False, hot_keys: list[int] | None = None):
    """Join ``left`` with the build side ``right`` on an integer key,
    broadcast or bucketed.

    ``right`` is a Dataset, materialized and its row count read from
    block metadata, or an Arrow table already on the driver (a
    dimension read there costs no Ray job).  At or below
    :data:`BROADCAST_MAX` (read now) rows it is gathered, sorted by
    key once on the driver and ``ray.put``; each ``left`` batch probes
    it map-side with :func:`lookup` — no shuffle.
    Above it, both sides go through the bucketed shuffle of
    :func:`hash_bucket_join` (``hot_keys`` salting included).  ``how``
    is ``inner``, ``left outer``, ``left semi`` or ``left anti``; semi
    and anti keep the left columns only.  The broadcast branch needs
    unique right keys for ``inner`` and ``left outer`` (every caller's
    build side is a primary-key lookup or a key set) and raises
    ``ValueError`` otherwise; ``right_schema`` types the payload of an
    empty build side.

    ``finish`` has :func:`bucket_finish`'s contract: it must be exact
    on any union of whole key groups.  Bucketed, it runs per bucket;
    broadcast, over the gathered probe rows through
    :func:`bucket_finish` (so many probe rows still finish per key
    group).  ``combine``, when given, pre-aggregates every probe batch
    (and every bucket) before ``finish``, which must re-aggregate its
    output exactly; the broadcast branch then gathers the combined
    rows and runs ``finish`` once on the driver.  Neither sees a
    ``bucket`` or ``side`` column.  Without ``finish`` the joined (or
    combined) rows are the result.

    Returns the concatenated non-empty outputs as one table (a table
    without columns when there are none).  With ``lazy`` it returns a
    Dataset: the bucketed branch and a broadcast probe without
    ``finish`` stay lazy, and a finished table is wrapped with
    ``ray.data.from_arrow``."""
    import ray
    import ray.data

    if isinstance(right, pa.Table):
        build, n_right = right, right.num_rows
    else:
        right = right.materialize()
        build, n_right = None, right.count()

    def gathered(ds):
        parts = blocks(ds)
        return pa.concat_tables(parts) if parts else _NO_ROWS.empty_table()

    if n_right > BROADCAST_MAX:
        PATHS["bucketed"] += 1
        if build is not None:
            right = ray.data.from_arrow(build)

        def post(j: pa.Table) -> pa.Table:
            j = combine(j) if combine else j
            return finish(j) if finish else j

        ds = hash_bucket_join(
            left, right, on, num_buckets,
            bucket_postprocess=post if (combine or finish) else None,
            join_type=how, left_schema=left_schema,
            right_schema=right_schema, hot_keys=hot_keys,
        )
        return ds if lazy else gathered(ds)
    PATHS["broadcast"] += 1
    if build is None:
        rows = blocks(right)
        build = pa.concat_tables(rows) if rows else (
            right_schema or pa.schema([(on, pa.int64())])
        ).empty_table()
    ref = ray.put(_build_side(build, on, how))
    # without a pre-aggregation the probe rows keep the key: bucket
    # them so bucket_finish can finish them per key group
    tag = finish is not None and combine is None

    # (Ray 2.49 passes zero-row blocks, schema-less ones included,
    # through a map without calling it)
    def probe(batch: pa.Table) -> pa.Table:
        j = _probe(batch, on, how, *ray.get(ref))
        if combine:
            return combine(j)
        if tag:
            return j.append_column("bucket", bucket_of(j[on], num_buckets))
        return j

    probed = left.map_batches(probe, batch_format="pyarrow")
    if finish is None:
        return probed if lazy else gathered(probed)
    if tag:
        return bucket_finish(probed, finish, _NO_ROWS, lazy=lazy)
    out = gathered(probed)
    out = finish(out) if out.num_rows else out
    return ray.data.from_arrow(out) if lazy else out
