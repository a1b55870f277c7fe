"""One vertex-program engine for the u64-keyed host-graph kernels.

A kernel (PageRank, BFS, HITS, Katz, OPIC, HyperBall) is declared once
as a :class:`VertexProgram` — the gather-apply-scatter shape of Pregel
(Malewicz et al., SIGMOD 2010) and PowerGraph (Gonzalez et al., OSDI
2012) — and :func:`run` executes it on whichever of three tiers the
edge count selects.  Every tier computes the same integer recurrence
(sums, mins and register maxima are associative and commutative), so
the tiers are bit-identical; forced-path tests pin each pair equal.

What a program declares:

- ``init(verts, totals)`` → state, a dict of vertex-aligned numpy
  arrays, over the sorted u64 vertex keys, their host strings and
  out-degrees (:class:`Verts`).  ``totals`` is the whole graph's
  ``census`` (summed per-shard counts) when the program declares one.
- one or more :class:`Step` per round.  A step reads one state
  ``field`` at each edge's sender, turns it into a per-edge
  ``message`` (sender values + the edge's ``outdeg``), folds the
  messages per receiving vertex with ``combine`` (a numpy ufunc used
  through ``reduceat``), and hands the folded ``inbound`` array to
  ``apply(state, inbound, t)``.  Messages have the dtype and shape of
  the field they are computed from; a vertex that receives none gets
  the combiner's identity.  ``reverse`` sends along dst → src.
- ``output(hosts, state)`` → the public table, and optionally a
  ``tally(state)``: an additive per-round scalar recorded after init
  and after every round.

The three tiers:

- **driver-local** (``n_edges <= driver_max_edges``): one numpy pass
  builds the vertex index and, per direction, the receiver-sorted
  segment layout; a step is one gather plus one ``reduceat``.
- **broadcast**: edge blocks stay in the object store.  Keys are
  ``ray.put`` once and the step's field once per step; each edge block
  becomes one task returning its per-receiver partial, and the
  partials merge on the driver while ``blocks × |V|`` stays under
  ``MERGE_ON_DRIVER_MAX`` and through a ``FAN``-ary task tree above.
- **sharded** (``n_edges > shard_min_edges``, only for kernels that
  pass one): edges shard by ``src_h % N_SHARDS`` and vertex state by
  ``h % N_SHARDS``; each round is one routed exchange — a contrib task
  per shard with ``num_returns=N_SHARDS``, then a per-shard apply — and
  no vertex-sized structure lives on the driver until the final
  concat.  Hence the rule: a program that runs sharded must have a
  PER-VERTEX ``apply`` (no global reduction over the state) and
  forward steps only.  HITS (``max`` renormalisation) and OPIC
  (dangling-cash sum) reduce globally, so they stay driver-resident.

Stop rule: the driver-resident tiers end the loop as soon as a round
returns unchanged state — a fixpoint for every program here, since
``apply`` depends on ``t`` only through increments that vanish once
the state stops changing.  Tallies are then carried forward to one per
round.  The sharded tier runs its fixed rounds.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

# a round's per-block partials merge on the driver while blocks × |V|
# (an upper bound on their rows) stays under this; a task tree beyond
MERGE_ON_DRIVER_MAX = 5_000_000
FAN = 8  # inputs per merge task in every task-tree reduction
N_SHARDS = 32  # vertex/edge shards of the fully sharded tiers

EDGE_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("src_h", pa.uint64()),
        ("dst_h", pa.uint64()),
        ("outdeg", pa.int64()),
    ]
)


class Verts(NamedTuple):
    """A vertex index: sorted u64 host keys, their host strings and
    out-degrees (0 for a host with no out-edges)."""

    keys: np.ndarray
    hosts: pa.Array
    outdeg: np.ndarray


class Step(NamedTuple):
    """One message exchange of a round (see the module docstring)."""

    field: str
    message: Callable
    combine: np.ufunc
    apply: Callable
    reverse: bool = False


class VertexProgram(NamedTuple):
    """A kernel as the engine runs it (see the module docstring)."""

    init: Callable
    steps: tuple
    rounds: int
    output: Callable
    census: Callable | None = None
    tally: Callable | None = None


def run(edges, prog: VertexProgram, driver_max_edges: int,
        shard_min_edges: int | None = None) -> tuple[pa.Table, list]:
    """host edges (from ``host_edges``) → (``prog.output`` table, the
    per-round tallies: ``prog.rounds + 1`` ints, empty without a
    ``tally``).  The tier is chosen from the edge count; kernels with
    no sharded tier pass ``shard_min_edges=None``."""
    import ray

    edges = edges.materialize()  # iterated over once per round
    n_edges = edges.count()
    # a dataset with no blocks still runs every tier over one empty block
    refs = list(edges.to_arrow_refs()) or [ray.put(EDGE_SCHEMA.empty_table())]
    if shard_min_edges is not None and n_edges > shard_min_edges:
        verts, state, tallies = _run_sharded(refs, prog)
    elif n_edges <= driver_max_edges:
        blocks = [t for t in ray.get(refs) if t.num_rows]
        et = pa.concat_tables(blocks) if blocks else EDGE_SCHEMA.empty_table()
        verts, state, tallies = _run_local(et, prog)
    else:
        verts, state, tallies = _run_broadcast(refs, prog)
    return prog.output(verts.hosts, state), tallies


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t[name].to_numpy(zero_copy_only=False)


def _fill(combine: np.ufunc, dtype) -> int:
    """identity of the combiner: the inbound value of a vertex that
    receives no message."""
    if combine is np.add:
        return 0
    info = np.iinfo(dtype)
    return info.max if combine is np.minimum else info.min


def _verts(keys: np.ndarray, hosts: pa.Array, outdeg: np.ndarray):
    """distinct key-sorted vertices of (key, host, outdeg) rows, plus
    each row's vertex position; a vertex keeps its largest out-degree
    (rows from the dst side carry 0)."""
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    deg = np.zeros(len(uniq), np.int64)
    np.maximum.at(deg, inv, outdeg)
    return Verts(uniq, hosts.take(pa.array(first)), deg), inv


def _edge_verts(t: pa.Table):
    """the endpoint rows of an edge table → (Verts, position of every
    src row followed by every dst row)."""
    n = t.num_rows
    return _verts(
        np.concatenate([_col(t, "src_h"), _col(t, "dst_h")]).astype(
            np.uint64, copy=False
        ),
        pa.concat_arrays(
            [t["src"].combine_chunks(), t["dst"].combine_chunks()]
        ),
        np.concatenate([_col(t, "outdeg"), np.zeros(n, np.int64)]),
    )


def _concat_verts(*parts: Verts) -> Verts:
    """distinct-merge several Verts (per block or per shard)."""
    live = [v for v in parts if len(v.keys)]
    if not live:
        return Verts(
            np.zeros(0, np.uint64), pa.array([], pa.string()),
            np.zeros(0, np.int64),
        )
    return _verts(
        np.concatenate([v.keys for v in live]),
        pa.concat_arrays([v.hosts for v in live]),
        np.concatenate([v.outdeg for v in live]),
    )[0]


def _combine_by_key(keys: np.ndarray, vals: np.ndarray, combine):
    """(key, value) rows → (sorted distinct keys, values folded per
    key with ``combine``)."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], combine.reduceat(vals[order], starts, axis=0)


def _merge_partials(combine, *parts):
    """fold several (keys, values) partials into one."""
    live = [p for p in parts if len(p[0])]
    if len(live) <= 1:
        return live[0] if live else parts[0]
    return _combine_by_key(
        np.concatenate([p[0] for p in live]),
        np.concatenate([p[1] for p in live]),
        combine,
    )


def _inbound(keys, vals, partial, combine) -> np.ndarray:
    """a merged (keys, values) partial → the vertex-aligned inbound
    array, the combiner's identity where no message arrived."""
    out = np.full_like(vals, _fill(combine, vals.dtype))
    if len(partial[0]):
        out[np.searchsorted(keys, partial[0])] = partial[1]
    return out


def _iterate(prog: VertexProgram, verts: Verts, exchange):
    """The driver-resident round loop shared by the local and broadcast
    tiers: ``exchange(step, vals)`` → inbound; stops at the first
    round that leaves the state unchanged."""
    totals = prog.census(verts) if prog.census else None
    state = prog.init(verts, totals)
    tallies = [prog.tally(state)] if prog.tally else []
    for t in range(1, prog.rounds + 1):
        nxt = state
        for step in prog.steps:
            nxt = step.apply(nxt, exchange(step, nxt[step.field]), t)
        if all(np.array_equal(nxt[k], state[k]) for k in state):
            break
        state = nxt
        if prog.tally:
            tallies.append(prog.tally(state))
    if tallies:
        tallies += tallies[-1:] * (prog.rounds + 1 - len(tallies))
    return state, tallies


def _run_local(et: pa.Table, prog: VertexProgram):
    verts, pos = _edge_verts(et)
    n = et.num_rows
    src_idx, dst_idx = pos[:n], pos[n:]
    deg = _col(et, "outdeg")
    layouts = {}
    for rev in {s.reverse for s in prog.steps}:
        send, recv = (dst_idx, src_idx) if rev else (src_idx, dst_idx)
        order = np.argsort(recv, kind="stable")
        r = recv[order]
        starts = np.flatnonzero(np.diff(r, prepend=np.int64(-1)))
        layouts[rev] = (send[order], deg[order], starts, r[starts])

    def exchange(step: Step, vals: np.ndarray) -> np.ndarray:
        send, d, starts, recv = layouts[step.reverse]
        out = np.full_like(vals, _fill(step.combine, vals.dtype))
        if len(starts):
            msg = step.message(vals[send], d)
            out[recv] = step.combine.reduceat(msg, starts, axis=0)
        return out

    return (verts, *_iterate(prog, verts, exchange))


def _block_verts(block: pa.Table) -> Verts:
    if not block.num_rows:
        return _concat_verts()
    return _edge_verts(block)[0]


def _block_partial(block: pa.Table, keys: np.ndarray, vals: np.ndarray,
                   step: Step):
    """one edge block's messages, folded per receiving key."""
    if not block.num_rows:
        return np.zeros(0, np.uint64), vals[:0]
    send, recv = _col(block, "src_h"), _col(block, "dst_h")
    if step.reverse:
        send, recv = recv, send
    msg = step.message(
        vals[np.searchsorted(keys, send)], _col(block, "outdeg")
    )
    return _combine_by_key(recv, msg, step.combine)


def _run_broadcast(refs, prog: VertexProgram):
    import ray

    verts = _concat_verts(
        *ray.get([ray.remote(num_cpus=1)(_block_verts).remote(b) for b in refs])
    )
    keys = verts.keys
    contrib = ray.remote(num_cpus=1)(_block_partial)
    merge = ray.remote(num_cpus=1)(_merge_partials)
    k_ref = ray.put(keys)

    def exchange(step: Step, vals: np.ndarray) -> np.ndarray:
        v_ref = ray.put(vals)
        parts = [contrib.remote(b, k_ref, v_ref, step) for b in refs]
        if len(parts) * max(len(keys), 1) <= MERGE_ON_DRIVER_MAX:
            merged = _merge_partials(step.combine, *ray.get(parts))
        else:
            while len(parts) > 1:
                parts = [
                    merge.remote(step.combine, *parts[i : i + FAN])
                    for i in range(0, len(parts), FAN)
                ]
            merged = ray.get(parts[0])
        return _inbound(keys, vals, merged, step.combine)

    return (verts, *_iterate(prog, verts, exchange))


def _shard_scatter(block: pa.Table, n: int):
    """one edge block → its ``src_h % n`` edge slices (src_h, dst_h,
    outdeg) followed by its ``h % n`` vertex slices."""
    if not block.num_rows:
        e = (np.zeros(0, np.uint64), np.zeros(0, np.uint64),
             np.zeros(0, np.int64))
        return (*[e] * n, *[_concat_verts()] * n)
    sh, dh, deg = _col(block, "src_h"), _col(block, "dst_h"), _col(block, "outdeg")
    sb = sh % np.uint64(n)
    edges = [(sh[m], dh[m], deg[m]) for m in (sb == k for k in range(n))]
    v = _edge_verts(block)[0]
    vb = v.keys % np.uint64(n)
    verts = [
        Verts(v.keys[m], v.hosts.filter(pa.array(m)), v.outdeg[m])
        for m in (vb == k for k in range(n))
    ]
    return (*edges, *verts)


def _shard_edges(*slices):
    return tuple(np.concatenate(cols) for cols in zip(*slices))


def _shard_contrib(edges, verts: Verts, state: dict, step: Step, n: int):
    """one shard's messages, folded per receiving key and routed by
    the receiver's shard."""
    sh, dh, deg = edges
    vals = state[step.field]
    msg = step.message(vals[np.searchsorted(verts.keys, sh)], deg)
    keys, folded = _combine_by_key(dh, msg, step.combine)
    kb = keys % np.uint64(n)
    return [(keys[m], folded[m]) for m in (kb == k for k in range(n))]


def _shard_apply(verts: Verts, state: dict, step: Step, t: int, *parts):
    vals = state[step.field]
    merged = _merge_partials(step.combine, *parts)
    return step.apply(state, _inbound(verts.keys, vals, merged, step.combine), t)


def _run_sharded(refs, prog: VertexProgram):
    import ray

    if len(prog.steps) != 1 or prog.steps[0].reverse:
        raise ValueError("the sharded tier runs one forward step per round")
    step, n = prog.steps[0], N_SHARDS
    task = ray.remote(num_cpus=1)
    scatter, gather = task(_shard_scatter), task(_shard_edges)
    contrib, apply_ = task(_shard_contrib), task(_shard_apply)
    merge_v, init = task(_concat_verts), task(prog.init)
    tally = task(prog.tally) if prog.tally else None

    flats = [scatter.options(num_returns=2 * n).remote(b, n) for b in refs]
    edge_refs = [gather.remote(*[f[k] for f in flats]) for k in range(n)]
    vert_refs = [merge_v.remote(*[f[n + k] for f in flats]) for k in range(n)]
    totals = None
    if prog.census:
        # global scalars (e.g. PPR's n_hosts / n_seeds) before round 1:
        # one small count per shard, never a vertex-sized structure
        census = task(prog.census)
        counts = ray.get([census.remote(v) for v in vert_refs])
        totals = tuple(sum(c) for c in zip(*counts))
    state_refs = [init.remote(v, totals) for v in vert_refs]
    # per-round tallies: one scalar per shard, fetched at the end
    tally_grid = [[tally.remote(s) for s in state_refs]] if tally else []
    for t in range(1, prog.rounds + 1):
        grids = [
            contrib.options(num_returns=n).remote(
                edge_refs[k], vert_refs[k], state_refs[k], step, n
            )
            for k in range(n)
        ]
        state_refs = [
            apply_.remote(
                vert_refs[k], state_refs[k], step, t, *[g[k] for g in grids]
            )
            for k in range(n)
        ]
        if tally:
            tally_grid.append([tally.remote(s) for s in state_refs])
    tallies = [sum(ray.get(row)) for row in tally_grid]
    # test/bench scale: the shards concat on the driver (a deployment
    # would write each one to hash-partitioned parquet instead)
    shards = ray.get(vert_refs)
    states = ray.get(state_refs)
    keys = np.concatenate([v.keys for v in shards])
    order = np.argsort(keys, kind="stable")
    verts = Verts(
        keys[order],
        pa.concat_arrays([v.hosts for v in shards]).take(pa.array(order)),
        np.concatenate([v.outdeg for v in shards])[order],
    )
    state = {
        f: np.concatenate([s[f] for s in states])[order] for f in states[0]
    }
    return verts, state, tallies
