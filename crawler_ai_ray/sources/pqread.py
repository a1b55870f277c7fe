"""Row-group-parallel Parquet reads.

``ray.data.read_parquet`` assigns read tasks per FILE: a single-file
input decodes on ONE task, and ``override_num_blocks`` only splits the
already-decoded table into blocks (``ReadParquet->SplitBlocks``).  For
the corpus pages table that serializes ~2.7 s of decode at sf0.1 ahead
of every downstream stage.

``read_parquet_rowgroups`` restores intra-file parallelism with a
custom ``Datasource`` whose ``ReadTask`` list is built at ROW-GROUP
granularity — one decode task per row-group range, column-pruned.
This is the same unit of parallelism a multi-node reader uses at
100 TB — files × row groups — just made explicit because the sandbox
corpus is one file.  (A ``from_items(assignments).map_batches(read)``
formulation does NOT work: streaming fusion bundles the 1-row
assignment blocks by the downstream stage's ``batch_size`` and
collapses the whole read into one task.)  Files with a single row
group cannot be split (Parquet's decode unit is the row group) and
fall back to the plain per-file reader.

How many of those read tasks, and of the ``map_batches`` tasks that
consume them, run at once also depends on the engine's Ray Data
execution policy (``crawler_ai_ray/__init__.py``): under Ray's
per-operator reservation split (which the policy turns off) a read→map
chain on a 4-CPU session ran its map about one task at a time, however
many read tasks this module made.
"""

from __future__ import annotations

import os

__all__ = ["read_parquet_rowgroups"]

# upper bound on read tasks per dataset; adjacent row groups of one file
# are coalesced into a task above it
MAX_READ_TASKS = 128


def _file_list(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
    return [path]


def _make_read_fn(f: str, rgs: list[int], cols):
    def read_fn():
        import pyarrow.parquet as pq

        return [pq.ParquetFile(f).read_row_groups(rgs, columns=cols)]

    return read_fn


from ray.data.datasource.datasource import Datasource as _Datasource


class _RowGroupDatasource(_Datasource):
    """One ReadTask per coalesced row-group range of each file."""

    def __init__(self, files: list[str], columns):
        import pyarrow.parquet as pq

        self._columns = list(columns) if columns else None
        self._spans = []  # (file, rg_index, num_rows, compressed_bytes)
        for f in files:
            md = pq.ParquetFile(f).metadata
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                self._spans.append((f, rg, g.num_rows, g.total_byte_size))

    def estimate_inmemory_data_size(self):
        # compressed bytes are the only cheap signal; scale by a
        # typical parquet→arrow expansion for sizing hints only
        return int(sum(s[3] for s in self._spans) * 3)

    def get_name(self):
        return "RowGroupParquet"

    def get_read_tasks(self, parallelism: int):
        from ray.data.block import BlockMetadata
        from ray.data.datasource.datasource import ReadTask

        n_tasks = max(1, min(MAX_READ_TASKS, parallelism, len(self._spans)))
        per = -(-len(self._spans) // n_tasks)
        tasks = []
        for i in range(0, len(self._spans), per):
            chunk = self._spans[i : i + per]
            # a task may only span row groups of ONE file; split runs
            by_file: dict[str, list] = {}
            for f, rg, rows, nbytes in chunk:
                by_file.setdefault(f, []).append((rg, rows, nbytes))
            for f, group in by_file.items():
                rgs = [g[0] for g in group]
                rows = sum(g[1] for g in group)
                nbytes = sum(g[2] for g in group)
                meta = BlockMetadata(
                    num_rows=rows,
                    size_bytes=int(nbytes * 3),
                    exec_stats=None,
                    input_files=[f],
                )
                tasks.append(
                    ReadTask(_make_read_fn(f, rgs, self._columns), meta)
                )
        return tasks


def read_parquet_rowgroups(path: str, columns=None):
    """Read one parquet file / directory with one read task per
    row-group range.  NOTE: block order (hence row order) is not
    guaranteed under streaming execution with multiple read tasks —
    every engine consumer keys by ``url`` or sorts explicitly; don't
    use this where positional order is load-bearing."""
    import pyarrow.parquet as pq
    import ray.data

    files = _file_list(path)
    total_rgs = sum(pq.ParquetFile(f).metadata.num_row_groups for f in files)
    if total_rgs <= max(1, len(files)):
        # nothing to gain over the per-file reader; keep its plan
        # (and its SplitBlocks post-split for downstream parallelism)
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        blocks = max(8, min(64, rows // 512 or 1))
        return ray.data.read_parquet(
            path, columns=columns, override_num_blocks=blocks
        )
    src = _RowGroupDatasource(files, columns)
    return ray.data.read_datasource(src, override_num_blocks=total_rgs)
