"""crawler_ai_ray — a Ray-Data-native URL-frontier + fetch-scheduler + extraction engine.

A from-scratch re-expression of the data-processing capabilities of the
reference repo ``jayceho3203/crawler-ai`` (a single-process FastAPI/Scrapy
service) as idiomatic Ray Data pipelines:

* ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy Arrow
  batches for every per-record transform (HTML→text extraction, contact
  regexes, URL classification, job extraction),
* actor pools for the stateful stages (sharded URL-seen filter, sandbox
  page store / fetch backend),
* ``groupby(host) → map_groups`` shuffles for the politeness-respecting
  fetch waves and frontier expansion,
* Parquet round checkpoints with per-partition lineage for exact resume.

Nothing in this package imports from or copies the reference; semantics
were derived from reading it (citations as ``file:line`` in docstrings)
and re-implemented Ray-Data-first.  See SURVEY.md for the full blueprint.
"""

__version__ = "0.1.0"


def _apply_execution_policy() -> None:
    """The engine's one Ray Data execution setting: Ray Data gets the
    whole CPU budget.

    Ray 2.49's per-operator reservation allocator (on by default) splits
    the budget between the operators of a plan and ran row-group
    extraction, and the map stage of every exchange, about one task at a
    time on a 4-CPU session.  It is switched off here, once, for every
    Dataset the process builds after this package is imported.

    ``ray.data`` is never imported for this: the crawl's bucket workers
    and actors do not load it (it costs ~87 MB of RSS and ~0.75 s per
    process).  If it is already loaded, the current ``DataContext`` is
    changed; otherwise Ray's own environment default is set, which
    ``ray.data.context`` reads when it loads.
    """
    import os
    import sys

    context = sys.modules.get("ray.data.context")
    if context is not None:
        context.DataContext.get_current().op_resource_reservation_enabled = False
    else:
        os.environ["RAY_DATA_ENABLE_OP_RESOURCE_RESERVATION"] = "0"


_apply_execution_policy()
