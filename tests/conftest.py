"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import contextlib

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    # the engine's Ray Data execution policy, for every test's Datasets
    import crawler_ai_ray  # noqa: F401

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def unit_corpus() -> str:
    """The tiny deterministic corpus every corpus-level test reads."""
    from crawler_ai_ray.sources.synth import ensure_corpus

    return ensure_corpus("unit")


@pytest.fixture
def force_shuffle(monkeypatch):
    """``with force_shuffle(): ...`` runs the block with
    ``exchange.DRIVER_FINISH_MAX = 0``, so every adaptive finish takes
    its per-bucket shuffle branch, and fails unless one did — a forced
    path-agreement test can never compare the driver branch with
    itself."""
    from crawler_ai_ray.stages import exchange

    @contextlib.contextmanager
    def forced():
        before = exchange.PATHS["shuffle"]
        with monkeypatch.context() as m:
            m.setattr(exchange, "DRIVER_FINISH_MAX", 0)
            yield
        assert exchange.PATHS["shuffle"] > before, "no shuffle branch ran"

    return forced


@pytest.fixture
def force_bucketed(monkeypatch):
    """``with force_bucketed(): ...`` runs the block with
    ``exchange.BROADCAST_MAX = 0``, so every ``exchange.join`` with a
    non-empty build side takes its bucketed branch, and fails unless
    one did."""
    from crawler_ai_ray.stages import exchange

    @contextlib.contextmanager
    def forced():
        before = exchange.PATHS["bucketed"]
        with monkeypatch.context() as m:
            m.setattr(exchange, "BROADCAST_MAX", 0)
            yield
        assert exchange.PATHS["bucketed"] > before, "no bucketed join ran"

    return forced
