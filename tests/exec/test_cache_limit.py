"""Size-capped cache: LRU eviction, env configuration, CLI pruning."""

from __future__ import annotations

import os

import pytest

from repro.exec.cache import (
    CACHE_MAX_BYTES_ENV,
    ResultCache,
    default_max_bytes,
)
from tests.exec.test_cache import sample_result


def fill(cache: ResultCache, count: int) -> list[str]:
    keys = [f"{index:02x}" + "0" * 62 for index in range(count)]
    for key in keys:
        cache.store(key, sample_result())
    return keys


def backdate(cache: ResultCache, key: str, age_s: float) -> None:
    path = cache._path(key)
    stat = path.stat()
    os.utime(path, (stat.st_atime - age_s, stat.st_mtime - age_s))


class TestPrune:
    def test_noop_when_under_limit(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 3)
        assert cache.prune(10**9) == 0
        assert cache.info().entries == 3

    def test_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 4)
        entry_bytes = cache.info().total_bytes // 4
        for age, key in enumerate(reversed(keys)):
            backdate(cache, key, (age + 1) * 100.0)  # keys[0] is oldest
        evicted = cache.prune(entry_bytes * 2)
        assert evicted == 2
        assert cache.load(keys[0]) is None and cache.load(keys[1]) is None
        assert cache.load(keys[2]) is not None and cache.load(keys[3]) is not None
        assert cache.evictions == 2

    def test_load_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        entry_bytes = cache.info().total_bytes // 3
        for key in keys:
            backdate(cache, key, 1000.0)
        assert cache.load(keys[0]) is not None  # LRU bump: now the newest
        assert cache.prune(entry_bytes) >= 1
        assert cache.load(keys[0]) is not None  # survived the eviction
        assert cache.load(keys[1]) is None

    def test_zero_cap_evicts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 3)
        assert cache.prune(0) == 3
        assert cache.info().entries == 0

    def test_negative_cap_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune(-1)


class TestConfiguredLimit:
    def test_enforce_limit_without_cap_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 3)
        assert cache.max_bytes is None or cache.max_bytes > 0
        cache.max_bytes = None
        assert cache.enforce_limit() == 0

    def test_explicit_cap_enforced(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        fill(cache, 2)
        assert cache.enforce_limit() >= 1

    def test_env_cap_picked_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "12345")
        assert ResultCache(tmp_path).max_bytes == 12345

    def test_env_zero_means_unlimited(self, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "0")
        assert default_max_bytes() is None

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "lots")
        with pytest.raises(ValueError):
            default_max_bytes()

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "-1")
        with pytest.raises(ValueError, match=">= 0"):
            default_max_bytes()


class TestCliPrune:
    def test_prune_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        fill(cache, 3)
        code = main(
            ["cache", "prune", "--max-bytes", "0", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert "evicted 3 entries" in capsys.readouterr().out
        assert cache.info().entries == 0

    def test_prune_requires_max_bytes(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "requires --max-bytes" in capsys.readouterr().err
