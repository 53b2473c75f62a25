"""Content-addressed cache: round trips, corruption detection, eviction."""

from __future__ import annotations

import json

import pytest

from repro.exec.cache import ResultCache, to_payload
from repro.exec.hashing import (
    canonical_json,
    code_fingerprint,
    context_key,
    shard_key,
    stable_hash,
)
from repro.exec.plan import ShardSpec
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec, build_reference_topology
from repro.simulation.results import FlowSchemeStats, ReplayConfig, WindowRecord


def sample_result(windows: bool = True) -> FlowSchemeStats:
    return FlowSchemeStats(
        flow=FlowSpec("S", "T"),
        scheme="targeted",
        duration_s=600.0,
        unavailable_s=1.25,
        lost_s=1.0,
        late_s=0.25,
        message_seconds=2400.0,
        decision_changes=3,
        windows=(
            [WindowRecord(0.0, 300.0, "targeted", 4, 0.999, 0.0005, 0.0005)]
            if windows
            else []
        ),
    )


KEY = "ab" + "0" * 62


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        loaded = cache.load(KEY)
        assert loaded == sample_result()
        assert cache.hits == 1 and cache.corrupt == 0

    def test_windowless_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result(windows=False))
        assert cache.load(KEY) == sample_result(windows=False)

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None
        assert cache.misses == 1

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        cache.store("cd" + "1" * 62, sample_result())
        info = cache.info()
        assert info.entries == 2
        assert info.total_bytes > 0
        assert cache.clear() == 2
        assert cache.info().entries == 0


class TestCorruption:
    def test_truncated_entry_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        path = cache._path(KEY)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()  # dropped so a recompute replaces it

    def test_bitflip_fails_digest_check(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        path = cache._path(KEY)
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["unavailable_s"] = 999.0  # tampered value
        path.write_text(json.dumps(wrapper))
        assert cache.load(KEY) is None
        assert cache.corrupt == 1

    def test_wrong_key_in_payload_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        other = "ab" + "f" * 62
        # copy the valid entry under a different key: digest is intact but
        # the embedded key no longer matches the address
        target = cache._path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(cache._path(KEY).read_text())
        assert cache.load(other) is None
        assert cache.corrupt == 1

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        assert list(tmp_path.glob("**/.tmp-*")) == []

    def test_torn_write_recovers_to_fresh_store(self, tmp_path):
        """A crash mid-write (torn file under the key) self-heals.

        Load discards the torn entry; a subsequent store replaces it
        atomically and the round trip works again.
        """
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        path = cache._path(KEY)
        path.write_text('{"sha256": "dead", "payl')  # torn mid-write
        assert cache.load(KEY) is None
        cache.store(KEY, sample_result())
        assert cache.load(KEY) == sample_result()
        assert cache.corrupt == 1


class TestEntryFormat:
    """An entry is the canonical JSON of ``{"payload", "sha256"}``, and a
    load verifies the payload bytes exactly as stored."""

    def test_entry_is_the_canonical_wrapper(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        text = cache._path(KEY).read_text()
        payload = to_payload(KEY, sample_result())
        wrapper = json.loads(text)
        assert wrapper["sha256"] == stable_hash(payload)
        assert text == canonical_json(
            {"payload": payload, "sha256": stable_hash(payload)}
        )

    def test_byte_flipped_inside_payload_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        path = cache._path(KEY)
        text = path.read_text()
        at = text.index('"unavailable_s":1.25') + len('"unavailable_s":1.2')
        path.write_text(text[:at] + "6" + text[at + 1:])  # 1.25 -> 1.26
        assert json.loads(path.read_text())["payload"]["unavailable_s"] == 1.26
        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_non_canonical_entry_is_rejected_and_recomputed(self, tmp_path):
        """Equal content with a correct digest, but not in canonical form
        (the key order and spacing of a plain ``json.dumps``)."""
        cache = ResultCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        payload = to_payload(KEY, sample_result())
        path.write_text(
            json.dumps({"sha256": stable_hash(payload), "payload": payload})
        )
        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()
        cache.store(KEY, sample_result())
        assert cache.load(KEY) == sample_result()

    @pytest.mark.parametrize(
        "payload", ([KEY], KEY, 7, None), ids=("list", "string", "number", "null")
    )
    def test_non_object_payload_is_corrupt(self, tmp_path, payload):
        """A canonical entry with a correct digest whose payload is not a
        JSON object is deleted and recomputed, not raised out of ``load``."""
        cache = ResultCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(
            canonical_json({"payload": payload, "sha256": stable_hash(payload)})
        )
        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()
        cache.store(KEY, sample_result())
        assert cache.load(KEY) == sample_result()

    def test_store_encodes_its_payload_once(self, tmp_path, monkeypatch):
        encodes = []
        original = json.JSONEncoder.iterencode

        def counting(self, value, *args, **kwargs):
            encodes.append(value)
            return original(self, value, *args, **kwargs)

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
        cache.store(KEY, sample_result())
        monkeypatch.undo()
        assert encodes == [to_payload(KEY, sample_result())]
        assert cache.load(KEY) == sample_result()


class TestKeys:
    def make_context(self):
        topology = build_reference_topology()
        timeline = ConditionTimeline(
            topology,
            1000.0,
            [Contribution(("NYC", "CHI"), 10.0, 60.0, LinkState(loss_rate=0.4))],
        )
        return topology, timeline

    def test_key_is_stable_across_calls(self):
        topology, timeline = self.make_context()
        service, config = ServiceSpec(), ReplayConfig()
        a = context_key(topology, timeline, service, config)
        b = context_key(topology, timeline, service, config)
        assert a == b

    def test_key_changes_with_inputs(self):
        topology, timeline = self.make_context()
        service, config = ServiceSpec(), ReplayConfig()
        base = context_key(topology, timeline, service, config)
        assert base != context_key(
            topology, timeline, ServiceSpec(deadline_ms=50.0), config
        )
        assert base != context_key(
            topology, timeline, service, ReplayConfig(detection_delay_s=2.0)
        )
        other_timeline = ConditionTimeline(topology, 1000.0, [])
        assert base != context_key(topology, other_timeline, service, config)

    def test_shard_key_distinguishes_pairs(self):
        topology, timeline = self.make_context()
        context = context_key(topology, timeline, ServiceSpec(), ReplayConfig())
        other_context = context_key(
            topology, timeline, ServiceSpec(deadline_ms=50.0), ReplayConfig()
        )
        flow, reverse = FlowSpec("NYC", "SJC"), FlowSpec("SJC", "NYC")
        keys = {
            shard_key(context, ShardSpec(flow, "targeted")),
            shard_key(context, ShardSpec(reverse, "targeted")),
            shard_key(context, ShardSpec(flow, "flooding")),
            shard_key(other_context, ShardSpec(flow, "targeted")),
        }
        assert len(keys) == 4
        assert shard_key(context, ShardSpec(flow, "targeted")) == shard_key(
            context, ShardSpec(FlowSpec("NYC", "SJC"), "targeted")
        )

    def test_code_fingerprint_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CODE_VERSION", "pinned-for-test")
        code_fingerprint.cache_clear()
        try:
            assert code_fingerprint() == "pinned-for-test"
        finally:
            code_fingerprint.cache_clear()

    def test_stable_hash_is_order_insensitive_for_dicts(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
