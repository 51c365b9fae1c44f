"""Content addressing (`Scenario.cache_key`) and the `ResultCache`:
exact hits, LRU bounds, journal persistence, and the cache-aware
`run_scenarios` / `Suite.run` paths."""

import json

import pytest

from repro.api import Scenario, Sweep, run_scenarios
from repro.cache import ResultCache, journal_crc
from repro.errors import ConfigurationError
from repro.sim.adversary import KillActive
from repro.suites import Suite

# ---- Scenario.canonical_dict / cache_key ------------------------------------


def _scenario(**overrides) -> Scenario:
    base = dict(protocol="B", n=64, t=8, adversary="random:3", seed=7)
    base.update(overrides)
    return Scenario(**base)


def test_cache_key_is_stable_and_hex():
    key = _scenario().cache_key()
    assert key == _scenario().cache_key()
    assert len(key) == 64
    int(key, 16)  # sha-256 hex digest


def test_cache_key_ignores_spelling_variants():
    as_string = _scenario(adversary="random:3")
    as_dict = _scenario(adversary={"kind": "random", "count": 3})
    assert as_string.cache_key() == as_dict.cache_key()


def test_cache_key_ignores_the_name_label():
    assert _scenario().cache_key() == _scenario(name="labelled").cache_key()
    assert "name" not in _scenario(name="labelled").canonical_dict()


def test_cache_key_resolves_auto_engine():
    auto = _scenario(engine="auto")
    explicit = _scenario(engine="sync")
    assert auto.cache_key() == explicit.cache_key()
    assert auto.canonical_dict()["engine"] == "sync"


@pytest.mark.parametrize(
    "changes",
    [
        {"seed": 8},
        {"n": 65},
        {"protocol": "A"},
        {"adversary": "random:4"},
        {"adversary": None},
    ],
)
def test_cache_key_tracks_semantic_changes(changes):
    assert _scenario().cache_key() != _scenario(**changes).cache_key()


def test_cache_key_ignores_the_fastpath_knob():
    # fastpath is accepted for stored documents but selects nothing, so
    # it must not fragment the content address.
    assert _scenario().cache_key() == _scenario(fastpath="off").cache_key()
    assert _scenario().cache_key() == _scenario(fastpath="on").cache_key()
    assert "fastpath" not in _scenario(fastpath="off").canonical_dict()


def test_live_adversary_has_no_cache_key():
    scenario = Scenario(protocol="A", n=16, t=4, adversary=KillActive(2))
    with pytest.raises(ConfigurationError):
        scenario.cache_key()


# ---- ResultCache ------------------------------------------------------------


def test_cache_round_trip_is_exact():
    cache = ResultCache()
    scenario = _scenario()
    direct = scenario.run()
    key = scenario.cache_key()
    assert cache.get(key) is None  # miss
    cache.put(key, direct)
    cached = cache.get(key)
    assert cached.config is None  # config is attached by the caller
    assert cached.metrics.as_dict() == direct.metrics.as_dict()
    assert cached.metrics == direct.metrics
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["stores"] == 1


def test_cache_peek_does_not_touch_counters():
    cache = ResultCache()
    scenario = _scenario()
    cache.put(scenario.cache_key(), scenario.run())
    assert cache.peek(scenario.cache_key()) is not None
    assert cache.peek("missing") is None
    assert cache.stats()["hits"] == 0
    assert cache.stats()["misses"] == 0


def test_cache_lru_eviction_counts():
    cache = ResultCache(max_entries=2)
    results = {}
    for seed in range(3):
        scenario = _scenario(seed=seed)
        results[seed] = (scenario.cache_key(), scenario.run())
        cache.put(*results[seed])
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert results[0][0] not in cache  # oldest went first
    assert results[2][0] in cache


def test_cache_get_refreshes_lru_order():
    cache = ResultCache(max_entries=2)
    first, second, third = (_scenario(seed=seed) for seed in range(3))
    cache.put(first.cache_key(), first.run())
    cache.put(second.cache_key(), second.run())
    assert cache.get(first.cache_key()) is not None  # first becomes MRU
    cache.put(third.cache_key(), third.run())
    assert first.cache_key() in cache
    assert second.cache_key() not in cache


def test_cache_rejects_bad_configuration():
    with pytest.raises(ConfigurationError, match="max_entries"):
        ResultCache(max_entries=0)
    with pytest.raises(ConfigurationError, match="cache key"):
        ResultCache().put(123, _scenario().run())


# ---- JSONL persistence ------------------------------------------------------


def test_cache_journal_survives_restart(tmp_path):
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    direct = scenario.run()
    ResultCache(path=path).put(scenario.cache_key(), direct)
    revived = ResultCache(path=path)
    assert len(revived) == 1
    cached = revived.get(scenario.cache_key())
    assert cached.metrics == direct.metrics
    assert revived.stats()["path"] == str(path)


def test_cache_journal_last_write_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    scenario = _scenario()
    cache.put(scenario.cache_key(), scenario.run())
    cache.put(scenario.cache_key(), scenario.run())  # re-store appends
    assert len(path.read_text().splitlines()) == 2
    assert len(ResultCache(path=path)) == 1  # replay dedups by key


def test_cache_journal_skips_and_counts_broken_lines(tmp_path):
    # The degradation contract (docs/chaos.md): corrupt lines - torn
    # writes, bit rot, wrong shapes - are skipped and counted on replay,
    # never fatal.  Valid lines around them still load.
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    ResultCache(path=path).put(scenario.cache_key(), scenario.run())
    good = path.read_text()
    path.write_text(
        "not json\n"
        + json.dumps({"key": 1, "result": {}}) + "\n"
        + good
        + '{"key": "torn-mid-wri'
    )
    revived = ResultCache(path=path)
    assert len(revived) == 1
    assert revived.get(scenario.cache_key()) is not None
    assert revived.stats()["journal_corrupt"] == 3


def test_cache_journal_checksums_detect_bit_rot(tmp_path):
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    ResultCache(path=path).put(scenario.cache_key(), scenario.run())
    line = path.read_text()
    assert '"crc":' in line
    # Flip one payload byte: the line still parses, the CRC catches it.
    rotted = line.replace('"work":', '"wonk":', 1)
    assert rotted != line
    path.write_text(rotted)
    revived = ResultCache(path=path)
    assert len(revived) == 0
    assert revived.stats()["journal_corrupt"] == 1


def test_cache_journal_reads_pre_crc_lines(tmp_path):
    # Journals written before CRC32 checksums (no "crc" field) replay
    # fine and are counted as unchecksummed.
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    ResultCache(path=path).put(scenario.cache_key(), scenario.run())
    record = json.loads(path.read_text())
    del record["crc"]
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    revived = ResultCache(path=path)
    assert len(revived) == 1
    assert revived.get(scenario.cache_key()).metrics == scenario.run().metrics
    stats = revived.stats()
    assert stats["journal_unchecksummed"] == 1
    assert stats["journal_corrupt"] == 0


def test_cache_journal_append_failure_degrades_not_breaks(tmp_path):
    # A sick disk degrades persistence, never correctness: the entry
    # stays live in memory and the failure is counted.
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    scenario = _scenario()
    cache.path = tmp_path / "no-such-dir" / "cache.jsonl"  # appends fail
    cache.put(scenario.cache_key(), scenario.run())
    assert cache.get(scenario.cache_key()) is not None
    assert cache.stats()["journal_errors"] == 1


def test_verify_journal_reports_line_classes(tmp_path):
    from repro.cache import verify_journal

    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    a, b = _scenario(), _scenario(seed=8)
    cache.put(a.cache_key(), a.run())
    cache.put(b.cache_key(), b.run())
    cache.put(a.cache_key(), a.run())  # stale first write of a
    record = json.loads(path.read_text().splitlines()[0])
    del record["crc"]
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")  # pre-CRC
        handle.write("garbage line\n")
    audit = verify_journal(path)
    assert audit["lines"] == 5
    assert audit["live"] == 2
    assert audit["stale"] == 2
    assert audit["corrupt"] == 1
    assert audit["unchecksummed"] == 1
    assert audit["ok"] is False
    with pytest.raises(ConfigurationError, match="does not exist"):
        verify_journal(tmp_path / "missing.jsonl")


# ---- run_scenarios with a cache ---------------------------------------------


def test_run_scenarios_deduplicates_within_a_batch():
    cache = ResultCache()
    scenario = _scenario()
    results = run_scenarios([scenario, scenario, scenario], cache=cache)
    assert cache.stats()["misses"] == 1
    assert cache.stats()["stores"] == 1
    direct = scenario.run()
    for result in results:
        assert result == direct  # config echo included


def test_run_scenarios_cache_hits_are_bit_identical():
    cache = ResultCache()
    scenarios = [_scenario(seed=seed) for seed in range(4)]
    cold = run_scenarios(scenarios, cache=cache)
    warm = run_scenarios(scenarios, cache=cache)
    assert cold == warm == run_scenarios(scenarios)
    stats = cache.stats()
    assert stats["misses"] == 4 and stats["hits"] == 4


def test_run_scenarios_cache_echoes_the_requesting_scenario():
    cache = ResultCache()
    anonymous = _scenario()
    named = _scenario(name="labelled")  # same key, different echo
    run_scenarios([anonymous], cache=cache)
    (result,) = run_scenarios([named], cache=cache)
    assert cache.stats()["hits"] == 1
    assert result.config == named.to_dict()
    assert result.metrics == anonymous.run().metrics


def test_fastpath_on_run_hits_a_fastpath_off_cache_entry():
    # The cache key excludes fastpath, which selects nothing, so every
    # spelling of the knob reuses one stored result.
    cache = ResultCache()
    off = _scenario(fastpath="off")
    on = _scenario(fastpath="on")
    (cold,) = run_scenarios([off], cache=cache)
    (warm,) = run_scenarios([on], cache=cache)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["stores"] == 1
    assert stats["hits"] == 1
    assert warm.metrics == cold.metrics
    assert warm.config == on.to_dict()  # echo keeps the requested knob


def test_run_scenarios_live_adversary_bypasses_the_cache():
    cache = ResultCache()
    scenario = Scenario(protocol="A", n=32, t=8, adversary=KillActive(3))
    first = run_scenarios([scenario], cache=cache)
    second = run_scenarios([scenario], cache=cache)
    assert len(cache) == 0
    assert first[0].metrics.as_dict() == second[0].metrics.as_dict()


def test_run_scenarios_parallel_with_cache_matches_serial():
    cache = ResultCache()
    scenarios = list(
        Sweep(base=_scenario(), seeds=range(4)).scenarios()
    )
    parallel = run_scenarios(scenarios, workers=2, cache=cache)
    assert [r.to_dict() for r in parallel] == [
        r.to_dict() for r in run_scenarios(scenarios)
    ]
    assert cache.stats()["stores"] == 4


# ---- suite layer reuse ------------------------------------------------------


def test_suite_run_reuses_the_cache():
    suite = Suite.from_dict(
        {
            "suite": "cache-reuse",
            "version": 1,
            "entries": [
                {"name": "one", "scenario": _scenario().to_dict()},
                {
                    "name": "grid",
                    "sweep": Sweep(base=_scenario(), seeds=[7, 8]).to_dict(),
                },
            ],
        }
    )
    cache = ResultCache()
    cold = suite.run(cache=cache)
    misses_after_cold = cache.stats()["misses"]
    warm = suite.run(cache=cache)
    stats = cache.stats()
    # seed 7 appears in both entries: 2 distinct runs total, all hits on rerun.
    assert misses_after_cold == 2
    assert stats["misses"] == 2
    assert stats["hits"] >= 3
    assert [entry.observed for entry in warm.entries] == [
        entry.observed for entry in cold.entries
    ]


# ---- journal compaction -----------------------------------------------------


def test_compact_rewrites_dead_journal_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    result = _scenario().run()
    key = _scenario().cache_key()
    for _ in range(5):  # re-stores accumulate dead lines
        cache.put(key, result)
    other = _scenario(seed=8)
    cache.put(other.cache_key(), other.run())
    assert len(path.read_text().splitlines()) == 6
    stats = cache.compact()
    assert stats == {
        "entries": 2,
        "lines_before": 6,
        "lines_after": 2,
        "bytes_before": stats["bytes_before"],
        "bytes_after": stats["bytes_after"],
    }
    assert stats["bytes_after"] < stats["bytes_before"]
    assert len(path.read_text().splitlines()) == 2


def test_compacted_journal_replays_to_an_equal_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    scenarios = [_scenario(seed=seed) for seed in range(4)]
    for scenario in scenarios:
        cache.put(scenario.cache_key(), scenario.run())
        cache.put(scenario.cache_key(), scenario.run())  # dead duplicate
    cache.compact()
    reborn = ResultCache(path=path)
    assert len(reborn) == 4
    for scenario in scenarios:
        assert reborn.get(scenario.cache_key()) == cache.get(
            scenario.cache_key()
        )


def test_compact_through_an_lru_drops_evicted_entries(tmp_path):
    path = tmp_path / "cache.jsonl"
    unbounded = ResultCache(path=path)
    for seed in range(5):
        scenario = _scenario(seed=seed)
        unbounded.put(scenario.cache_key(), scenario.run())
    # Replay through a 2-entry LRU: only the 2 most recent survive.
    bounded = ResultCache(max_entries=2, path=path)
    stats = bounded.compact()
    assert stats["lines_before"] == 5
    assert stats["lines_after"] == 2
    assert _scenario(seed=4).cache_key() in bounded
    assert _scenario(seed=0).cache_key() not in bounded


def test_compact_requires_a_journal():
    with pytest.raises(ConfigurationError, match="journal"):
        ResultCache().compact()


# ---- journal line encoding --------------------------------------------------


def _record_line(key, text):
    """A journal line as ``json.dumps`` of the whole record spells it,
    ``text`` being the stored canonical result text."""
    record = {"key": key, "result": json.loads(text), "crc": journal_crc(key, text)}
    return json.dumps(record, sort_keys=True) + "\n"


class _JournalFault:
    """A chaos stand-in that injects ``mode`` into every journal append."""

    def __init__(self, mode):
        self.mode = mode

    def fire(self, point, detail=""):
        return self.mode if point == "journal_write" else None


def test_put_and_compact_write_the_canonical_record_line(tmp_path):
    from repro.cache import verify_journal

    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    keys = ["plain-key", "ключ \"quoted\" é"]  # escapes must match too
    stored = {}
    for key, scenario in zip(keys, [_scenario(), _scenario(protocol="D", seed=8)]):
        stored[key] = cache.put(key, scenario.run())
    stored[keys[0]] = cache.put(keys[0], _scenario().run())  # a dead line
    lines = [_record_line(key, stored[key]) for key in (keys[0], keys[1], keys[0])]
    assert path.read_text() == "".join(lines)
    cache.compact()  # live entries in LRU order
    assert path.read_text() == "".join(_record_line(key, stored[key]) for key in keys[::-1])
    audit = verify_journal(path)
    assert audit["ok"] and audit["live"] == 2 and audit["unchecksummed"] == 0
    replayed = ResultCache(path=path)
    assert replayed.stats()["journal_corrupt"] == 0
    assert all(replayed.peek(key) == stored[key] for key in keys)


@pytest.mark.parametrize(
    "mode, cut",
    [
        ("torn", lambda line: line[: max(1, len(line) // 2)]),
        ("partial", lambda line: line[: max(1, len(line) // 3)] + "\n"),
    ],
)
def test_chaos_journal_faults_cut_the_canonical_line(tmp_path, mode, cut):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path, chaos=_JournalFault(mode))
    key = _scenario().cache_key()
    payload = cache.put(key, _scenario().run())
    assert path.read_text() == cut(_record_line(key, payload))


# ---- replay decodes every entry ---------------------------------------------


def _rotted_work(text):
    """``text`` with its stated work total one higher than the units sum."""
    payload = json.loads(text)
    payload["metrics"]["work"] += 1
    return payload


def test_replay_skips_a_checksummed_entry_that_does_not_decode(tmp_path):
    # A valid CRC over bad content: the line parses and checks out, but
    # its metrics no longer add up.  Serving it would make every request
    # for the scenario fail to decode, so replay drops it and the key
    # runs again.
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    key = scenario.cache_key()
    text = ResultCache().put(key, scenario.run())
    bad = json.dumps(_rotted_work(text), sort_keys=True)
    path.write_text(_record_line(key, bad))
    assert json.loads(path.read_text())["crc"] == journal_crc(key, bad)
    revived = ResultCache(path=path)
    assert len(revived) == 0
    assert revived.stats()["journal_corrupt"] == 1
    from repro.cache import verify_journal

    assert verify_journal(path)["corrupt"] == 1
    (result,) = run_scenarios([scenario], cache=revived)
    assert result == scenario.run()
    assert revived.stats()["stores"] == 1


def test_replay_skips_a_pre_crc_entry_with_a_rotted_digit(tmp_path):
    path = tmp_path / "cache.jsonl"
    scenario = _scenario()
    key = scenario.cache_key()
    text = ResultCache().put(key, scenario.run())
    path.write_text(json.dumps({"key": key, "result": _rotted_work(text)}) + "\n")
    revived = ResultCache(path=path)
    assert len(revived) == 0
    stats = revived.stats()
    assert stats["journal_corrupt"] == 1 and stats["journal_unchecksummed"] == 0
