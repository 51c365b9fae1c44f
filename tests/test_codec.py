"""The result codec (`repro.codec`): one canonical text per result, the
same bytes on every path.

Two kinds of check:

* **Byte identity with the encoder before the codec.**  The fixtures in
  ``tests/data/codec/`` were written by the code that re-encoded every
  result with ``json.dumps(..., sort_keys=True)``: a cache journal, a
  campaign ledger and a run server's answers (a cold job, the same job
  warm, one A-async job with ``crash_times``, and ``GET /results/<key>``)
  for the scenarios of ``inputs.json``.  The spliced texts must match
  them byte for byte, so neither the journal, the ledger nor the wire
  format changed.
* **One codec property over fuzzed runs.**  Scenarios drawn by the
  differential fuzz's generator (pinned seed) must satisfy
  ``decode(encode(r)) == r`` and ``encode(decode(b)) == b``, and a
  direct run, a cache hit, a journal replay, a ledger round trip and a
  ``Client`` answer must carry one text once the config echo is removed.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import shutil
import socket
from pathlib import Path

import pytest

from repro import codec
from repro.api import Scenario, Sweep
from repro.cache import ResultCache, verify_journal
from repro.campaign import (
    CampaignLedger,
    CampaignSpec,
    CampaignState,
    build_report,
    run_campaign,
)
from repro.client import Client
from repro.errors import ConfigurationError
from repro.server import ReproServer
from tests.test_differential_fuzz import _random_config

DATA = Path(__file__).parent / "data" / "codec"
INPUTS = json.loads((DATA / "inputs.json").read_text())
SCENARIOS = [Scenario.from_dict(item) for item in INPUTS["scenarios"]]

#: The fuzzed slice: generator seed and size.
FUZZ_SEED = 26
FUZZ_COUNT = 24


def _exchange(server, method: str, path: str, body: bytes = None) -> bytes:
    """One request on a fresh connection; the answer body as sent."""
    with socket.create_connection((server.host, server.port), timeout=60) as sock:
        head = f"{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        sock.sendall(head.encode() + b"\r\n" + (body or b""))
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 200, response.status
        return response.read()


# ---- byte identity with the fixtures ----------------------------------------


def test_journal_lines_match_the_fixture(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    for scenario in SCENARIOS:
        cache.put(scenario.cache_key(), scenario.run())
    assert path.read_bytes() == (DATA / "journal.jsonl").read_bytes()


def test_ledger_lines_match_the_fixture(tmp_path):
    spec = CampaignSpec.from_dict(INPUTS["campaign"])
    path = tmp_path / "ledger.jsonl"
    run_campaign(spec, path)
    assert path.read_bytes() == (DATA / "ledger.jsonl").read_bytes()


def test_served_answers_match_the_fixture():
    expected = (DATA / "answers.jsonl").read_bytes().splitlines()
    document = json.dumps({"scenarios": [s.to_dict() for s in SCENARIOS]}).encode()
    single = json.dumps({"scenario": SCENARIOS[-1].to_dict()}).encode()
    with ReproServer(port=0, job_workers=1) as server:
        answers = [
            _exchange(server, "POST", "/jobs?wait=60", document),  # cold
            _exchange(server, "POST", "/jobs?wait=60", document),  # warm
            _exchange(server, "POST", "/jobs?wait=60", single),
            _exchange(server, "GET", "/results/" + SCENARIOS[-1].cache_key()),
        ]
    assert answers == expected


def test_fixture_journal_replays_clean_and_compacts_unchanged(tmp_path):
    path = tmp_path / "cache.jsonl"
    shutil.copy(DATA / "journal.jsonl", path)
    audit = verify_journal(path)
    assert audit["ok"] and audit["live"] == len(SCENARIOS)
    cache = ResultCache(path=path)
    stats = cache.stats()
    assert stats["journal_corrupt"] == 0 and stats["journal_unchecksummed"] == 0
    for scenario in SCENARIOS:
        direct = dataclasses.replace(scenario.run(), config=None)
        assert cache.get(scenario.cache_key()) == direct
    cache.compact()
    assert path.read_bytes() == (DATA / "journal.jsonl").read_bytes()


def test_fixture_ledger_loads_and_reports_the_direct_runs():
    spec = CampaignSpec.from_dict(INPUTS["campaign"])
    state = CampaignState.load(spec, DATA / "ledger.jsonl")
    assert state.complete and state.torn_tails == 0
    report = build_report(spec, state)
    assert [result for _, result in report.result_set] == [
        scenario.run() for scenario in spec.grid.scenarios()
    ]


# ---- the codec itself -------------------------------------------------------


def test_splice_equals_json_dumps_of_the_whole_object():
    text = json.dumps([1, {"b": 2, "a": "é"}], sort_keys=True)
    for fields in ({}, {"a": 1}, {"z": None}, {"a": 1, "z": [2, 3], "m\"q": "ü"}):
        expected = json.dumps({**fields, "name": json.loads(text)}, sort_keys=True)
        assert codec.splice(fields, "name", text) == expected


def test_decode_rejects_text_that_is_not_a_result():
    for bad in ("not json", b"\xff\xfe", "[1, 2]", '{"completed": true}'):
        with pytest.raises(ConfigurationError):
            codec.decode(bad)


# ---- one property over fuzzed runs ------------------------------------------


def _fuzzed_runs():
    """``(scenario, result)`` for the fuzz generator's configs that run."""
    rng = random.Random(FUZZ_SEED)
    runs = []
    while len(runs) < FUZZ_COUNT:
        scenario = Scenario.from_dict(_random_config(rng))
        try:
            runs.append((scenario, scenario.run()))
        except Exception:  # noqa: BLE001 - configs the engine refuses
            continue
    return runs


def test_every_path_carries_one_canonical_text(tmp_path):
    runs = _fuzzed_runs()
    journal = tmp_path / "cache.jsonl"
    cache = ResultCache(path=journal)
    ledger = tmp_path / "ledger.jsonl"
    direct = {}
    for scenario, result in runs:
        key = scenario.cache_key()
        text = codec.encode(result)
        assert codec.decode(text) == dataclasses.replace(result, config=None)
        assert codec.encode(codec.decode(text)) == text
        assert codec.encode(codec.decode(text.encode())) == text
        assert cache.put(key, result) == text
        direct[key] = text

    # A cache hit and a journal replay.
    replayed = ResultCache(path=journal)
    assert replayed.stats()["journal_corrupt"] == 0
    for key, text in direct.items():
        assert codec.encode(cache.get(key)) == text
        assert cache.get_payload(key) == text
        assert replayed.peek(key) == text

    # A ledger round trip: each run checkpointed as a one-run campaign.
    for scenario, result in runs:
        spec = CampaignSpec(
            grid=Sweep(base=scenario, seeds=[scenario.seed]),
            name="codec-roundtrip",
            chunk_size=1,
        )
        ledger.unlink(missing_ok=True)
        (chunk,) = spec.chunks()
        CampaignLedger(ledger, spec).append_chunk(chunk, [codec.encode(result)])
        (payload,) = CampaignState.load(spec, ledger).completed[0]["results"]
        assert codec.encode(codec.decode(payload)) == direct[scenario.cache_key()]

    # A Client answer, as decoded and as sent.
    with ReproServer(port=0, cache=cache) as server:
        client = Client(server.url)
        bodies = []
        exchange = client._exchange

        def recording(method, path, body, headers):
            answer = exchange(method, path, body, headers)
            bodies.append(answer[2])
            return answer

        client._exchange = recording
        for scenario, result in runs:
            served = client.run(scenario)
            assert served == result
            key = scenario.cache_key()
            assert codec.encode(served) == direct[key]
            # No sync config holds int-keyed maps, so the whole answer
            # is a fixed point of json.dumps(..., sort_keys=True).
            answer = json.loads(bodies[-1])
            assert bodies[-1] == json.dumps(answer, sort_keys=True).encode()
            (sent,) = answer["results"]
            assert sent.pop("config") == json.loads(json.dumps(scenario.to_dict()))
            assert json.dumps(sent, sort_keys=True) == direct[key]
