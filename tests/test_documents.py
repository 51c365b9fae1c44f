"""The one document path: every document parses through `repro.codec`,
and a scenario serializes by reading the fields construction made
canonical.

* **Shipped serialization is pinned.**  ``tests/data/shipped_documents.json``
  holds, per file under ``scenarios/`` and ``campaigns/``, the scenario
  count and one SHA-256 over every scenario's ``json.dumps(to_dict())``
  and ``cache_key()`` (the same rows the verify recipe's snapshot hashes
  for all files at once).  Cache keys, campaign digests and suite pins
  all hash ``to_dict()``, so a drift here moves every one of them.
* **Serializing does not re-normalize.**  ``to_dict()``,
  ``canonical_dict()`` and ``cache_key()`` make no ``normalize_*_spec``
  call on a built scenario.
* **One error shape.**  A missing file or a file that does not parse is
  one :class:`ConfigurationError` naming the document and the path, from
  the library and from every CLI verb that reads a file.
"""

from __future__ import annotations

import glob
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import api, codec
from repro.__main__ import main as cli_main
from repro.api import Scenario, Sweep
from repro.campaign import CampaignSpec
from repro.errors import ConfigurationError
from repro.suites import Suite

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = json.loads((Path(__file__).parent / "data" / "shipped_documents.json").read_text())


def _scenarios_of(relative: str):
    path = ROOT / relative
    if relative.startswith("campaigns/"):
        return list(CampaignSpec.from_file(path).grid.scenarios())
    return [s for entry in Suite.from_file(path).entries for s in entry.scenarios()]


def test_pins_cover_every_shipped_document():
    shipped = sorted(
        str(Path(path).relative_to(ROOT))
        for pattern in ("scenarios/*.json", "campaigns/*.json")
        for path in glob.glob(str(ROOT / pattern))
    )
    assert shipped == sorted(SHIPPED)


@pytest.mark.parametrize("relative", sorted(SHIPPED))
def test_shipped_serialization_is_unchanged(relative):
    rows = [[json.dumps(s.to_dict()), s.cache_key()] for s in _scenarios_of(relative)]
    observed = {
        "scenarios": len(rows),
        "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }
    assert observed == SHIPPED[relative]


_NORMALIZERS = [
    name for name in dir(api) if name.startswith("normalize_") and name.endswith("_spec")
]


def test_serializing_a_built_scenario_normalizes_nothing(monkeypatch):
    assert set(_NORMALIZERS) >= {
        "normalize_adversary_spec",
        "normalize_congestion_spec",
        "normalize_delay_spec",
        "normalize_schedule_spec",
    }
    built = [
        Scenario(
            protocol="D", n=32, t=4, adversary="random:2",
            congestion="budget:send=2,receive=4", seed=3,
        ),
        Scenario(
            protocol="A-async", n=32, t=4, delay="uniform:0.5,3",
            crash_times={"2": 1, "0": 4.5}, failure_detector={"min_delay": 1},
        ),
        Sweep(Scenario(protocol="A", n=16, t=4), adversaries=["random:1", None], seeds=[0, 1]),
    ]
    calls = []
    for name in _NORMALIZERS:
        original = getattr(api, name)
        monkeypatch.setattr(
            api, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    for item in built:
        item.to_dict()
        if isinstance(item, Scenario):
            item.canonical_dict()
            item.cache_key()
    assert calls == []
    # The counters are live: construction does normalize.
    Scenario(protocol="D", n=32, t=4, adversary="random:2")
    assert "normalize_adversary_spec" in calls


def test_labelling_campaign_cells_normalizes_nothing(tmp_path, monkeypatch):
    # Every run of a campaign holds the canonical adversary construction
    # made; only plan_summary's raw axis values are normalized.
    from repro.campaign import CampaignState, build_report, run_campaign
    from repro.campaign import spec as campaign_spec

    spec = CampaignSpec.from_file(ROOT / "campaigns" / "paper_grid.json")
    ledger = tmp_path / "paper_grid.ledger"
    run_campaign(spec, ledger)
    state = CampaignState.load(spec, ledger)
    calls = []
    original = campaign_spec.normalize_adversary_spec
    monkeypatch.setattr(
        campaign_spec,
        "normalize_adversary_spec",
        lambda *a, **k: calls.append(a) or original(*a, **k),
    )
    report = build_report(spec, state)
    assert sum(cell["runs"] for cell in report.as_dict()["results"]["cells"]) == 200
    assert calls == []
    # The counter is live: the plan's axis labels do normalize.
    spec.plan_summary()
    assert len(calls) == 2


def test_live_objects_still_do_not_serialize():
    # (A scenario's live adversary: tests/test_api.py.)
    from repro.sim.adversary import KillActive

    for item in (
        Scenario(protocol="A-async", n=16, t=4, delay=lambda *args: 1.0),
        Sweep(Scenario(protocol="A", n=16, t=4), adversaries=[KillActive(1)]),
    ):
        with pytest.raises(ConfigurationError, match="not serializable"):
            item.to_dict()


# ---- the codec's document half --------------------------------------------


def test_parse_names_the_document():
    assert codec.parse(b'{"a": [1]}', "thing") == {"a": [1]}
    for bad in ("{nope", b"\xff\xfe\xfa"):
        with pytest.raises(ConfigurationError, match="^thing is not valid JSON: "):
            codec.parse(bad, "thing")


def test_read_goes_by_suffix(tmp_path):
    (tmp_path / "a.json").write_text('{"x": 1}')
    (tmp_path / "a.txt").write_text('{"x": 2}')
    assert codec.read(tmp_path / "a.json", "doc") == {"x": 1}
    assert codec.read(tmp_path / "a.txt", "doc") == {"x": 2}  # anything else is JSON
    (tmp_path / "bad.txt").write_text("x = 1")
    with pytest.raises(ConfigurationError, match=r"doc .*bad\.txt is not valid JSON"):
        codec.read(tmp_path / "bad.txt", "doc")
    with pytest.raises(ConfigurationError, match=r"cannot read doc .*missing\.json"):
        codec.read(tmp_path / "missing.json", "doc")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs 3.11+")
def test_read_parses_toml_and_names_bad_toml(tmp_path):
    path = tmp_path / "scenario.toml"
    path.write_text('protocol = "A"\nn = 16\nt = 4\nseed = 2\n')
    assert Scenario.from_file(path) == Scenario(protocol="A", n=16, t=4, seed=2)
    path.write_text("protocol = ")
    with pytest.raises(ConfigurationError, match=r"scenario file .*\.toml is not valid TOML"):
        Scenario.from_file(path)


@pytest.mark.parametrize(
    "data, fragment",
    [
        ([], "doc must be a dict, got list"),
        ({"a": 1, "zz": 2}, "unknown field(s) ['zz'] in doc; accepted: a, version"),
        ({"a": 1}, "doc requires field(s) ['version']"),
        ({"version": "1"}, "'version' of doc must be an integer, got '1'"),
        ({"version": True}, "'version' of doc must be an integer, got True"),
        ({"version": 2}, "doc uses format version 2, but this loader understands version 1"),
    ],
)
def test_check_fields_names_what_is_wrong(data, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        codec.check_fields(data, "doc", {"a", "version"}, ("version",), version=1)
    assert fragment in str(excinfo.value)
    assert codec.check_fields({"version": 1}, "doc", {"a", "version"}, version=1) == {"version": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario"],
        ["suite", "check"],
        ["campaign", "plan"],
        ["suite", "diff", "{path}"],
    ],
)
def test_cli_verbs_name_the_unreadable_file(tmp_path, capsys, argv):
    (tmp_path / "broken.json").write_text("{not json")
    for name in ("missing.json", "broken.json"):
        path = str(tmp_path / name)
        args = [arg.format(path=path) for arg in argv] + [path]
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert path in err
        assert ("cannot read " if name == "missing.json" else " is not valid JSON: ") in err
