"""The ``python -m repro`` command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser, main
from repro.api import Scenario


def test_list_protocols(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "a" in out.split()
    assert "d" in out.split()


def test_run_failure_free(capsys):
    assert main(["run", "b", "--n", "32", "--t", "4"]) == 0
    out = capsys.readouterr().out
    assert "work" in out and "32" in out


def test_run_with_random_crashes(capsys):
    assert main(["run", "a", "--n", "32", "--t", "8", "--crashes", "4"]) == 0
    out = capsys.readouterr().out
    assert "completed" in out


def test_run_with_kill_active(capsys):
    assert main(
        ["run", "b", "--n", "32", "--t", "8", "--kill-active", "7", "--seed", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "crashes" in out


def test_compare_table(capsys):
    assert main(
        ["compare", "--n", "32", "--t", "4", "--protocols", "a", "d"]
    ) == 0
    out = capsys.readouterr().out
    assert "| a" in out and "| d" in out
    assert "effort" in out


def test_report_command(tmp_path, capsys, monkeypatch):
    # Patch the experiment registry to keep the CLI test fast.
    import repro.analysis.report as report_module
    from repro.analysis.experiments import ExperimentResult

    fake = ExperimentResult(
        exp_id="EX", title="Fake", claim="c", columns=["ok"], rows=[{"ok": True}]
    )
    monkeypatch.setattr(report_module, "run_all", lambda: [fake])
    out_file = tmp_path / "OUT.md"
    assert main(["report", "--out", str(out_file)]) == 0
    assert "Fake" in out_file.read_text()


def test_report_has_no_quick_flag(tmp_path, capsys, monkeypatch):
    """Each experiment has one grid, so ``--quick`` is a usage error
    (exit 2) on both entry points, before any experiment runs."""
    import repro.analysis.report as report_module

    monkeypatch.setattr(report_module, "run_all", lambda: pytest.fail("ran"))
    out_file = str(tmp_path / "OUT.md")
    for entry, argv in [
        (main, ["report", "--quick", "--out", out_file]),
        (report_module.main, ["--quick", "--out", out_file]),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            entry(argv)
        assert excinfo.value.code == 2
    assert "--quick" in capsys.readouterr().err


def test_unknown_protocol_is_rejected():
    with pytest.raises(SystemExit):
        main(["run", "zz", "--n", "8", "--t", "2"])


def test_protocol_names_accepted_case_insensitively(capsys):
    assert main(["run", "B", "--n", "32", "--t", "4"]) == 0
    assert "work" in capsys.readouterr().out


def test_list_shows_engine_kinds(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "a-async" in out
    assert "[async]" in out and "[sync]" in out


def test_run_json_output(capsys):
    assert main(["run", "b", "--n", "32", "--t", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed"] is True
    assert payload["metrics"]["work"] >= 32
    assert payload["config"]["protocol"] == "b"


def test_run_adversary_spec_flag(capsys):
    assert (
        main(
            [
                "run", "b", "--n", "32", "--t", "8", "--json",
                "--adversary", "kill-active:3,actions_before_kill=4",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["adversary"] == {
        "kind": "kill-active", "budget": 3, "actions_before_kill": 4,
    }
    assert payload["metrics"]["crashes"] == 3


def test_crashes_and_kill_active_compose(capsys):
    # The seed CLI silently dropped --crashes when --kill-active was set;
    # now both shorthands apply side by side.
    assert (
        main(
            [
                "run", "a", "--n", "32", "--t", "8", "--seed", "3", "--json",
                "--crashes", "2", "--kill-active", "1",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    kinds = [part["kind"] for part in payload["config"]["adversary"]["parts"]]
    assert sorted(kinds) == ["kill-active", "random"]
    # More crashes than either shorthand alone could cause (budget 1 / count 2
    # victims may overlap, but both parts demonstrably fire).
    assert payload["metrics"]["crashes"] >= 2


def test_adversary_knobs_are_exposed(capsys):
    assert (
        main(
            [
                "run", "a", "--n", "32", "--t", "8", "--json",
                "--crashes", "2", "--max-action-index", "7",
                "--kill-active", "1", "--actions-before-kill", "5",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    parts = {part["kind"]: part for part in payload["config"]["adversary"]["parts"]}
    assert parts["random"]["max_action_index"] == 7
    assert parts["kill-active"]["actions_before_kill"] == 5


def test_run_async_protocol(capsys):
    assert main(["run", "a-async", "--n", "32", "--t", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed"] is True
    assert payload["config"]["protocol"] == "a-async"


def test_run_scenario_file_matches_in_memory(tmp_path, capsys):
    scenario = Scenario(
        protocol="b", n=48, t=6, adversary="random:2,max_action_index=9", seed=7
    )
    path = scenario.save(tmp_path / "scenario.json")
    assert main(["run", "--scenario", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"] == scenario.run().to_dict()["metrics"]


def test_run_scenario_conflicts_with_protocol(tmp_path, capsys):
    path = Scenario(protocol="a", n=8, t=2).save(tmp_path / "s.json")
    assert main(["run", "a", "--scenario", str(path)]) == 2
    assert main(["run"]) == 2


def test_compare_json(capsys):
    assert (
        main(["compare", "--n", "32", "--t", "4", "--protocols", "a", "d", "--json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert [entry["config"]["protocol"] for entry in payload] == ["a", "d"]
    assert all(entry["completed"] for entry in payload)


def test_adversaries_listing(capsys):
    assert main(["adversaries"]) == 0
    out = capsys.readouterr().out
    for kind in ("crash-recover", "rack", "cascade-neighbours", "random", "none"):
        assert kind in out
    assert "repair_delay" in out  # optional params are listed


def test_adversaries_json_listing(capsys):
    assert main(["adversaries", "--json"]) == 0
    rows = {row["kind"]: row for row in json.loads(capsys.readouterr().out)}
    assert rows["crash-recover"]["required"] == ["count"]
    assert "repair_delay" in rows["crash-recover"]["optional"]
    assert rows["none"]["required"] == []


def test_run_congestion_flag(capsys):
    assert (
        main(
            [
                "run", "d", "--n", "32", "--t", "4",
                "--congestion", "budget:send=2,receive=4", "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["congestion"] == {
        "kind": "budget", "send": 2, "receive": 4,
    }
    assert payload["completed"]


def test_run_bad_congestion_spec_is_a_clean_error(capsys):
    assert (
        main(["run", "d", "--n", "32", "--t", "4", "--congestion", "budget:send=0"])
        == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err and "0" in err


@pytest.mark.parametrize("case", ["no-rejoin", "total-failure"])
def test_run_an_adversary_error_is_one_named_line(case, capsys, tmp_path):
    if case == "no-rejoin":
        # Protocol A keeps no checkpoint to rejoin from.
        argv = ["run", "a", "--n", "64", "--t", "8", "--adversary", "crash-recover:3"]
    else:
        path = tmp_path / "annihilate.json"
        Scenario(
            protocol="A", n=16, t=4,
            adversary={
                "kind": "fixed-schedule",
                "directives": [{"pid": pid} for pid in range(4)],
            },
        ).save(str(path))
        argv = ["run", "--scenario", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_a_scenario_with_a_removed_option_is_one_named_line(capsys, tmp_path):
    path = tmp_path / "batched.json"
    path.write_text(json.dumps({"protocol": "C", "n": 16, "t": 4, "options": {"batched": True}}))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'batched'" in err


def test_the_engine_flag_is_gone(capsys):
    # The registry resolves the engine from the protocol name.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "a-async", "--engine", "async", "--n", "16", "--t", "4"])
    assert excinfo.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_run_d_recovery_with_crash_recover_spec(capsys):
    assert (
        main(
            [
                "run", "d-recovery", "--n", "32", "--t", "4",
                "--adversary", "crash-recover:1,repair_delay=4",
                "--seed", "2", "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["recoveries"] == payload["metrics"]["crashes"]
    assert payload["completed"]


# ---- campaign / cache / bench verbs -----------------------------------------


def _campaign_file(tmp_path, **overrides):
    data = {
        "campaign": "cli-grid",
        "version": 1,
        "base": {"protocol": "A", "n": 8, "t": 2, "seed": 0},
        "axes": {
            "protocols": ["A", "D"],
            "seeds": {"start": 0, "count": 5},
        },
        "chunk_size": 4,
    }
    data.update(overrides)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    return path


def test_campaign_plan(tmp_path, capsys):
    path = _campaign_file(tmp_path)
    assert main(["campaign", "plan", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cli-grid" in out and "10 runs" in out and "3 chunks" in out
    assert main(["campaign", "plan", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 10 and payload["chunks"] == 3


def test_campaign_run_interrupt_resume_status_report(tmp_path, capsys):
    path = _campaign_file(tmp_path)
    ledger = tmp_path / "grid.ledger"

    # Interrupted run: exit 1, status shows partial progress.
    assert main(
        ["campaign", "run", str(path), "--ledger", str(ledger),
         "--max-chunks", "1"]
    ) == 1
    capsys.readouterr()
    assert main(["campaign", "status", str(path), "--ledger", str(ledger)]) == 1
    assert "1/3 chunks" in capsys.readouterr().out

    # Resume completes and prints the per-cell table.
    assert main(["campaign", "resume", str(path), "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "cli-grid" in out and "adversary" in out
    assert main(["campaign", "status", str(path), "--ledger", str(ledger)]) == 0
    assert "COMPLETE" in capsys.readouterr().out

    # Report artifact round-trips and carries the results section.
    artifact = tmp_path / "report.json"
    assert main(
        ["campaign", "report", str(path), "--ledger", str(ledger),
         "--out", str(artifact)]
    ) == 0
    capsys.readouterr()
    payload = json.loads(artifact.read_text())
    assert payload["complete"] is True
    assert payload["results"]["runs"] == 10


def test_campaign_resume_requires_an_existing_ledger(tmp_path, capsys):
    path = _campaign_file(tmp_path)
    code = main(
        ["campaign", "resume", str(path), "--ledger", str(tmp_path / "no.ledger")]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_campaign_pin_failure_exits_one(tmp_path, capsys):
    path = _campaign_file(tmp_path, pins={"work": 1})
    ledger = tmp_path / "grid.ledger"
    assert main(["campaign", "run", str(path), "--ledger", str(ledger)]) == 1
    assert "pinned" in capsys.readouterr().err


def test_cache_compact_verb(tmp_path, capsys):
    journal = tmp_path / "cache.jsonl"
    from repro.cache import ResultCache

    cache = ResultCache(path=journal)
    scenario = Scenario(protocol="A", n=8, t=2, seed=0)
    cache.put(scenario.cache_key(), scenario.run())
    cache.put(scenario.cache_key(), scenario.run())
    assert main(["cache", "compact", str(journal)]) == 0
    assert "2 -> 1 lines" in capsys.readouterr().out
    assert main(["cache", "compact", str(tmp_path / "absent.jsonl")]) == 2


def test_cache_verify_verb(tmp_path, capsys):
    journal = tmp_path / "cache.jsonl"
    from repro.cache import ResultCache

    cache = ResultCache(path=journal)
    scenario = Scenario(protocol="A", n=8, t=2, seed=0)
    cache.put(scenario.cache_key(), scenario.run())
    assert main(["cache", "verify", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "1 live" in out and "0 corrupt" in out

    with journal.open("a") as handle:
        handle.write("{torn\n")
    assert main(["cache", "verify", str(journal)]) == 1
    captured = capsys.readouterr()
    assert "1 corrupt" in captured.out
    assert "cache compact" in captured.err

    assert main(["cache", "verify", str(journal), "--json"]) == 1
    audit = json.loads(capsys.readouterr().out)
    assert audit["corrupt"] == 1 and audit["live"] == 1
    assert audit["ok"] is False

    assert main(["cache", "verify", str(tmp_path / "absent.jsonl")]) == 2


def test_serve_has_no_run_workers_option(capsys):
    # Each job runs its scenarios one at a time in its job thread, so a
    # per-job process pool would select nothing.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--run-workers", "2"])
    assert exc.value.code == 2
    assert "--run-workers" in capsys.readouterr().err


def test_serve_drains_on_sigterm(tmp_path):
    """SIGTERM (docker stop, systemd) takes the Ctrl-C path: the server
    drains, prints its summary and exits 0 instead of dying at -15."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--job-workers", "1"],
        cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stderr.readline()
        url = re.search(r"listening on (\S+)", banner).group(1)
        with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
            assert response.status == 200
        server.send_signal(signal.SIGTERM)
        _, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0, (banner, err)
    assert "drained: 0 jobs resolved, 0 interrupted" in err, err
