"""The six benchmark workloads.

Each workload makes its inputs from the seed alone, warms up, then
exposes one timed operation (``op``) and the untimed checks on its
outputs (``verify`` per operation, ``finish`` once at the end).  The
program under test only ever receives the generated scenarios.

Every run's ``(completed, work_total, messages_total, retire_round,
crashes)`` is folded into a SHA-256 digest over a set of runs that does
not depend on how many operations fit in the time window, so the digest
for a seed is the same on every machine.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import repro.campaign as campaign
from repro.analysis.verify import verify_run
from repro.api import Scenario
from repro.campaign import CampaignSpec, CampaignState
from repro.client import Client

#: The source tree ``repro`` was imported from (the server child uses it too).
SRC = Path(campaign.__file__).resolve().parents[2]

#: Reference re-runs per workload: the runs whose digest is pinned and
#: which are checked against an independent execution path.
REFERENCE_RUNS = 100

_VERIFIABLE = {"A", "B", "C", "D"}  # protocols with theorem bounds in verify_run


def fingerprint(result) -> List[int]:
    metrics = result.metrics
    return [
        int(result.completed),
        metrics.work_total,
        metrics.messages_total,
        metrics.retire_round,
        metrics.crashes,
    ]


def digest(fingerprints) -> str:
    return hashlib.sha256(json.dumps(list(fingerprints)).encode()).hexdigest()


def result_hash(result) -> str:
    """Hash of the lossless result form, ``config`` echo excluded."""
    payload = result.to_dict(full=True)
    payload.pop("config", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Workload:
    """Base class: tallies the runs an operation produced and checks
    each one against completion and the paper's theorem bounds."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.runs = 0
        self.units = 0
        self.work = 0
        self.messages = 0

    def check(self, scenario: Scenario, result) -> List[str]:
        metrics = result.metrics
        self.runs += 1
        self.units += scenario.n
        self.work += metrics.work_total
        self.messages += metrics.messages_total
        label = f"{scenario.protocol} n={scenario.n} t={scenario.t} seed={scenario.seed}"
        if not result.completed:
            return [f"{label}: did not complete its work"]
        protocol = scenario.protocol.upper()
        if protocol in _VERIFIABLE:
            report = verify_run(
                result, protocol, scenario.n, scenario.t, failures=metrics.crashes
            )
            return [f"{label}: {check.name} bound broken" for check in report.failures()]
        return []

    def setup(self) -> None:
        """Warm up; counted in ``setup_s``."""

    def set_tracing(self, on: bool) -> None:
        """Switch spans in processes the workload starts (the worker
        switches its own)."""

    def op(self, index: int):
        raise NotImplementedError

    def verify(self, index: int, outcome) -> List[str]:
        raise NotImplementedError

    def finish(self) -> Dict:
        """Cross-checks after the window: ``{"problems", "digest", ...}``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------
# small_grid
# ---------------------------------------------------------------------


def _small_scenario(rng: random.Random) -> Scenario:
    protocol = rng.choice(["A", "B", "C", "D", "D-recovery", "A-async"])
    if protocol == "C":
        n, t = 16, 4  # C's virtual rounds grow exponentially in n + t
    else:
        n, t = rng.choice([32, 48, 64, 128]), rng.choice([4, 8, 16])
    seed = rng.randrange(2**31)
    if protocol == "A-async":
        victims = rng.sample(range(t), rng.randint(0, t // 2))
        crash_times = {pid: round(rng.uniform(0.0, 2.0 * n / t), 3) for pid in victims}
        return Scenario(protocol=protocol, n=n, t=t, seed=seed, crash_times=crash_times or None)
    kind = rng.choice(
        ["none", "random", "kill-active", "crash-recover" if protocol == "D-recovery" else "random"]
    )
    count = rng.randint(1, t // 2)
    adversary = {
        "none": None,
        "random": f"random:{count}",
        "kill-active": f"kill-active:{count}",
        # Above t/4 crash-recover victims, D-recovery can raise ValueError
        # when a rejoined process reverts without itself among the members
        # (e.g. n=128 t=16 crash-recover:5,repair_delay=3 seed=606253417);
        # the benchmark stays on inputs where no operation fails.
        "crash-recover": f"crash-recover:{min(count, t // 4)},repair_delay=3",
    }[kind]
    return Scenario(protocol=protocol, n=n, t=t, seed=seed, adversary=adversary)


class SmallGrid(Workload):
    """Serial closed loop over many sub-10 ms runs through Scenario.run()."""

    name = "small_grid"
    POOL = 20000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(f"small_grid:{seed}")
        self.pool = [_small_scenario(rng) for _ in range(self.POOL)]
        self.hashes: Dict[int, str] = {}

    def setup(self):
        first = {}
        for scenario in self.pool:
            first.setdefault(scenario.protocol, scenario)
        for scenario in first.values():
            scenario.run()

    def op(self, index):
        scenario = self.pool[index % self.POOL]
        return scenario, scenario.run()

    def verify(self, index, outcome):
        scenario, result = outcome
        if index < REFERENCE_RUNS:
            self.hashes[index] = result_hash(result)
        return self.check(scenario, result)

    def finish(self):
        # Reference: the pure-python delivery path for sync runs, a second
        # execution for async ones (the async engine has one path).
        problems, prints = [], []
        for index, scenario in enumerate(self.pool[:REFERENCE_RUNS]):
            if scenario.resolved_engine == "sync":
                scenario = scenario.replace(fastpath="off")
            reference = scenario.run()
            prints.append(fingerprint(reference))
            if index in self.hashes and result_hash(reference) != self.hashes[index]:
                problems.append(f"run {index}: differs from its fastpath-off reference")
        return {"problems": problems, "digest": digest(prints)}


# ---------------------------------------------------------------------
# large_t_d / large_t_ab
# ---------------------------------------------------------------------


def _fixed_crashes(rng: random.Random, t: int, count: int, at_round: int):
    """Seeded victims at a fixed round: the cost of the run does not
    depend on the seed, only which pids die."""
    return {
        "kind": "fixed-schedule",
        "directives": [{"pid": pid, "at_round": at_round} for pid in rng.sample(range(t), count)],
    }


class LargeT(Workload):
    """Passes over three large-t runs; a pass is one operation.

    The runs are half the size the workload was first planned at (t up
    to 512 rather than 1024), so a pass takes about 0.5 s: a 10 s window
    then holds about twenty passes instead of seven, and the median of
    a window holds still on a shared host.
    """

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.scenarios = self.make(random.Random(f"{self.name}:{seed}"))
        self.first_pass: Optional[List[List[int]]] = None

    def make(self, rng) -> List[Scenario]:
        raise NotImplementedError

    def setup(self):
        # Each shape once at a sixteenth of its size: imports, numpy and
        # lazy set-up finish without paying for a full pass.
        for scenario in self.scenarios:
            options = {k: v for k, v in scenario.options.items() if k != "schedule"}
            scenario.replace(
                n=scenario.n // 16, t=scenario.t // 16, adversary=None, crash_times=None,
                options=options,
            ).run()

    def op(self, index):
        results = [scenario.run() for scenario in self.scenarios]
        # Collect the pass's reference cycles inside the operation that
        # made them, so no pass inherits another's garbage (or its memory).
        gc.collect()
        return results

    def verify(self, index, outcome):
        problems = []
        for scenario, result in zip(self.scenarios, outcome):
            problems += self.check(scenario, result)
        prints = [fingerprint(result) for result in outcome]
        if self.first_pass is None:
            self.first_pass = prints
        elif prints != self.first_pass:
            problems.append(f"pass {index} differs from the first pass")
        return problems

    def finish(self):
        return {"problems": [], "digest": digest(self.first_pass or [])}


class LargeTD(LargeT):
    """Theta(t^2) agreement broadcasts: delivery and the word-parallel
    folds dominate (the columnar path's home ground)."""

    name = "large_t_d"

    def make(self, rng):
        return [
            Scenario(protocol="D", n=2048, t=512, seed=rng.randrange(2**31),
                     adversary=_fixed_crashes(rng, 512, 8, 2)),
            Scenario(protocol="D", n=4096, t=128, seed=rng.randrange(2**31),
                     adversary=_fixed_crashes(rng, 128, 32, 10)),
            Scenario(protocol="D-dynamic", n=1024, t=32, seed=rng.randrange(2**31),
                     options={"schedule": "arrivals:0x512,40x256,80x256", "cycle_length": 20}),
        ]


class LargeTAB(LargeT):
    """Many processes, few messages per step: the control for any
    delivery-layer change (the async engine bypasses it entirely)."""

    name = "large_t_ab"

    def make(self, rng):
        # Victim k of the async run crashes at time 10 (k + 1): staggered,
        # at the same times for every seed.
        victims = rng.sample(range(128), 32)
        crash_times = {pid: 10.0 * (k + 1) for k, pid in enumerate(victims)}
        return [
            Scenario(protocol="A", n=2048, t=512, seed=rng.randrange(2**31),
                     adversary=_fixed_crashes(rng, 512, 128, 10)),
            Scenario(protocol="B", n=2048, t=128, seed=rng.randrange(2**31),
                     adversary=_fixed_crashes(rng, 128, 32, 10)),
            Scenario(protocol="A-async", n=2048, t=128, seed=rng.randrange(2**31),
                     delay="uniform:0.5,4.0", crash_times=crash_times),
        ]


# ---------------------------------------------------------------------
# served
# ---------------------------------------------------------------------


class Served(Workload):
    """One closed-loop client against a ReproServer child over localhost.

    Scenario ``i`` of a seed is a small A, B or D run made from the seed
    and ``i`` alone.  A remote campaign's first pass sends only new
    scenarios (``served_cold``); a re-run sends the same ones again
    (``served_warm``).  Every served result must equal ``Scenario.run()``
    and every repeat must equal the first answer bit for bit.
    """

    #: Requests after which the server's peak memory is read: a fixed
    #: amount of work, so the reading does not grow with host speed.
    RSS_AT = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.answers: Dict[int, str] = {}  # scenario index -> first answer's hash
        self.made: Dict[int, Scenario] = {}
        self.rss_mb: Optional[float] = None
        self.server = None
        self.client = None

    def scenario(self, which: int) -> Scenario:
        made = self.made.get(which)
        if made is None:
            made = self.made[which] = self._make(which)
        return made

    def _make(self, which: int) -> Scenario:
        rng = random.Random(f"served:{self.seed}:{which}")
        t = rng.choice([4, 8, 16])
        return Scenario(
            protocol=rng.choice(["A", "B", "D"]),
            n=rng.choice([32, 48, 64, 128]),
            t=t,
            seed=rng.randrange(2**31),
            adversary=rng.choice([None, f"random:{rng.randint(1, t // 2)}"]),
        )

    def which(self, index: int) -> int:
        """The scenario request ``index`` of the window sends."""
        raise NotImplementedError

    def setup(self):
        # One request is in flight at a time, so client and server never
        # run at once.  Sharing one CPU keeps every hand-off on that CPU's
        # run queue instead of waking the other; on a shared 2-CPU host
        # pinned runs spread 2% in op_ms_p50 against 6% unpinned.  The
        # server child inherits the affinity.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        worker = Path(__file__).with_name("worker.py")
        self.server = subprocess.Popen(
            [sys.executable, str(worker), "--serve", "--src", str(SRC),
             "--cache-path", str(self.workdir / "cache.jsonl")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        hello = json.loads(self.server.stdout.readline())
        self.client = Client(hello["url"])
        self.client.run(Scenario(protocol="A", n=16, t=4, seed=2**31))
        self.scenario(self.which(0))

    def set_tracing(self, on):
        self._command("on" if on else "off")

    def _command(self, line: str) -> Dict:
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def op(self, index):
        return self.client.run(self.scenario(self.which(index)))

    def compare_answer(self, which: int, outcome) -> List[str]:
        answer = result_hash(outcome)
        first = self.answers.setdefault(which, answer)
        if answer != first:
            return [f"scenario {which}: a repeated answer differs from the first one"]
        return []

    def verify(self, index, outcome):
        which = self.which(index)
        scenario = self.scenario(which)
        problems = self.check(scenario, outcome) + self.compare_answer(which, outcome)
        if outcome.config != scenario.to_dict():
            problems.append(f"request {index}: config echo differs from the submission")
        if index + 1 == self.RSS_AT:
            self.rss_mb = self._command("rss")["peak_rss_mb"]
        self.scenario(self.which(index + 1))  # made here, outside the next timed request
        return problems

    def finish(self):
        report = self._command("quit")
        self.server.wait(timeout=30)
        self.server = None
        if self.rss_mb is not None:
            report["peak_rss_mb"] = self.rss_mb
        problems, prints = [], []
        for which in range(REFERENCE_RUNS):
            reference = self.scenario(which).run()
            prints.append(fingerprint(reference))
            served = self.answers.get(which)
            if served is not None and served != result_hash(reference):
                problems.append(f"scenario {which}: served result differs from Scenario.run()")
        stats = report["stats"]
        if stats["quarantined"] or stats["leaked_jobs"]:
            problems.append(f"{stats['quarantined']} executions quarantined, "
                            f"{stats['leaked_jobs']} jobs leaked at shutdown")
        return {"problems": problems, "digest": digest(prints), "server": report}

    def close(self):
        if self.server is not None:
            self.server.kill()
            self.server.wait(timeout=30)


class ServedCold(Served):
    """Every request a scenario the server has not seen: it executes,
    then writes the cache and its journal."""

    name = "served_cold"

    def which(self, index):
        return index


class ServedWarm(Served):
    """Set-up serves :data:`DISTINCT` scenarios once (cold), in chunks of
    50 as a remote campaign's first pass submits them; the window sends
    them again one by one, in the same order, round after round, so
    every request is a cache hit."""

    name = "served_warm"
    DISTINCT = 1000
    CHUNK = 50

    def setup(self):
        super().setup()
        for first in range(0, self.DISTINCT, self.CHUNK):
            chunk = range(first, first + self.CHUNK)
            job = self.client.submit(
                {"scenarios": [self.scenario(which).to_dict() for which in chunk]}
            )
            for which, result in zip(chunk, self.client.wait(job["job"])):
                self.compare_answer(which, result)

    def which(self, index):
        return index % self.DISTINCT


# ---------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------


class Campaign(Workload):
    """Plan, ledger, merged report: the write-heavy campaign path.

    One operation plans a fresh ledger, runs the grid serially without a
    cache, builds the report, then re-opens the ledger and rebuilds it.
    """

    name = "campaign"
    SEEDS = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.document = self.grid(seed, self.SEEDS)
        self.first_results: Optional[Dict] = None
        self.first_chunk: List = []
        self.prints: List[List[int]] = []
        self.ledger_bytes = 0

    @staticmethod
    def grid(seed: int, seeds: int, protocols=("A", "B", "D"), n=(48, 64, 128), t=(8, 16)):
        return {
            "campaign": f"perfbench-{seed}",
            "version": 1,
            "base": {"protocol": "A", "n": 48, "t": 8, "seed": 0},
            "axes": {
                "protocols": list(protocols),
                "adversaries": [None, "random:3,max_action_index=10"],
                "n": list(n),
                "t": list(t),
                "seeds": {"start": seed * 1000, "count": seeds},
            },
            "chunk_size": 50,
        }

    def setup(self):
        tiny = CampaignSpec.from_dict(self.grid(self.seed, 2, protocols=("A",), n=(48,), t=(8,)))
        campaign.run_campaign(tiny, self.workdir / "warmup.jsonl").report()

    def op(self, index):
        ledger = self.workdir / f"ledger-{index}.jsonl"
        spec = CampaignSpec.from_dict(self.document)
        # Module attributes, not imported names: a traced run patches them.
        report = campaign.run_campaign(spec, ledger).report()
        reopened = campaign.build_report(spec, CampaignState.load(spec, ledger))
        return spec, ledger, report, reopened

    def verify(self, index, outcome):
        spec, ledger, report, reopened = outcome
        self.ledger_bytes = ledger.stat().st_size
        ledger.unlink()
        problems = list(report.failures())
        for scenario, result in report.result_set:
            problems += self.check(scenario, result)
        results = report.as_dict()["results"]
        if reopened.as_dict()["results"] != results:
            problems.append(f"campaign {index}: re-opened ledger report differs")
        if self.first_results is None:
            self.first_results = results
            self.first_chunk = list(report.result_set)[: spec.chunk_size]
            self.prints = [fingerprint(result) for _, result in report.result_set]
        elif results != self.first_results:
            problems.append(f"campaign {index}: report differs from the first campaign")
        return problems

    def finish(self):
        # Reference: the ledger round-trip against direct runs.
        problems = [
            f"{scenario.protocol} seed={scenario.seed}: ledger result differs from Scenario.run()"
            for scenario, result in self.first_chunk
            if result_hash(result) != result_hash(scenario.run())
        ]
        return {
            "problems": problems, "digest": digest(self.prints), "ledger_bytes": self.ledger_bytes
        }


WORKLOADS = {
    cls.name: cls for cls in (SmallGrid, LargeTD, LargeTAB, ServedCold, ServedWarm, Campaign)
}
