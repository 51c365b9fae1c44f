"""The experiment registry: one runner per quantitative claim of the paper.

Each experiment function reproduces one theorem/claim (:data:`REGISTRY`
at the bottom of this module is the per-experiment index), returning
paper-bound-vs-measured rows.  Every run is a plain
:class:`~repro.api.Scenario`, run through a :class:`~repro.api.Sweep`
and reduced with ``ResultSet.worst()``, the package's one worst-case
reducer.  A row's ``ok`` is one rule: every run of the row passes
:func:`~repro.analysis.verify.verify_run` (the bounds of
:func:`~repro.analysis.bounds.theorem_bounds`), and the experiment's
own claim holds - an ordering, an exact count or a growth shape.
E10's Byzantine agreement runs are not a registered protocol; they
check their own message bound.

``python -m repro.analysis.report`` runs them all (a few seconds),
regenerates EXPERIMENTS.md and exits 1 if any claim fails;
``tests/test_experiment_pins.py`` pins every row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.agreement.byzantine import ByzantineAgreement
from repro.analysis.bounds import Bound, byzantine_messages, theorem_bounds
from repro.analysis.verify import protocol_d_reverted, verify_run
from repro.api import ResultSet, Scenario, Sweep
from repro.sim.adversary import AdversarySpec, RandomCrashes


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    claim: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    @property
    def all_ok(self) -> bool:
        return all(bool(row.get("ok", True)) for row in self.rows)


def _sweep(
    protocol: str, n: int, t: int, adversaries=(None,), seeds=range(1), **options
) -> ResultSet:
    """Every (adversary, seed) run of one configuration, for ``worst()``."""
    base = Scenario(protocol, n, t, options=options)
    return Sweep(base, adversaries=adversaries, seeds=seeds).run()


def _verified(*result_sets: ResultSet) -> bool:
    """Every run passes :func:`verify_run`: it did all the work (given a
    survivor) and met each bound the paper proves for its protocol."""
    return all(
        verify_run(result, scenario.protocol, scenario.n, scenario.t).ok
        for results in result_sets
        for scenario, result in results.entries
    )


def _staggered(kills) -> str:
    """The spec that crashes each ``(pid, units)`` victim after it has
    done ``units`` units of work."""
    return "staggered:" + "+".join(f"{pid}x{units}" for pid, units in kills)


def _standard_adversaries(t: int) -> List[AdversarySpec]:
    """The adversary battery used for worst-case aggregation, built from
    declarative specs (the same grammar the CLI and Scenario files use)."""
    return [
        None,
        f"random:{max(1, t // 2)},max_action_index=25",
        f"kill-active:{t - 1},actions_before_kill=2",
        {"kind": "crash-mid-broadcast", "victims": list(range(min(t, 6)))},
        f"kill-active:{t - 1},actions_before_kill=1",
    ]


def _cascade_adversaries(t: int) -> List[AdversarySpec]:
    """Protocol C's battery: the Section 3 cascade in place of the
    broadcast crashes."""
    return [
        None,
        f"random:{max(1, t // 2)},max_action_index=20",
        f"kill-active:{t - 1},actions_before_kill=3",
        {
            "kind": "cascade",
            "lead_units": max(1, t - 1),
            "redo_units": 1,
            "initial_dead": list(range(t // 2 + 1, t)),
        },
    ]


# =====================================================================
# E1 / E2 / E3 - Theorems 2.3, 2.8 and 3.8 (Protocols A, B and C)
# =====================================================================


def _theorem_experiment(
    exp_id: str, protocol: str, theorem: str, shapes, seeds, battery, notes: str
) -> ExperimentResult:
    rows = []
    for t, n in shapes:
        results = _sweep(protocol, n, t, battery(t), seeds)
        worst = results.worst()
        table = theorem_bounds(protocol, n, t)
        rows.append(
            {
                "t": t,
                "n": n,
                "runs": len(results),
                "work": worst["work"],
                "work bound": table["work"].value,
                "messages": worst["messages"],
                "msg bound": table["messages"].value,
                # C's exponential deadlines: its rounds print as floats.
                "rounds": float(worst["rounds"]) if protocol == "C" else worst["rounds"],
                "round bound": table["rounds"].value,
                "completed": results.all_completed,
                "ok": _verified(results),
            }
        )
    formula = {name: bound.formula for name, bound in table.items()}
    return ExperimentResult(
        exp_id=exp_id,
        title=f"Protocol {protocol} worst-case effort ({theorem})",
        claim=(
            f"work <= {formula['work']}, messages <= {formula['messages']}, "
            f"retired by {formula['rounds']}"
        ),
        columns=[
            "t", "n", "runs", "work", "work bound", "messages", "msg bound",
            "rounds", "round bound", "completed", "ok",
        ],
        rows=rows,
        notes=notes,
    )


_SEQUENTIAL_NOTES = (
    "Worst case over the adversary battery (none / random / kill-active "
    "/ crash-mid-broadcast) and seeds.  Round counts are measured under "
    "the implementation's slack-extended deadlines; the round bound "
    "column is the paper's formula."
)


def experiment_e1() -> ExperimentResult:
    return _theorem_experiment(
        "E1", "A", "Theorem 2.3", [(16, 128), (36, 288), (64, 512), (100, 800)],
        range(8), _standard_adversaries, _SEQUENTIAL_NOTES,
    )


def experiment_e2() -> ExperimentResult:
    return _theorem_experiment(
        "E2", "B", "Theorem 2.8", [(16, 128), (36, 288), (64, 512), (100, 800)],
        range(8), _standard_adversaries, _SEQUENTIAL_NOTES,
    )


def experiment_e3() -> ExperimentResult:
    return _theorem_experiment(
        "E3", "C", "Theorem 3.8", [(8, 32), (16, 64), (32, 128)],
        range(6), _cascade_adversaries,
        "Includes the Section 3 cascade adversary (leader does t-1 units "
        "then dies; upper half pre-crashed) that forces Theta(t^2) effort "
        "on the naive knowledge-spreading algorithm - Protocol C's fault "
        "detection defeats it.  The exponential round counts are simulated "
        "via deadline fast-forward.",
    )


# =====================================================================
# E4 - Corollary 3.9 (Protocol C, batched reporting)
# =====================================================================


def experiment_e4() -> ExperimentResult:
    rows = []
    for t, n in [(8, 128), (16, 256), (32, 512)]:
        adversaries = [None, f"random:{max(1, t // 2)},max_action_index=20"]
        plain = _sweep("C", n, t, adversaries, range(5))
        batched = _sweep("C-batched", n, t, adversaries, range(5))
        plain_msgs = plain.worst()["messages"]
        batched_worst = batched.worst()
        table = theorem_bounds("C-batched", n, t)
        rows.append(
            {
                "t": t,
                "n": n,
                "plain msgs": plain_msgs,
                "batched msgs": batched_worst["messages"],
                "batched bound": table["messages"].value,
                "batched work": batched_worst["work"],
                "work bound": table["work"].value,
                "completed": plain.all_completed and batched.all_completed,
                "ok": _verified(plain, batched) and batched_worst["messages"] < plain_msgs,
            }
        )
    return ExperimentResult(
        exp_id="E4",
        title="Protocol C batched reporting (Corollary 3.9)",
        claim="reporting every n/t units removes the n-term: O(t log t) messages, O(n + t) work",
        columns=[
            "t", "n", "plain msgs", "batched msgs", "batched bound",
            "batched work", "work bound", "completed", "ok",
        ],
        rows=rows,
        notes="n >> t so the n-term dominates plain Protocol C's message count.",
    )


# =====================================================================
# E5 / E6 / E7 - Theorem 4.1 (Protocol D)
# =====================================================================


def experiment_e5() -> ExperimentResult:
    t, n = 16, 256
    rows = []
    for f in [0, 1, 2, 4, 6, 8]:
        # Kill f processes, staggered across their work shares.
        kills = [(pid, 1 + (pid % 3)) for pid in range(1, f + 1)]
        results = _sweep("D", n, t, [_staggered(kills) if f else None], [3])
        metrics = results.results[0].metrics
        table = theorem_bounds("D", n, t, failures=metrics.crashes)
        rows.append(
            {
                "f": f,
                "work": metrics.work_total,
                "work bound": table["work"].value,
                "messages": metrics.messages_total,
                "msg bound": table["messages"].value,
                "rounds": metrics.retire_round + 1,
                "round bound": table["rounds"].value,
                "completed": results.all_completed,
                "ok": _verified(results),
            }
        )
    return ExperimentResult(
        exp_id="E5",
        title=f"Protocol D vs failure count (Theorem 4.1.1), n={n}, t={t}",
        claim="work <= 2n, messages <= (4f+2) t^2, retired by (f+1)n/t + 4f + 2",
        columns=[
            "f", "work", "work bound", "messages", "msg bound",
            "rounds", "round bound", "completed", "ok",
        ],
        rows=rows,
        notes="Kills staggered inside work phases so every agreement phase discovers failures.",
    )


def experiment_e6() -> ExperimentResult:
    t, n = 16, 256
    f = t // 2 + 2  # more than half die in the first phase -> reversion
    results = _sweep("D", n, t, [_staggered((pid, 1) for pid in range(f))], [5])
    metrics = results.results[0].metrics
    reverted = protocol_d_reverted(metrics)
    table = theorem_bounds("D", n, t, failures=metrics.crashes, reverted=reverted)
    rows = [
        {
            "f": f,
            "reverted": reverted,
            "work": metrics.work_total,
            "work bound": table["work"].value,
            "messages": metrics.messages_total,
            "msg bound": table["messages"].value,
            "rounds": metrics.retire_round + 1,
            "completed": results.all_completed,
            "ok": _verified(results) and reverted,
        }
    ]
    return ExperimentResult(
        exp_id="E6",
        title=f"Protocol D reversion path (Theorem 4.1.2), n={n}, t={t}",
        claim="after >half failures in a phase: work <= 4n, messages <= (4f+2)t^2 + 9 t sqrt(t)/(2 sqrt 2)",
        columns=[
            "f", "reverted", "work", "work bound", "messages", "msg bound",
            "rounds", "completed", "ok",
        ],
        rows=rows,
        notes="Reversion detected by the presence of Protocol A checkpoint traffic.",
    )


def experiment_e7() -> ExperimentResult:
    t, n = 16, 256
    cases = [
        ("f = 0", None, 1, {
            "work": Bound("n", n),
            "rounds": Bound("n/t + 2", n // t + 2, offset=1),
            "messages": Bound("2t^2", 2 * t * t),
        }),
        ("f = 1", _staggered([(2, 1)]), 2, {
            "work": Bound("n + n/t", n + n // t),
            "rounds": Bound(
                "n/t + ceil(n/(t(t-1))) + 6",
                n // t + math.ceil(n / (t * (t - 1))) + 6,
                offset=1,
            ),
            "messages": Bound("5t^2", 5 * t * t),
        }),
    ]
    rows = []
    for case, adversary, seed, claims in cases:
        results = _sweep("D", n, t, [adversary], [seed])
        measures = results.results[0].metrics.measures()
        ok = _verified(results) and all(
            claim.holds_for(measures[name]) for name, claim in claims.items()
        )
        if adversary is None:  # the failure-free work and time are exact
            ok = ok and all(
                claims[name].measured(measures[name]) == claims[name].value
                for name in ("work", "rounds")
            )
        rows.append(
            {
                "case": case,
                "work": measures["work"],
                "work claim": claims["work"].value,
                "rounds": measures["rounds"] + 1,
                "round claim": claims["rounds"].value,
                "messages": measures["messages"],
                "msg claim": claims["messages"].value,
                "ok": ok,
            }
        )
    return ExperimentResult(
        exp_id="E7",
        title=f"Protocol D common cases (Section 4 text), n={n}, t={t}",
        claim="f=0: exactly n work, n/t+2 rounds, <= 2t^2 msgs; f=1: <= n + n/t work, <= n/t + ceil(n/(t(t-1))) + 6 rounds, <= 5t^2 msgs",
        columns=[
            "case", "work", "work claim", "rounds", "round claim",
            "messages", "msg claim", "ok",
        ],
        rows=rows,
    )


# =====================================================================
# E8 - the implicit Section 1 comparison table
# =====================================================================


def experiment_e8() -> ExperimentResult:
    t, n = 25, 500
    adversaries = [
        None,
        f"random:{t // 2},max_action_index=20",
        f"kill-active:{t - 1},actions_before_kill=2",
    ]
    sweeps = {
        protocol: _sweep(protocol, n, t, adversaries, range(4), **options)
        for protocol, options in [
            ("replicate", {}),
            ("naive", {"interval": 1}),
            ("A", {}),
            ("B", {}),
            ("C", {}),
            ("D", {}),
        ]
    }
    worsts = {protocol: results.worst() for protocol, results in sweeps.items()}
    effort = {protocol: worst["effort"] for protocol, worst in worsts.items()}
    shape_ok = (
        effort["A"] < effort["replicate"]
        and effort["B"] < effort["replicate"]
        and effort["C"] < effort["naive"]
        and effort["C"] < effort["replicate"]
    )
    rows = []
    for protocol, results in sweeps.items():
        worst = worsts[protocol]
        rows.append(
            {
                "protocol": protocol,
                "work": worst["work"],
                "messages": worst["messages"],
                "effort": worst["effort"],
                "rounds": float(worst["rounds"]),
                "completed": results.all_completed,
                "ok": _verified(results) and shape_ok,
            }
        )
    return ExperimentResult(
        exp_id="E8",
        title=f"Section 1 comparison: baselines vs Protocols A-D (n={n}, t={t})",
        claim="straw-men cost Theta(tn) effort; A/B cost O(n + t sqrt t); C costs O(n + t log t); D trades messages for time",
        columns=["protocol", "work", "messages", "effort", "rounds", "completed", "ok"],
        rows=rows,
        notes="Worst case over {none, random-t/2, kill-active} x seeds.",
    )


# =====================================================================
# E9 - Section 2 motivation: single-level checkpoint frequency ablation
# =====================================================================


def _checkpoint_row(protocol, n, t, label, interval="-"):
    """One scheme against the worst-case checkpoint killer, judged
    against Theorem 2.3's work and message bounds."""
    table = theorem_bounds("A", n, t)
    options = {} if protocol == "A" else {"interval": interval}
    results = _sweep(
        protocol, n, t, [f"kill-before-checkpoint:{t - 1}"], **options
    )
    worst = results.worst()
    return {
        "scheme": label,
        "t": t,
        "interval": interval,
        "work": worst["work"],
        "messages": worst["messages"],
        "effort": worst["effort"],
        "work<=3n'": table["work"].holds_for(worst["work"]),
        "msgs<=9t^1.5": table["messages"].holds_for(worst["messages"]),
        "ok": _verified(results),
    }


def experiment_e9() -> ExperimentResult:
    """Section 2's motivating tension, against the worst-case adversary
    (kill the active process just before each checkpoint, losing a full
    interval of work every time).

    At moderate ``t`` the theorem's loose constants leave a numeric
    window where a mid-range interval meets both concrete bounds, so the
    headline assertions are: (a) the extremes fail their respective
    bounds, (b) Protocol A's two-level scheme meets both *and* beats the
    best single-level interval on effort.  At ``t = 361`` the window
    provably closes even numerically - adjacent intervals straddle the
    work/message constraint boundary and every interval fails at least
    one bound.
    """
    t, n = 36, 1296
    rows = [
        _checkpoint_row("naive", n, t, f"naive t={t}", interval)
        for interval in [1, 6, 18, 36, 72, 216, n]
    ]
    rows.append(_checkpoint_row("A", n, t, "A (2-level)"))
    # Intervals ascend: the densest naive row must blow the message bound,
    # the sparsest the work bound, and A must beat every one on effort.
    dense, *_, sparse, a_row = rows
    shape_ok = (
        not dense["msgs<=9t^1.5"]
        and not sparse["work<=3n'"]
        and a_row["effort"] < min(row["effort"] for row in rows[:-1])
    )
    for row in rows:
        row["ok"] = row["ok"] and shape_ok
    # The large-t instance where no interval can meet both bounds:
    # intervals 7 and 8 straddle the constraint crossover.
    big_t, big_n = 361, 1296
    for interval in [1, 7, 8, big_n // 2]:
        row = _checkpoint_row("naive", big_n, big_t, f"naive t={big_t}", interval)
        row["ok"] = row["ok"] and not (row["work<=3n'"] and row["msgs<=9t^1.5"])
        rows.append(row)
    return ExperimentResult(
        exp_id="E9",
        title="Checkpoint-frequency ablation (Section 2 motivation)",
        claim=(
            "single-level checkpointing cannot combine O(n + t) work with "
            "O(t sqrt t) messages once t is large (needs k >= ~t/2 checkpoints "
            "for the work bound but k <= ~sqrt(t)-scale for the message bound); "
            "Protocol A's two-level scheme achieves both"
        ),
        columns=[
            "scheme", "t", "interval", "work", "messages", "effort",
            "work<=3n'", "msgs<=9t^1.5", "ok",
        ],
        rows=rows,
        notes=(
            "Adversary: kill the active process on its first broadcast attempt "
            "after each takeover (a full interval of work is lost per crash). "
            "At t=361 every interval fails at least one bound - the paper's "
            "asymptotic tension made concrete."
        ),
    )


# =====================================================================
# E10 - Section 5: Byzantine agreement
# =====================================================================


def experiment_e10() -> ExperimentResult:
    rows = []
    for n_system, t in [(16, 5), (32, 7), (64, 7)]:
        for protocol in ["A", "B", "C"]:
            worst_msgs = 0
            all_agree = True
            all_valid = True
            for seed in range(6):
                ba = ByzantineAgreement(n_system, t, protocol=protocol)
                adversary = RandomCrashes(
                    t, max_action_index=12, victims=list(range(t + 1))
                )
                outcome = ba.run(7, adversary=adversary, seed=seed)
                worst_msgs = max(worst_msgs, outcome.metrics.messages_total)
                all_agree = all_agree and outcome.agreement
                all_valid = all_valid and outcome.valid_for(7)
            mb = byzantine_messages(n_system, t, protocol)
            rows.append(
                {
                    "n": n_system,
                    "t": t,
                    "protocol": protocol,
                    "messages": worst_msgs,
                    "msg bound": mb.value,
                    "agreement": all_agree,
                    "validity": all_valid,
                    "ok": all_agree and all_valid and mb.holds_for(worst_msgs),
                }
            )
    return ExperimentResult(
        exp_id="E10",
        title="Byzantine agreement via work protocols (Section 5)",
        claim=(
            "via B: O(n + t sqrt t) messages in O(n) rounds (constructive Bracha "
            "bound); via C: O(n + t log t) messages; agreement+validity always"
        ),
        columns=["n", "t", "protocol", "messages", "msg bound", "agreement", "validity", "ok"],
        rows=rows,
        notes="Adversary crashes up to t of the t+1 senders at random points, including mid-broadcast.",
    )


# =====================================================================
# E11 - asynchronous Protocol A with failure detection
# =====================================================================


def experiment_e11() -> ExperimentResult:
    rows = []
    for t, n in [(16, 128), (36, 288)]:
        sync = _sweep("A", n, t, [f"random:{t // 2},max_action_index=25"], range(6))
        crash_times = {pid: 3.0 + 9.0 * pid for pid in range(1, t // 2 + 1)}
        scenario = Scenario(protocol="A-async", n=n, t=t, crash_times=crash_times)
        async_results = Sweep(scenario, seeds=range(6)).run()
        sync_worst, async_worst = sync.worst(), async_results.worst()
        table = theorem_bounds("A-async", n, t)  # Theorem 2.3's effort profile
        rows.append(
            {
                "t": t,
                "n": n,
                "async work": async_worst["work"],
                "async msgs": async_worst["messages"],
                "sync work": sync_worst["work"],
                "sync msgs": sync_worst["messages"],
                "work bound": table["work"].value,
                "msg bound": table["messages"].value,
                "completed": async_results.all_completed,
                "ok": _verified(sync, async_results),
            }
        )
    return ExperimentResult(
        exp_id="E11",
        title="Asynchronous Protocol A with failure detection (Section 2.1 remark)",
        claim="the same DoWork under a sound+complete failure detector keeps Theorem 2.3's effort profile without synchrony",
        columns=[
            "t", "n", "async work", "async msgs", "sync work", "sync msgs",
            "work bound", "msg bound", "completed", "ok",
        ],
        rows=rows,
    )


# =====================================================================
# E12 - reversion-threshold ablation (Section 4 remark)
# =====================================================================


def experiment_e12() -> ExperimentResult:
    t, n = 16, 256
    f = t // 2 + 1
    adversary = _staggered((pid, 1) for pid in range(f))
    rows = []
    for threshold in [0.25, 0.5, 0.75]:
        results = _sweep("D", n, t, [adversary], [4], revert_threshold=threshold)
        metrics = results.results[0].metrics
        rows.append(
            {
                "threshold": threshold,
                "reverted": protocol_d_reverted(metrics),
                "work": metrics.work_total,
                "messages": metrics.messages_total,
                "rounds": metrics.retire_round + 1,
                "completed": results.all_completed,
                "ok": _verified(results),
            }
        )
    # Thresholds ascend, so "more eagerly" means the flags never fall.
    reverted_flags = [row["reverted"] for row in rows]
    shape_ok = reverted_flags == sorted(reverted_flags)
    for row in rows:
        row["ok"] = row["ok"] and shape_ok
    return ExperimentResult(
        exp_id="E12",
        title=f"Protocol D reversion-threshold ablation (n={n}, t={t}, {f} first-phase kills)",
        claim=(
            "the paper's 'half' factor is arbitrary: threshold alpha keeps phased work "
            "<= n/(1-alpha) but reverts more eagerly as alpha grows"
        ),
        columns=["threshold", "reverted", "work", "messages", "rounds", "completed", "ok"],
        rows=rows,
    )


# =====================================================================
# E13 - simulator scaling (fast-forward)
# =====================================================================


def experiment_e13() -> ExperimentResult:
    rows = []
    for protocol, t, n in [("A", 64, 4096), ("B", 64, 4096), ("C", 16, 64), ("D", 64, 4096)]:
        start = time.perf_counter()
        results = _sweep(protocol, n, t, [f"random:{t // 2},max_action_index=25"], [1])
        elapsed = time.perf_counter() - start
        retire_round = results.results[0].metrics.retire_round
        rows.append(
            {
                "protocol": protocol,
                "t": t,
                "n": n,
                "virtual rounds": float(retire_round),
                "wall seconds": round(elapsed, 3),
                "rounds/sec": float("inf") if elapsed == 0 else float(retire_round) / elapsed,
                "completed": results.all_completed,
                "ok": _verified(results),
            }
        )
    return ExperimentResult(
        exp_id="E13",
        title="Simulator scaling: deadline fast-forward",
        claim=(
            "wall time scales with actions, not rounds: Protocol C's 2^(n+t)-round "
            "deadline stretches are skipped in O(1)"
        ),
        columns=["protocol", "t", "n", "virtual rounds", "wall seconds", "rounds/sec", "completed", "ok"],
        rows=rows,
    )


# =====================================================================
# E17 - message-growth exponents (the complexity separation as a figure)
# =====================================================================


def experiment_e17() -> ExperimentResult:
    """Fit message counts to ``t^p`` across a doubling-ish sweep of t
    (with n = 4t) and check the paper's ordering of growth rates:
    Protocol C (t log t) < Protocols A/B (t sqrt t) < Protocol D (t^2
    per discovered failure, f growing with t here).  Every run stays
    within its own protocol's bounds; the fitted exponents carry the
    asymptotic claim."""
    from repro.analysis.scaling import fit_power_law

    ts = [9, 16, 36, 64]
    rows = []
    for protocol in ["A", "B", "C", "D"]:
        sweeps = [
            _sweep(
                protocol,
                4 * t,
                t,
                [f"kill-active:{t - 1},actions_before_kill=2", f"random:{t // 2},max_action_index=20"],
                range(2),
            )
            for t in ts
        ]
        measured = [float(results.worst()["messages"]) for results in sweeps]
        fit = fit_power_law([float(t) for t in ts], measured)
        row = {"protocol": protocol, "fit p (msgs ~ t^p)": round(fit.exponent, 2)}
        for t, value in zip(ts, measured):
            row[f"t={t}"] = value
        row["ok"] = _verified(*sweeps)
        rows.append(row)
    exponents = {row["protocol"]: row["fit p (msgs ~ t^p)"] for row in rows}
    shape_ok = (
        exponents["C"] + 0.3 < exponents["A"]
        and exponents["C"] + 0.3 < exponents["B"]
        and exponents["A"] + 0.3 < exponents["D"]
        and exponents["B"] + 0.3 < exponents["D"]
    )
    for row in rows:
        row["ok"] = row["ok"] and shape_ok
    return ExperimentResult(
        exp_id="E17",
        title="Message-growth exponents across protocols (n = 4t)",
        claim=(
            "growth ordering of message complexity: C (t log t) < A, B (t sqrt t) "
            "< D (failure-dependent t^2)"
        ),
        columns=["protocol"] + [f"t={t}" for t in ts] + ["fit p (msgs ~ t^p)", "ok"],
        rows=rows,
        notes=(
            "Worst case over kill-active and random-crash adversaries; power law "
            "fitted in log-log space.  Absolute counts also stay below each "
            "protocol's theorem bound pointwise."
        ),
    )


# =====================================================================
# E16 - Section 1.1: effort vs available processor steps
# =====================================================================


def experiment_e16() -> ExperimentResult:
    """The paper's measure-choice argument made measurable.

    Section 1.1 contrasts the paper's *effort* (charge only actual work
    and messages) with Kanellakis-Shvartsman's *available processor
    steps* (charge every non-faulty process every round).  The sequential
    protocols are effort-frugal but keep t-1 processes idle for the whole
    run, so their APS explodes (Protocol C's astronomically, thanks to
    exponential deadlines); Protocol D, whose phases keep everyone busy,
    is the only one whose APS tracks its effort.  De Prisco-Mayer-Yung
    [8] later showed n^2 APS is unavoidable in message passing for t~n.
    """
    t, n = 16, 256
    sweeps = {
        protocol: _sweep(protocol, n, t, [f"random:{t // 2},max_action_index=20"], [2])
        for protocol in ["A", "B", "C", "D"]
    }
    aps = {
        protocol: float(results.results[0].metrics.available_processor_steps)
        for protocol, results in sweeps.items()
    }
    shape_ok = aps["D"] < aps["A"] and aps["D"] < aps["C"] and aps["C"] > 10 * aps["D"]
    rows = []
    for protocol, results in sweeps.items():
        metrics = results.results[0].metrics
        rows.append(
            {
                "protocol": protocol,
                "effort": metrics.effort,
                "APS": aps[protocol],
                "APS / effort": aps[protocol] / max(1, metrics.effort),
                "rounds": float(metrics.retire_round),
                "completed": results.all_completed,
                "ok": _verified(results) and shape_ok,
            }
        )
    return ExperimentResult(
        exp_id="E16",
        title=f"Effort vs available processor steps (Section 1.1), n={n}, t={t}",
        claim=(
            "the sequential protocols are effort-optimal but idle-heavy: their "
            "available-processor-steps cost dwarfs their effort, while Protocol "
            "D's parallel phases keep APS within a small factor of effort"
        ),
        columns=["protocol", "effort", "APS", "APS / effort", "rounds", "completed", "ok"],
        rows=rows,
        notes="APS = sum over processes of (retirement round + 1), the [KS92] measure.",
    )


# =====================================================================
# E15 - Section 3 motivation: the naive knowledge-spreader's Theta(t^2)
# =====================================================================


def experiment_e15() -> ExperimentResult:
    from repro.analysis.scaling import fit_power_law

    ts = [8, 16, 32, 64]
    naive_work: List[float] = []
    c_work: List[float] = []
    rows = []
    for t in ts:
        n = 2 * t
        adversary = {
            "kind": "cascade",
            "lead_units": t - 1,
            "redo_units": t // 2,
            "initial_dead": list(range(t // 2 + 1, t)),
        }
        naive = _sweep("C-naive", n, t, [adversary])
        full_c = _sweep("C", n, t, [adversary])
        naive_worst, c_worst = naive.worst(), full_c.worst()
        naive_work.append(float(naive_worst["work"]))
        c_work.append(float(c_worst["work"]))
        rows.append(
            {
                "t": t,
                "n": n,
                "naive work": naive_worst["work"],
                "naive msgs": naive_worst["messages"],
                "C work": c_worst["work"],
                "C msgs": c_worst["messages"],
                "C work bound": theorem_bounds("C", n, t)["work"].value,
                "completed": naive.all_completed and full_c.all_completed,
                "ok": _verified(naive, full_c),
            }
        )
    naive_fit = fit_power_law([float(t) for t in ts], naive_work)
    c_fit = fit_power_law([float(t) for t in ts], c_work)
    rows.append(
        {
            "t": "fit p (work ~ t^p)",
            "n": "-",
            "naive work": round(naive_fit.exponent, 2),
            "naive msgs": "-",
            "C work": round(c_fit.exponent, 2),
            "C msgs": "-",
            "C work bound": "-",
            "completed": True,
            "ok": naive_fit.exponent > 1.6 and c_fit.exponent < 1.3,
        }
    )
    return ExperimentResult(
        exp_id="E15",
        title="Naive knowledge-spreading vs Protocol C (Section 3 motivation)",
        claim=(
            "without fault detection the naive most-knowledgeable-takes-over "
            "algorithm does O(n + t^2) work and messages on the cascade schedule; "
            "Protocol C's fault detection keeps it at n + 2t work"
        ),
        columns=[
            "t", "n", "naive work", "naive msgs", "C work", "C msgs",
            "C work bound", "completed", "ok",
        ],
        rows=rows,
        notes=(
            "Cascade: process 0 performs t-1 units then crashes unreported; the "
            "top half of the pid space is dead from the start; each taker-over "
            "is killed after redoing t/2 units.  The final row fits work ~ t^p: "
            "the naive algorithm's exponent is ~2, Protocol C's ~1."
        ),
    )


# =====================================================================
# E14 - the Conclusions' weighted-effort remark
# =====================================================================


def experiment_e14() -> ExperimentResult:
    from repro.analysis.effort import EffortModel, cheapest

    t, n = 25, 500
    adversaries = [
        f"random:{t // 2},max_action_index=20",
        f"kill-active:{t - 1},actions_before_kill=2",
    ]
    sweeps = {
        protocol: _sweep(protocol, n, t, adversaries, range(3))
        for protocol in ["replicate", "A", "B", "C", "D"]
    }
    profiles = {}
    for protocol, results in sweeps.items():
        worst = results.worst()
        profiles[protocol] = (worst["work"], worst["messages"])
    rows = []
    for weight in [0.0, 0.1, 1.0, 10.0, 100.0]:
        model = EffortModel(work_weight=1.0, message_weight=weight)
        row = {"msg weight": weight, "winner": cheapest(profiles, model)}
        for name, (work, messages) in sorted(profiles.items()):
            row[name] = model.effort_of(work, messages)
        rows.append(row)
    winners = {row["winner"] for row in rows}
    # Weights ascend: the heaviest message weight is the last row.
    shape_ok = len(winners) >= 2 and rows[-1]["winner"] == "replicate"
    ok = _verified(*sweeps.values()) and shape_ok
    for row in rows:
        row["ok"] = ok
    return ExperimentResult(
        exp_id="E14",
        title=f"Weighted effort: who is optimal depends on the cost model (n={n}, t={t})",
        claim=(
            "the Conclusions' remark: weighting messages differently from work "
            "changes which algorithm is optimal (free messages favour parallel D; "
            "expensive messages favour silent replication; in between, C then A/B)"
        ),
        columns=["msg weight", "winner", "A", "B", "C", "D", "replicate", "ok"],
        rows=rows,
        notes="Worst-case (work, messages) profiles per protocol; weighted effort = work + w * messages.",
    )


REGISTRY: Dict[str, Callable[[], ExperimentResult]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "E13": experiment_e13,
    "E14": experiment_e14,
    "E15": experiment_e15,
    "E16": experiment_e16,
    "E17": experiment_e17,
}


def run_experiment(exp_id: str) -> ExperimentResult:
    return REGISTRY[exp_id]()


def run_all() -> List[ExperimentResult]:
    return [runner() for runner in REGISTRY.values()]
