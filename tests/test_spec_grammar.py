"""Metamorphic properties of the one spec grammar (``repro.sim.specs``).

For every family and every kind in its table: normalizing is idempotent,
and the string spelling, a loosely typed dict spelling and the canonical
dict of one spec normalize equal and give equal ``Scenario.cache_key()``s.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.sim.adversary import ADVERSARY, normalize_adversary_spec
from repro.sim.async_engine import DELAY, normalize_delay_spec
from repro.sim.congestion import CONGESTION, normalize_congestion_spec
from repro.sim.crashes import REPAIR, CrashPhase, normalize_repair_spec
from repro.sim.specs import SCHEDULE, normalize_schedule_spec

FAMILIES = {
    "adversary": (ADVERSARY, normalize_adversary_spec),
    "delay": (DELAY, normalize_delay_spec),
    "congestion": (CONGESTION, normalize_congestion_spec),
    "schedule": (SCHEDULE, normalize_schedule_spec),
    "repair": (REPAIR, normalize_repair_spec),
}


def scenario_for(family: str, spec) -> Scenario:
    """A scenario carrying ``spec`` where its family plugs in."""
    if family == "adversary":
        return Scenario("D", 64, 8, adversary=spec)
    if family == "delay":
        return Scenario("A-async", 32, 4, engine="async", delay=spec)
    if family == "congestion":
        return Scenario("D", 32, 4, congestion=spec)
    if family == "schedule":
        return Scenario("D-dynamic", 12, 4, options={"schedule": spec})
    return Scenario(
        "D-recovery", 48, 6,
        adversary={"kind": "crash-recover", "count": 2, "repair_delay": spec},
    )


# ---- canonical parameters, per family and kind ------------------------

counts = st.integers(0, 40)
positive = st.integers(1, 40)
pid_lists = st.lists(st.integers(0, 15), min_size=1, max_size=4)
phases = st.sampled_from([phase.value for phase in CrashPhase])
repairs = st.one_of(
    positive,
    st.tuples(positive, positive).map(
        lambda b: {"kind": "uniform", "low": min(b), "high": max(b)}
    ),
    positive.map(lambda mean: {"kind": "exp", "mean": float(mean)}),
)
delays = st.integers(0, 16).map(lambda quarters: quarters / 4)
pairs = st.lists(st.tuples(st.integers(0, 9), positive).map(list), min_size=1, max_size=4)
simple_parts = st.sampled_from(
    [None, {"kind": "random", "count": 2}, {"kind": "kill-active", "budget": 1}]
)

#: kind -> (required params, optional params); every kind of every
#: family must appear (``test_every_kind_has_a_strategy``).
PARAMS = {
    "adversary": {
        "random": (
            {"count": counts},
            {"max_action_index": positive, "victims": pid_lists,
             "phases": st.lists(phases, min_size=1, max_size=3)},
        ),
        "crash-recover": (
            {"count": counts},
            {"repair_delay": repairs, "max_action_index": positive,
             "victims": pid_lists, "phases": st.lists(phases, min_size=1, max_size=3),
             "repeat": st.booleans()},
        ),
        "rack": (
            {"racks": counts},
            {"group_size": positive, "groups": pid_lists.map(lambda g: [g]),
             "max_trigger": positive, "phase": phases, "recover_after": repairs},
        ),
        "cascade-neighbours": (
            {"origins": pid_lists},
            {"p": st.integers(0, 4).map(lambda q: q / 4), "hop_delay": positive,
             "budget": counts, "phase": phases, "recover_after": repairs},
        ),
        "kill-active": ({"budget": counts}, {"actions_before_kill": positive, "phase": phases}),
        "kill-before-checkpoint": ({"budget": counts}, {}),
        "cascade": (
            {"lead_units": positive},
            {"redo_units": positive, "initial_dead": pid_lists, "budget": counts},
        ),
        "staggered": ({"kills": pairs}, {}),
        "crash-mid-broadcast": ({"victims": pid_lists}, {"min_batch": positive}),
        "fixed-schedule": (
            {"directives": st.lists(
                st.fixed_dictionaries(
                    {"pid": st.integers(0, 7)},
                    optional={"at_round": counts, "phase": phases,
                              "keep": pid_lists, "recover_after": positive},
                ),
                max_size=3,
            )},
            {},
        ),
        "compose": ({"parts": st.lists(simple_parts, min_size=1, max_size=3)}, {}),
    },
    "delay": {
        "uniform": ({}, {"low": delays, "high": delays.map(lambda d: d + 4)}),
        "fixed": ({}, {"delay": delays}),
    },
    "congestion": {
        "budget": ({"send": positive}, {"receive": positive}),
    },
    "schedule": {
        "uniform": ({}, {"every": positive, "start": counts}),
        "arrivals": ({"batches": pairs}, {}),
        "explicit": (
            {"arrivals": st.lists(
                st.tuples(counts, st.integers(0, 3), positive).map(list),
                min_size=1, max_size=4,
            )},
            {},
        ),
    },
    "repair": {
        "uniform": ({"low": st.just(2), "high": st.integers(2, 9)}, {}),
        "exp": ({"mean": positive.map(float)}, {}),
    },
}


# ---- spellings --------------------------------------------------------


def repair_string(spec) -> str:
    if isinstance(spec, int):
        return str(spec)
    if spec["kind"] == "uniform":
        return f"uniform:{spec['low']}-{spec['high']}"
    return f"exp:mean={spec['mean']}"


def value_string(name: str, value) -> str:
    """One canonical value in the string grammar."""
    if name in ("repair_delay", "recover_after"):
        return repair_string(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):  # a crash phase
        return value.upper()
    if isinstance(value, list) and value and isinstance(value[0], list):
        if name == "groups":  # one group
            return "+".join(map(str, value[0]))
        return "+".join("x".join(map(str, item)) for item in value)
    if isinstance(value, list):
        return "+".join(value_string(name, item) for item in value)
    return str(value)


def string_spelling(family: str, spec):
    """The ``KIND:name=value,...`` spelling, or ``None`` for a kind with
    no string form."""
    if not isinstance(spec, dict):
        return str(spec)
    kind = FAMILIES[family][0].kinds[spec["kind"]]
    if kind.positional is None:
        return None
    params = {name: value for name, value in spec.items() if name != "kind"}
    if kind.positional == ("*batches",):
        return f"{kind.name}:" + ",".join(f"{r}x{c}" for r, c in params["batches"])
    args = []
    for name in kind.positional:  # leading positionals, while given
        if name not in params:
            break
        args.append(value_string(name, params.pop(name)))
    args += [
        f"{name.replace('_', '-')}={value_string(name, value)}"
        for name, value in params.items()
    ]
    return f"{kind.name.upper()}:" + ",".join(args)


def loose_value(name: str, value):
    """One canonical value spelled the loose way a hand-written dict
    might: numbers as strings, a one-pid list as the bare pid, phases
    in upper case, tuples as ``AxB`` strings, nested specs as strings."""
    if name in ("repair_delay", "recover_after"):
        return repair_string(value).replace("-", "..")
    if name == "directives":
        return [{k: loose_value(k, v) for k, v in item.items()} for item in value]
    if name == "parts":
        return [string_spelling("adversary", part) or "none" for part in value]
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):
        return value.upper().replace("_", "-")
    if isinstance(value, list) and value and isinstance(value[0], list):
        if name == "groups":
            return value[0]
        return ["x".join(map(str, item)) for item in value]
    if isinstance(value, list):
        return value[0] if len(value) == 1 else [str(v) for v in value]
    return str(value)


def loose_spelling(spec):
    if not isinstance(spec, dict):
        return float(spec)
    return {
        "kind": spec["kind"].upper().replace("-", "_"),
        **{name: loose_value(name, value) for name, value in spec.items() if name != "kind"},
    }


@st.composite
def cases(draw):
    family = draw(st.sampled_from(sorted(PARAMS)))
    if family == "repair" and draw(st.booleans()):
        spec = draw(positive)
    else:
        kind = draw(st.sampled_from(sorted(PARAMS[family])))
        required, optional = PARAMS[family][kind]
        spec = {"kind": kind, **draw(st.fixed_dictionaries(required, optional=optional))}
    spellings = [spec, loose_spelling(spec), string_spelling(family, spec)]
    return family, tuple(s for s in spellings if s is not None)


# ---- the properties ---------------------------------------------------


def test_every_kind_has_a_strategy():
    for family, (table, _) in FAMILIES.items():
        assert sorted(PARAMS[family]) == sorted(table.kinds), family


@settings(max_examples=300, deadline=None)
@given(cases())
@example(("adversary", ("random:5", {"kind": "random", "count": "5"})))
@example(("adversary", (
    "kill-active:3,phase=after-work",
    {"kind": "kill-active", "budget": 3, "phase": "AFTER_WORK"},
)))
@example(("adversary", (
    "random:4,victims=1",
    {"kind": "random", "count": 4, "victims": 1},
    {"kind": "random", "count": 4, "victims": [1]},
)))
@example(("adversary", (
    "crash-recover:2,repeat=false",
    {"kind": "crash-recover", "count": 2, "repeat": "false"},
    {"kind": "crash-recover", "count": 2, "repeat": False},
)))
def test_spellings_normalize_equal_idempotently_and_share_a_cache_key(case):
    family, spellings = case
    normalize = FAMILIES[family][1]
    canonical = [normalize(spelling) for spelling in spellings]
    for form in canonical:
        assert normalize(form) == form
    assert all(form == canonical[0] for form in canonical), spellings
    keys = {scenario_for(family, spelling).cache_key() for spelling in spellings}
    assert len(keys) == 1, spellings
