"""The one spec grammar: adversary, delay-model, congestion, schedule
and repair specs all parse, validate and coerce here.

Every spec family shares one surface syntax::

    KIND                          e.g.  "kill-active"
    KIND:ARG,ARG,...              e.g.  "random:5,max_action_index=25"
    {"kind": KIND, <param>: ...}  e.g.  {"kind": "random", "count": 5}

where each ``ARG`` is positional or ``name=value`` (``-`` in a name
reads as ``_``).  A family (:class:`SpecFamily`) is a table of kinds
(:class:`SpecKind`); a kind names its parameters, which of them bind
positionally, one *coercer* per parameter, the required ones, and the
factory that builds the live object.  :meth:`SpecFamily.normalize` is
the one function that turns any spelling into the canonical dict:

* kind names are case-insensitive, and ``_`` in them reads as ``-``;
* every value goes through its parameter's coercer, so ``"5"`` and
  ``5`` are one count, ``1`` and ``[1]`` one pid list, ``"AFTER_WORK"``
  and ``after-work`` one crash phase, and bad values fail here, naming
  the value;
* a parameter set to ``None`` counts as left out;
* parameters come out in the kind's table order, and a default the spec
  left out is never added (the factories own the defaults).

So two spellings of one spec normalize equal, and the canonical dict is
what cache keys and campaign digests hash.  :meth:`SpecFamily.build`
passes the canonical parameters to the kind's factory as keyword
arguments.

String-form values are read by their parameter's coercer: ``a+b+c``
lists, ``a..b`` inclusive pid ranges, ``AxB`` tuples (``0x2+3x1``) and
``true``/``false``.  A kind with two positional parameters also takes
them as one ``LO..HI`` or ``LO-HI`` range (``uniform:2-6``), a spelling
that survives inside an enclosing adversary string, whose commas
separate arguments.

Arrival schedules
-----------------

Dynamic-workload protocols (``D-dynamic``) are driven by an
:class:`~repro.core.protocol_d_dynamic.ArrivalSchedule` - work units
arrive at sites over time - so they take a *schedule spec* (the last
family, below) instead of assuming all ``n`` units are known at round
0:

``"uniform"`` / ``"uniform:every=3,start=0"``
    Unit ``u`` (1-based) arrives at site ``(u - 1) % t`` at round
    ``start + (u - 1) * every`` - the default when no spec is given.

``"arrivals:0x8,3x4"``
    Explicit arrival *batches*: each positional ``ROUNDxCOUNT`` pair
    drops ``COUNT`` units at round ``ROUND``.  Units are numbered
    sequentially across batches in the order written and land
    round-robin on sites.  The batch counts must sum to the scenario's
    ``n``.

``{"kind": "explicit", "arrivals": [[round, site, unit], ...]}``
    The fully general form (dict only); the unit set must be exactly
    ``1..n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

Coercer = Callable[..., Any]
"""``coerce(value, *, what) -> canonical value``, raising
:class:`ConfigurationError` that names ``what`` and the value.  A
family's ``normalize`` is itself a coercer, for nested specs."""


# =====================================================================
# Tokenizer
# =====================================================================


def split_spec_string(text: str) -> Tuple[str, List[str], Dict[str, str]]:
    """Split ``"kind:a,b=c"`` into ``("kind", ["a"], {"b": "c"})``.

    Values stay raw strings; the parameters' coercers read them.  Named
    argument names are normalised to underscores.
    """
    head, sep, rest = text.partition(":")
    kind = head.strip().lower()
    positional: List[str] = []
    named: Dict[str, str] = {}
    if sep:
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, _, value = part.partition("=")
                named[name.strip().replace("-", "_")] = value.strip()
            else:
                positional.append(part)
    return kind, positional, named


def _split_range(text: str) -> List[str]:
    """``"2..6"`` / ``"2-6"`` -> ``["2", "6"]``; anything else (a number
    such as ``-1`` or ``1e-3`` included) stays one value."""
    if ".." in text:
        return text.split("..", 1)
    try:
        float(text)
        return [text]
    except ValueError:
        pass
    head, sep, tail = text[1:].partition("-")  # text[0] may be a sign
    return [text[0] + head, tail] if sep else [text]


def bind_positionals(
    kind: str, names: Sequence[str], positional: List[str], *, what: str
) -> Dict[str, Any]:
    """Map positional raw values onto their parameter names.

    A last name spelled ``*name`` takes every remaining value as a list;
    two names also take one ``LO..HI`` / ``LO-HI`` range.
    """
    if names and names[-1].startswith("*"):
        head = len(names) - 1
        return {**dict(zip(names[:head], positional)), names[-1][1:]: positional[head:]}
    if len(names) == 2 and len(positional) == 1:
        positional = _split_range(positional[0])
    if len(positional) > len(names):
        raise ConfigurationError(
            f"{what} {kind!r} takes at most {len(names)} positional "
            f"argument(s) ({', '.join(names) or 'none'}); got extra "
            f"{positional[len(names)]!r}"
        )
    return dict(zip(names, positional))


# =====================================================================
# Coercers
# =====================================================================


def integer(minimum: Optional[int] = None) -> Coercer:
    """An int (an integral float or a numeric string too; bools are
    rejected), at least ``minimum``."""

    def coerce(value, *, what: str) -> int:
        try:
            if isinstance(value, bool):
                raise TypeError
            result = int(value)
            if isinstance(value, float) and value != result:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"{what} must be an integer, got {value!r}")
        if minimum is not None and result < minimum:
            raise ConfigurationError(f"{what} must be >= {minimum}, got {result}")
        return result

    return coerce


def number(
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    *,
    positive: bool = False,
) -> Coercer:
    """A finite float (bools rejected) in ``[minimum, maximum]``, and
    ``> 0`` when ``positive``."""

    def coerce(value, *, what: str) -> float:
        try:
            if isinstance(value, bool):
                raise TypeError
            result = float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{what} must be a number, got {value!r}")
        if not math.isfinite(result):
            raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
        if minimum is not None and result < minimum:
            raise ConfigurationError(f"{what} must be >= {minimum}, got {result!r}")
        if maximum is not None and result > maximum:
            raise ConfigurationError(f"{what} must be <= {maximum}, got {result!r}")
        if positive and result <= 0:
            raise ConfigurationError(f"{what} must be > 0, got {result!r}")
        return result

    return coerce


_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def boolean(value, *, what: str) -> bool:
    """A bool: ``true``/``false``, ``yes``/``no`` or ``1``/``0``."""
    if isinstance(value, bool):
        return value
    key = value.strip().lower() if isinstance(value, str) else str(value)
    if isinstance(value, (str, int)) and key in _BOOLEAN_WORDS:
        return _BOOLEAN_WORDS[key]
    raise ConfigurationError(f"{what} must be true or false, got {value!r}")


_PID = integer()


def pids(value, *, what: str) -> List[int]:
    """A pid list: one int, a list of ints, or a string of ``+``-joined
    ints and ``a..b`` inclusive ranges."""
    item = f"each pid in {what}"
    if not isinstance(value, str):
        values = value if isinstance(value, (list, tuple)) else [value]
        return [_PID(v, what=item) for v in values]
    result: List[int] = []
    for part in value.split("+"):
        low, dots, high = part.partition("..")
        if dots:
            result.extend(range(_PID(low, what=item), _PID(high, what=item) + 1))
        else:
            result.append(_PID(part, what=item))
    return result


def pid_groups(value, *, what: str) -> List[List[int]]:
    """A non-empty list of pid lists; one flat pid list (the string form
    ``0+1+2``) is a single group."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(group, (list, tuple)) for group in value
    ):
        value = [value]
    if not value:
        raise ConfigurationError(
            f"{what} must be a non-empty list of pid lists, got {value!r}"
        )
    return [pids(group, what=f"each group in {what}") for group in value]


def choice(enum) -> Coercer:
    """One member of ``enum``, canonically its value; its name or value
    in any case (``-`` for ``_``) or the member itself is accepted."""

    def coerce(value, *, what: str) -> str:
        key = value if isinstance(value, enum) else str(value).strip().lower().replace("-", "_")
        for member in enum:
            if key in (member, member.value, member.name.lower()):
                return member.value
        raise ConfigurationError(
            f"{what} must be one of {', '.join(m.value for m in enum)}, got {value!r}"
        )

    return coerce


def many(item: Coercer) -> Coercer:
    """A list of ``item`` values: a list, one value, or ``a+b`` in the
    string form."""

    def coerce(value, *, what: str) -> List[Any]:
        if isinstance(value, str):
            value = value.split("+")
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return [item(v, what=f"each of {what}") for v in value]

    return coerce


_TUPLE_NAMES = {2: "pair", 3: "triple"}


def tuples(*fields: Tuple[str, Optional[int]]) -> Coercer:
    """A non-empty list of int tuples with the given ``(name, minimum)``
    fields, e.g. ``[round, count]`` pairs.  In the string form fields
    join with ``x`` and tuples with ``+`` (``0x2+3x1``); one flat tuple
    (``[0, 2]``) is a list of one."""
    shape = f"[{', '.join(name for name, _ in fields)}] {_TUPLE_NAMES[len(fields)]}"
    spelling = "x".join(name.upper() for name, _ in fields)
    coercers = [(name, integer(minimum)) for name, minimum in fields]

    def coerce(value, *, what: str) -> List[List[int]]:
        if isinstance(value, str):
            value = value.split("+")
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(
                f"{what} must be a non-empty list of {shape}s, got {value!r}"
            )
        if len(value) == len(fields) and all(isinstance(v, int) for v in value):
            value = [value]
        result = []
        for raw in value:
            item = raw.split("x") if isinstance(raw, str) else raw
            if not isinstance(item, (list, tuple)) or len(item) != len(fields):
                raise ConfigurationError(
                    f"each item of {what} must be a {shape} (expected "
                    f"{spelling} in the string form), got {raw!r}"
                )
            result.append(
                [
                    coerce_field(v, what=f"{name} in {what}")
                    for (name, coerce_field), v in zip(coercers, item)
                ]
            )
        return result

    return coerce


def list_of(item: Coercer, *, non_empty: bool = False) -> Coercer:
    """A list of ``item`` values."""

    def coerce(value, *, what: str) -> List[Any]:
        if not isinstance(value, (list, tuple)) or (non_empty and not value):
            raise ConfigurationError(
                f"{what} must be a {'non-empty ' if non_empty else ''}list, "
                f"got {value!r}"
            )
        return [item(v, what=f"each item of {what}") for v in value]

    return coerce


def record(
    params: Dict[str, Coercer], required: Sequence[str] = (), *, label: str
) -> Coercer:
    """A kindless dict of named fields, checked like a kind's params."""

    def coerce(value, *, what: str) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise ConfigurationError(f"each {label} must be a dict, got {value!r}")
        return _coerce_params(value, params, required, label=f"{label} in {what}")

    return coerce


def ordered(
    low: str, high: str, *, defaults: Optional[Dict[str, float]] = None
) -> Callable[[Dict[str, Any], str], None]:
    """A kind check: ``params[low] <= params[high]``, a bound left out
    taking its factory default from ``defaults``."""

    defaults = defaults or {}

    def check(params: Dict[str, Any], label: str) -> None:
        bottom = params.get(low, defaults.get(low))
        top = params.get(high, defaults.get(high))
        if bottom > top:
            raise ConfigurationError(f"{label} needs {low} <= {high}, got [{bottom}, {top}]")

    return check


def _coerce_params(
    raw: Dict[str, Any],
    params: Dict[str, Coercer],
    required: Sequence[str],
    *,
    label: str,
    summary: str = "",
) -> Dict[str, Any]:
    """Reject unknown and missing names, then coerce each given value, in
    table order.  A ``None`` value counts as left out."""
    if not params.keys() >= raw.keys() or None in map(raw.get, required):
        unknown = sorted(raw.keys() - params.keys())
        problem = (
            f"unknown parameter(s) {unknown} for {label}"
            if unknown
            else f"{label} requires parameter(s) "
            f"{sorted(name for name in required if raw.get(name) is None)}"
        )
        hint = f" ({summary})" if summary else ""
        raise ConfigurationError(f"{problem}; accepted: {', '.join(params)}{hint}")
    return {
        name: coerce(raw[name], what=f"{name!r} for {label}")
        for name, coerce in params.items()
        if raw.get(name) is not None
    }


# =====================================================================
# Kinds and families
# =====================================================================


@dataclass(frozen=True)
class SpecKind:
    """One kind of a spec family.

    ``positional`` names the parameters that bind positionally in the
    string form (``None``: the kind has no string form); ``params`` maps
    every parameter, in canonical order, to its coercer; ``factory``
    takes the canonical parameters as keyword arguments; ``check``, if
    set, validates them together (``check(params, label)``).
    """

    name: str
    positional: Optional[Tuple[str, ...]]
    params: Dict[str, Coercer]
    required: Tuple[str, ...] = ()
    factory: Optional[Callable[..., Any]] = None
    summary: str = ""
    check: Optional[Callable[[Dict[str, Any], str], None]] = None


class SpecFamily:
    """A spec family: a name, its kinds, and how it treats the
    non-kinded inputs.

    * ``none_aliases``: kind names meaning "no spec" (normalize to
      ``None``); the first is the one listed, with ``none_summary``.
    * ``live``: the type of live objects, which :meth:`build` passes
      through and :meth:`normalize` serializes with their ``to_spec()``
      (or rejects, if they have none).
    * ``default``: the kind a ``None`` spec stands for (otherwise
      ``None`` normalizes and builds to ``None``).
    * ``scalar``: the coercer of a kindless value form (a repair time's
      fixed round count), used for any value that is not a dict or a
      ``KIND:...`` string.
    """

    def __init__(
        self,
        name: str,
        kinds: Sequence[SpecKind],
        *,
        none_aliases: Tuple[str, ...] = (),
        none_summary: str = "",
        live: Optional[type] = None,
        default: Optional[str] = None,
        scalar: Optional[Coercer] = None,
    ):
        self.name = name
        self.kinds = {kind.name: kind for kind in kinds}
        self.none_aliases = none_aliases
        self.none_summary = none_summary
        self.live = live
        self.default = default
        self.scalar = scalar

    def known_kinds(self) -> List[str]:
        """Every kind name, the listed none alias last."""
        return sorted(self.kinds) + list(self.none_aliases[:1])

    def _listing(self) -> str:
        return "known kinds: " + ", ".join(self.known_kinds())

    def info(self) -> List[Dict[str, Any]]:
        """One row per kind: summary, and positional, required and
        optional parameter names."""
        rows = [
            {
                "kind": kind.name,
                "summary": kind.summary,
                "positional": list(kind.positional or ()),
                "required": list(kind.required),
                "optional": [name for name in kind.params if name not in kind.required],
            }
            for _, kind in sorted(self.kinds.items())
        ]
        if self.none_aliases:
            rows.append(
                {
                    "kind": self.none_aliases[0],
                    "summary": self.none_summary,
                    "positional": [],
                    "required": [],
                    "optional": [],
                }
            )
        return rows

    def _kind(self, text, where: str) -> Optional[SpecKind]:
        if isinstance(text, str) and text in self.kinds:  # the canonical spelling
            return self.kinds[text]
        key = str(text).strip().lower().replace("_", "-")
        if key in self.none_aliases:
            return None
        if key not in self.kinds:
            raise ConfigurationError(
                f"unknown {self.name} kind {text!r}{where}; {self._listing()}"
            )
        return self.kinds[key]

    def normalize(self, spec, *, what: Optional[str] = None):
        """Canonicalise ``spec`` to ``None`` or a validated,
        JSON-compatible ``{"kind": ..., <param>: ...}`` dict (or the
        ``scalar`` value).  ``what`` names where a nested spec sits, for
        error messages."""
        if spec is None and self.scalar is None:
            return None if self.default is None else self.normalize({"kind": self.default})
        where = f" in {what}" if what else ""
        if self.live is not None and isinstance(spec, self.live):
            if not hasattr(spec, "to_spec"):
                raise ConfigurationError(
                    f"a live {type(spec).__name__} instance is not serializable; "
                    f"pass a string or dict {self.name} spec instead "
                    f"({self._listing()})"
                )
            spec = spec.to_spec()
        if self.scalar is not None and not isinstance(spec, dict) and ":" not in str(spec):
            return self.scalar(spec, what=what or f"{self.name} spec")
        positional: List[str] = []
        if isinstance(spec, str):
            head, positional, raw = split_spec_string(spec)
            kind = self._kind(head, where)
            if kind is not None:
                if kind.positional is None:
                    raise ConfigurationError(
                        f"{self.name} kind {kind.name!r} has no string form; pass "
                        f'the dict form {{"kind": "{kind.name}", ...}}'
                    )
                raw = {
                    **bind_positionals(
                        kind.name, kind.positional, positional, what=f"{self.name} kind"
                    ),
                    **raw,
                }
        elif isinstance(spec, dict):
            if "kind" not in spec:
                raise ConfigurationError(
                    f"{self.name} spec dicts need a 'kind' key; {self._listing()}"
                )
            kind = self._kind(spec["kind"], where)
            raw = {str(k).replace("-", "_"): v for k, v in spec.items() if k != "kind"}
        else:
            raise ConfigurationError(
                f"{self.name} spec must be None, a string, or a dict, got "
                f"{type(spec).__name__}: {spec!r}"
            )
        if kind is None:
            if raw or positional:
                raise ConfigurationError(
                    f"the {self.none_aliases[0]!r} {self.name} takes no parameters"
                )
            return None
        label = f"{self.name} kind {kind.name!r}{where}"
        params = _coerce_params(raw, kind.params, kind.required, label=label, summary=kind.summary)
        if kind.check is not None:
            kind.check(params, label)
        return {"kind": kind.name, **params}

    def build(self, *args):
        """A fresh live object from a spec, the last argument; leading
        arguments (a schedule's ``n, t``) go to the factory first.  A
        live object passes through, and a spec normalizing to ``None``
        builds ``None``."""
        *context, spec = args
        if self.live is not None and isinstance(spec, self.live):
            return spec
        params = self.normalize(spec)
        if params is None:
            return None
        return self.kinds[params.pop("kind")].factory(*context, **params)


# =====================================================================
# Arrival-schedule specs (dynamic-workload protocols)
# =====================================================================
# The factories import the protocol layer lazily: the schedule grammar
# lives with the other grammars, the schedule object with its protocol.


def _uniform_schedule(n: int, t: int, **params):
    from repro.core.protocol_d_dynamic import uniform_arrivals

    return uniform_arrivals(n, t, **params)


def _batch_schedule(n: int, t: int, *, batches: List[List[int]]):
    from repro.core.protocol_d_dynamic import ArrivalSchedule

    total = sum(count for _, count in batches)
    if total != n:
        raise ConfigurationError(
            f"schedule batches deliver {total} unit(s) but the scenario "
            f"has n={n}; counts must sum to n"
        )
    arrivals = []
    unit = 1
    for round_number, count in batches:
        for _ in range(count):
            arrivals.append((round_number, (unit - 1) % t, unit))
            unit += 1
    return ArrivalSchedule(arrivals)


def _explicit_schedule(n: int, t: int, *, arrivals: List[List[int]]):
    from repro.core.protocol_d_dynamic import ArrivalSchedule

    arrivals = [tuple(triple) for triple in arrivals]
    bad_sites = sorted({site for _, site, _ in arrivals if site >= t})
    if bad_sites:
        raise ConfigurationError(
            f"arrival site(s) {bad_sites} out of range for t={t} processes"
        )
    units = {unit for _, _, unit in arrivals}
    if units != set(range(1, n + 1)):
        raise ConfigurationError(
            f"explicit arrivals must cover exactly units 1..{n}; got "
            f"{len(units)} distinct unit(s) "
            f"spanning {min(units)}..{max(units)}"
        )
    return ArrivalSchedule(arrivals)


SCHEDULE = SpecFamily(
    "schedule",
    (
        SpecKind(
            "uniform",
            ("every",),
            {"every": integer(minimum=1), "start": integer(minimum=0)},
            factory=_uniform_schedule,
            summary="unit u arrives at site (u-1) mod t at round start + (u-1)*every",
        ),
        SpecKind(
            "arrivals",
            ("*batches",),
            {"batches": tuples(("round", 0), ("count", 1))},
            required=("batches",),
            factory=_batch_schedule,
            summary="arrival batches, positional ROUNDxCOUNT pairs: 'arrivals:0x8,3x4'",
        ),
        SpecKind(
            "explicit",
            None,
            {"arrivals": tuples(("round", 0), ("site", 0), ("unit", 1))},
            required=("arrivals",),
            factory=_explicit_schedule,
            summary="every unit's [round, site, unit], covering exactly units 1..n",
        ),
    ),
    default="uniform",
)

#: What schedule-accepting entry points take: ``None`` (the uniform
#: default), a grammar string, or a JSON-compatible dict.
ScheduleSpec = Union[None, str, Dict[str, Any]]

#: ``normalize_schedule_spec(spec)``: the canonical dict; ``None`` means
#: ``{"kind": "uniform"}``.
normalize_schedule_spec = SCHEDULE.normalize

#: ``schedule_from_spec(n, t, spec)``: the
#: :class:`~repro.core.protocol_d_dynamic.ArrivalSchedule` covering
#: exactly units ``1..n`` on ``t`` sites; raises
#: :class:`ConfigurationError` when the unit count or a site does not fit.
schedule_from_spec = SCHEDULE.build
