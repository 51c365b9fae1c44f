"""The one codec: documents in, results in and out.

**Documents.**  Every scenario, sweep, suite, campaign, job document
and report artifact enters through here.  :func:`parse` turns text or
bytes into JSON values, and :func:`read` reads a file by its suffix
(``.toml`` is TOML, anything else JSON); both raise one
:class:`ConfigurationError` shape that names the document, the path
and the parser's complaint.  :func:`check_fields` is the one field-table
check of a document dict: a dict, no unknown field, no missing one, and
``version`` (when the format has one) an integer equal to the format
version.  :data:`DOCUMENT_KINDS` names the top-level keys of a run
server job document.

**Results.**  :func:`encode` writes ``json.dumps(result.to_dict(full=True),
sort_keys=True)`` without the ``config`` echo, which names the submitting
scenario, not the content address.  The cache keeps that text per key;
journal lines, ledger lines and served answers copy it in through
:func:`splice` and :func:`with_config`, byte for byte what ``json.dumps``
of the whole object would write.  :func:`decode` goes back through
:meth:`~repro.sim.metrics.RunResult.from_dict` and all of its checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Collection, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.sim.metrics import RunResult

#: Top-level keys a run server job document may use, exactly one per
#: submission.
DOCUMENT_KINDS = ("scenario", "sweep", "suite", "scenarios")

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True).encode


def parse(data: Union[str, bytes], what: str) -> Any:
    """The JSON value ``data`` holds; one that does not parse (or is not
    UTF-8) raises :class:`ConfigurationError` naming ``what``."""
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from None


def read(path, what: str) -> Any:
    """The document in file ``path``: TOML when it ends in ``.toml``,
    JSON otherwise.  ``what`` names the kind of file in errors."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from None
    if path.suffix.lower() != ".toml":
        return parse(data, f"{what} {path}")
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        raise ConfigurationError(
            f"{what} {path} is TOML, which needs Python 3.11+ (tomllib); "
            "use the JSON form on older interpreters"
        ) from None
    try:
        return tomllib.loads(data.decode("utf-8"))
    except ValueError as exc:  # TOMLDecodeError and UnicodeDecodeError both
        raise ConfigurationError(f"{what} {path} is not valid TOML: {exc}") from None


def check_fields(
    data: Any,
    what: str,
    accepted: Collection[str],
    required: Collection[str] = (),
    *,
    version: Optional[int] = None,
) -> Dict[str, Any]:
    """``data`` itself once it is a dict of ``accepted`` fields holding
    every ``required`` one, with ``version`` (when given) in its
    ``"version"`` field; otherwise a :class:`ConfigurationError` naming
    ``what`` and the offending fields or value."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a dict, got {type(data).__name__}")
    unknown = data.keys() - accepted
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {sorted(unknown)} in {what}; accepted: "
            + ", ".join(sorted(accepted))
        )
    missing = set(required) - data.keys()
    if missing:
        raise ConfigurationError(f"{what} requires field(s) {sorted(missing)}")
    if version is not None:
        found = data["version"]
        if isinstance(found, bool) or not isinstance(found, int):
            raise ConfigurationError(
                f"'version' of {what} must be an integer, got {found!r}"
            )
        if found != version:
            raise ConfigurationError(
                f"{what} uses format version {found}, but this loader "
                f"understands version {version}"
            )
    return data


def encode(result: RunResult) -> str:
    payload = result.to_dict(full=True)
    payload.pop("config", None)
    return _dumps(payload)


def decode(data: Union[str, bytes, Dict[str, Any]]) -> RunResult:
    """A result from its text, or from a payload already parsed out of a
    larger document; anything that does not rehydrate raises
    :class:`ConfigurationError`."""
    if isinstance(data, (str, bytes, bytearray)):
        data = parse(data, "a run result")
    return RunResult.from_dict(data)


def splice(fields: Dict[str, Any], name: str, text: str) -> str:
    """``json.dumps({**fields, name: value}, sort_keys=True)`` for the
    ``value`` whose canonical text is ``text``, which is copied as is."""
    head = _dumps({key: value for key, value in fields.items() if key < name})[1:-1]
    tail = _dumps({key: value for key, value in fields.items() if key > name})[1:-1]
    return "{" + ", ".join(filter(None, (head, _dumps(name) + ": " + text, tail))) + "}"


def with_config(text: str, config: Dict[str, Any]) -> str:
    """A result's text with its ``config`` echo, which sorts straight
    after the first member, ``"completed"`` (a bool: no comma inside)."""
    cut = text.index(", ") + 2
    return text[:cut] + '"config": ' + _dumps(config) + ", " + text[cut:]


__all__ = [
    "DOCUMENT_KINDS",
    "check_fields",
    "decode",
    "encode",
    "parse",
    "read",
    "splice",
    "with_config",
]
