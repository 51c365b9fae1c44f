"""The one result codec: a run result as one canonical JSON text.

:func:`encode` writes ``json.dumps(result.to_dict(full=True),
sort_keys=True)`` without the ``config`` echo, which names the submitting
scenario, not the content address.  The cache keeps that text per key;
journal lines, ledger lines and served answers copy it in through
:func:`splice` and :func:`with_config`, byte for byte what ``json.dumps``
of the whole object would write.  :func:`decode` goes back through
:meth:`~repro.sim.metrics.RunResult.from_dict` and all of its checks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Union

from repro.errors import ConfigurationError
from repro.sim.metrics import RunResult

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True).encode


def encode(result: RunResult) -> str:
    payload = result.to_dict(full=True)
    payload.pop("config", None)
    return _dumps(payload)


def decode(data: Union[str, bytes, Dict[str, Any]]) -> RunResult:
    """A result from its text, or from a payload already parsed out of a
    larger document; anything that does not rehydrate raises
    :class:`ConfigurationError`."""
    if isinstance(data, (str, bytes, bytearray)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigurationError(f"a run result does not parse as JSON: {exc}") from None
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


__all__ = ["decode", "encode", "splice", "with_config"]
