"""HTTP/1.1 header framing shared by ``repro serve`` and :class:`~repro.client.Client`.

Both ends read a message's header block with :func:`read_headers`
instead of ``http.client.parse_headers``, which runs every block through
the ``email`` feed parser.  The limits are the standard library's: a
line over :data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS` header
lines is refused.
"""

from __future__ import annotations

import http.client
from typing import Optional

#: Longest status, request or header line accepted, in bytes.
MAX_LINE = 65536

#: Most header lines accepted in one message.
MAX_HEADERS = 100


class Headers(dict):
    """Header values keyed by lower-cased name; :meth:`get` takes any
    spelling.  A repeated header keeps its first value."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


def read_line(rfile) -> bytes:
    """One line of ``rfile`` ("" at end of stream); raises
    :class:`http.client.LineTooLong` past :data:`MAX_LINE` bytes."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise http.client.LineTooLong("header line")
    return line


def read_headers(rfile) -> Headers:
    """The header lines of ``rfile`` up to the blank line that ends them.

    Raises :class:`http.client.LineTooLong` for a line over
    :data:`MAX_LINE` bytes, :class:`http.client.HTTPException` for more
    than :data:`MAX_HEADERS` lines, and :class:`ValueError` for a line
    that is not ``name: value`` (a folded continuation line included).
    """
    headers = Headers()
    count = 0
    while True:
        line = read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            return headers
        count += 1
        if count > MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or name.split() != [name]:
            raise ValueError(f"malformed header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
