"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The service speaks just enough HTTP for its JSON API: request-line +
headers + ``Content-Length`` bodies in, status + headers + JSON (or
server-sent-event streams) out.  No chunked transfer encoding, no
pipelining beyond sequential keep-alive, no TLS — the service is designed
to sit behind whatever terminates those (``docs/service.md``).

Hard limits keep a misbehaving client from ballooning server memory:
request lines and header blocks are capped at :data:`MAX_HEADER_BYTES`,
bodies at :data:`MAX_BODY_BYTES` (413 beyond it).  Parse failures raise
:class:`HttpError`, which the connection handler renders as a JSON error
response with the carried status code.
"""

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: cap on the request line plus the whole header block
MAX_HEADER_BYTES = 16 * 1024
#: cap on a request body (jobs are a few hundred bytes each; a maximal
#: batch of full inline configs stays far under this)
MAX_BODY_BYTES = 4 * 1024 * 1024

#: reason phrases for the statuses the service emits
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; rendered as a JSON error body.

    ``headers`` lets a raiser attach response headers — quota rejections
    carry ``Retry-After`` this way.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers: Dict[str, str] = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    #: path with the query string split off
    path: str
    #: raw query string ("" when absent; the service's API needs no
    #: structured query parsing)
    query: str
    #: header names lower-cased; last occurrence wins
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON (400 on absence or syntax errors)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON (got none)")
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (HTTP/1.1
        default, overridden by ``Connection: close``)."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed or over-limit input and
    ``asyncio.IncompleteReadError`` / ``ConnectionError`` on a peer that
    vanishes mid-request (the handler closes the connection either way).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(raw) > MAX_HEADER_BYTES:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    head = raw.decode("latin-1").split("\r\n")
    parts = head[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {head[0]!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")
    headers: Dict[str, str] = {}
    for line in head[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length)
    return Request(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """One complete HTTP response as bytes."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: object) -> bytes:
    """Canonical JSON encoding of a response payload.

    Key-sorted with tight separators — the same canonical form the
    :class:`~repro.engine.store.ResultStore` frames records in, so a
    result fetched over HTTP is byte-comparable with a stored record.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def sse_preamble() -> bytes:
    """Response head opening a server-sent-event stream.

    The stream has no ``Content-Length``; the server signals the end by
    closing the connection, so SSE responses always send
    ``Connection: close``.
    """
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n\r\n"
    )


def sse_event(event: str, payload: object) -> bytes:
    """One ``event:``/``data:`` frame of a server-sent-event stream."""
    return (
        f"event: {event}\ndata: "
        f"{json.dumps(payload, sort_keys=True, separators=(',', ':'))}\n\n"
    ).encode()


def parse_sse_frame(frame: str) -> Tuple[str, object]:
    """Decode one SSE frame back into ``(event, payload)`` (client side)."""
    event = ""
    data_lines = []
    for line in frame.splitlines():
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
    return event, json.loads("\n".join(data_lines) or "null")
