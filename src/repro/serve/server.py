"""A JSON-lines request loop over :class:`MatchService`.

The ``repro-fbf serve`` subcommand speaks this protocol on
stdin/stdout: one JSON object per line in, one JSON object per line
out, in request order.  It is deliberately transport-free — the loop
reads any iterable of lines and writes any file-like object — so tests
drive it with lists and ``io.StringIO``, and a real deployment can wrap
it in whatever socket framing it likes.

Requests are ``{"op": ..., ...}``; every response carries ``"ok"``
(and echoes ``"op"``), with errors reported per request
(``{"ok": false, "error": ...}``) rather than killing the loop — a bad
line from one client must not take the service down.

Ops::

    {"op": "query",  "value": "SMITH", "k": 1, "method": "osa"}
    {"op": "query_batch", "values": ["SMITH", "JONES"]}
    {"op": "add",    "value": "SMITH"}      (or "values": [...])
    {"op": "remove", "id": 7}
    {"op": "compact"}
    {"op": "stats"}
    {"op": "metrics"}                       (live telemetry snapshot;
                                             "delta": true for the
                                             since-last-poll view,
                                             "format": "prometheus" for
                                             the text exposition,
                                             "events": N to include the
                                             last N lifecycle events)
    {"op": "snapshot", "path": "warm.npz"}
    {"op": "shutdown"}

Protocol failures are telemetry, not just responses: malformed JSON
lines and unknown ops are tallied into the service's metrics registry
(``serve_bad_requests_total{reason=...}``) and collector counters, and
the ``shutdown`` acknowledgment carries the loop's ``served`` and
``errors`` totals so a draining client sees the final account.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.serve.service import MatchService, QueryResult

__all__ = ["MAX_REQUEST_BYTES", "handle", "query_payload", "serve_lines"]


def query_payload(res: QueryResult) -> dict[str, object]:
    return {
        "value": res.value,
        "k": res.k,
        "method": res.method,
        "ids": list(res.ids),
        "matches": list(res.matches),
        "cached": res.cached,
        "generation": res.generation,
    }


def handle(service: MatchService, request: dict) -> dict[str, object]:
    """Execute one request dict; returns the response dict.

    Raises nothing: every failure — unknown op, missing field, index
    error — comes back as ``{"ok": False, "error": ...}``.
    """
    op = request.get("op")
    try:
        if op == "query":
            res = service.query(
                str(request["value"]),
                k=request.get("k"),
                method=request.get("method"),
            )
            return {"ok": True, "op": op, **query_payload(res)}
        if op == "query_batch":
            results = service.query_batch(
                [str(v) for v in request["values"]],
                k=request.get("k"),
                method=request.get("method"),
            )
            return {
                "ok": True,
                "op": op,
                "results": [query_payload(r) for r in results],
            }
        if op == "add":
            if "values" in request:
                ids = service.add_batch([str(v) for v in request["values"]])
                return {"ok": True, "op": op, "ids": ids}
            return {
                "ok": True,
                "op": op,
                "id": service.add(str(request["value"])),
            }
        if op == "remove":
            sid = int(request["id"])
            try:
                service.remove(sid)
            except KeyError as exc:
                service.note_request_error("unknown_id")
                return {"ok": False, "op": op, "error": str(exc.args[0])}
            return {"ok": True, "op": op, "id": sid}
        if op == "compact":
            return {"ok": True, "op": op, "reclaimed": service.compact()}
        if op == "stats":
            return {"ok": True, "op": op, "stats": service.stats()}
        if op == "metrics":
            if request.get("format") == "prometheus":
                service.refresh_metrics()
                return {
                    "ok": True,
                    "op": op,
                    "format": "prometheus",
                    "text": service.metrics.render_prometheus(),
                }
            payload = (
                service.metrics_delta()
                if request.get("delta")
                else service.metrics_snapshot()
            )
            response: dict[str, object] = {
                "ok": True,
                "op": op,
                "metrics": payload,
            }
            if "events" in request:
                response["events"] = service.events.tail(
                    int(request["events"])
                )
            return response
        if op == "snapshot":
            path = service.save(str(request["path"]))
            return {"ok": True, "op": op, "path": str(path)}
        if op == "shutdown":
            return {"ok": True, "op": op, "shutdown": True}
        service.note_request_error("unknown_op")
        return {"ok": False, "error": f"unknown op {op!r}"}
    except KeyError as exc:
        service.note_request_error("missing_field")
        return {"ok": False, "op": op, "error": f"missing field {exc}"}
    except (ValueError, TypeError) as exc:
        service.note_request_error("bad_value")
        return {"ok": False, "op": op, "error": str(exc)}


#: default per-request size bound for the line protocols (bytes)
MAX_REQUEST_BYTES = 1 << 20


def serve_lines(
    service: MatchService,
    lines: Iterable[str],
    out: IO[str],
    *,
    max_request_bytes: int = MAX_REQUEST_BYTES,
) -> int:
    """Run the request loop; returns the number of requests served.

    Stops at end of input or after a ``shutdown`` op (which is
    acknowledged — including the loop's ``served``/``errors`` totals —
    before the loop exits).  Blank lines are skipped; unparseable lines
    produce an error response, bump the malformed-request counters and
    the loop continues.  Lines longer than ``max_request_bytes`` are
    rejected the same way — a structured error response and an
    ``oversized`` tally — without ever being parsed, so one runaway
    client cannot balloon the service's memory.
    """
    served = 0
    errors = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if len(line.encode("utf-8", "surrogateescape")) > max_request_bytes:
            service.note_request_error("oversized")
            response: dict[str, object] = {
                "ok": False,
                "error": (
                    f"request exceeds {max_request_bytes} bytes"
                ),
            }
            served += 1
            errors += 1
            out.write(json.dumps(response) + "\n")
            out.flush()
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            service.note_request_error("bad_json")
            response = {
                "ok": False,
                "error": f"bad json: {exc}",
            }
        else:
            if not isinstance(request, dict):
                service.note_request_error("not_an_object")
                response = {"ok": False, "error": "request must be an object"}
            else:
                response = handle(service, request)
        served += 1
        if not response.get("ok"):
            errors += 1
        if response.get("shutdown"):
            response["served"] = served
            response["errors"] = errors
        out.write(json.dumps(response) + "\n")
        out.flush()
        if response.get("shutdown"):
            break
    return served
