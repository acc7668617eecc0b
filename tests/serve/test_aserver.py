"""Tests for the asyncio front-end: framing, coalescing, admission
control and graceful drain."""

import asyncio
import json

import pytest

from repro.serve.aserver import AsyncMatchServer, LineFramer
from repro.serve.service import MatchService

WORDS = ["smith", "smyth", "jones", "stone", "jonas"]


class TestLineFramer:
    def feed_all(self, framer, data):
        return list(framer.feed(data))

    def test_lines_across_feeds(self):
        f = LineFramer()
        assert self.feed_all(f, b"ab") == []
        assert self.feed_all(f, b"c\nde\nf") == [b"abc", b"de"]
        assert self.feed_all(f, b"\n") == [b"f"]

    def test_oversized_line_yields_sentinel_once(self):
        f = LineFramer(max_line_bytes=8)
        out = self.feed_all(f, b"x" * 20)
        assert out == []
        out = self.feed_all(f, b"yyy\nnext\n")
        assert out == [LineFramer.OVERSIZED, b"next"]

    def test_oversized_within_one_feed(self):
        f = LineFramer(max_line_bytes=4)
        out = self.feed_all(f, b"toolong\nok\n")
        assert out == [LineFramer.OVERSIZED, b"ok"]

    def test_bounded_memory_while_discarding(self):
        f = LineFramer(max_line_bytes=8)
        for _ in range(100):
            self.feed_all(f, b"z" * 1024)
        assert len(f._buf) == 0

    def test_exact_bound_is_allowed(self):
        f = LineFramer(max_line_bytes=4)
        assert self.feed_all(f, b"abcd\n") == [b"abcd"]


async def _client(port, requests):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    for request in requests:
        payload = (
            request
            if isinstance(request, (bytes, bytearray))
            else json.dumps(request).encode()
        )
        writer.write(payload + b"\n")
        await writer.drain()
        responses.append(json.loads(await reader.readline()))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return responses


def run(coro):
    return asyncio.run(coro)


class TestAsyncServer:
    def test_queries_coalesce_across_connections(self):
        async def main():
            svc = MatchService(WORDS, k=1, cache_size=0)
            server = AsyncMatchServer(svc, batch_window=0.02)
            _, port = await server.start()
            answers = await asyncio.gather(
                *(
                    _client(port, [{"op": "query", "value": v}])
                    for v in ("smith", "smyth", "jones", "stone")
                )
            )
            await server.aclose()
            return server, [a[0] for a in answers]

        server, answers = run(main())
        for res in answers:
            assert res["ok"] and res["ids"], res
        # All four landed inside one window -> coalesced together.
        assert server.coalesced == 4
        # Answers equal the blocking path's.
        svc = MatchService(WORDS, k=1, cache_size=0)
        for res in answers:
            assert res["ids"] == list(svc.query(res["value"]).ids)

    def test_per_connection_order_is_preserved(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            server = AsyncMatchServer(svc)
            _, port = await server.start()
            res = await _client(
                port,
                [
                    {"op": "add", "value": "smitt"},
                    {"op": "query", "value": "smitt", "k": 0},
                    {"op": "remove", "id": len(WORDS)},
                    {"op": "query", "value": "smitt", "k": 0},
                ],
            )
            await server.aclose()
            return res

        add, q1, rm, q2 = run(main())
        assert add["ok"] and rm["ok"]
        assert q1["ids"] == [len(WORDS)]  # sees its own add
        assert q2["ids"] == []  # and its own remove

    def test_shed_on_overload(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            # A window long enough that parked queries hold their
            # admission slots while the probe arrives.
            server = AsyncMatchServer(
                svc, max_inflight=2, batch_window=0.2, max_batch=100
            )
            _, port = await server.start()
            parked = [
                asyncio.create_task(
                    _client(port, [{"op": "query", "value": v}])
                )
                for v in ("smith", "smyth")
            ]
            await asyncio.sleep(0.05)  # both admitted, batch pending
            probe = await _client(port, [{"op": "stats"}])
            done = await asyncio.gather(*parked)
            await server.aclose()
            return server, probe[0], [d[0] for d in done]

        server, shed, parked = run(main())
        assert shed == {"ok": False, "error": "overloaded", "shed": True}
        assert server.shed == 1
        for res in parked:  # admitted work still answered
            assert res["ok"], res
        snap = server.service.metrics_snapshot()["metrics"]
        assert snap["serve_shed_total"]["value"] == 1.0
        assert (
            snap['serve_bad_requests_total{reason="overloaded"}']["value"]
            == 1.0
        )

    def test_oversized_request_keeps_connection_alive(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            server = AsyncMatchServer(svc, max_request_bytes=256)
            _, port = await server.start()
            res = await _client(
                port,
                [b"x" * 1024, {"op": "stats"}],
            )
            await server.aclose()
            return svc, res

        svc, (oversized, stats) = run(main())
        assert not oversized["ok"] and "exceeds" in oversized["error"]
        assert stats["ok"] and stats["op"] == "stats"
        snap = svc.metrics_snapshot()["metrics"]
        assert (
            snap['serve_bad_requests_total{reason="oversized"}']["value"]
            == 1.0
        )

    def test_shutdown_drains_and_reports_totals(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            server = AsyncMatchServer(svc, batch_window=0.05)
            _, port = await server.start()
            # A query parked in the coalescing window when shutdown
            # arrives must still be answered (drain, not drop).
            parked = asyncio.create_task(
                _client(port, [{"op": "query", "value": "smith"}])
            )
            await asyncio.sleep(0.01)
            ack = (await _client(port, [{"op": "shutdown"}]))[0]
            parked_res = (await parked)[0]
            await server.serve_until_shutdown()
            return ack, parked_res

        ack, parked = run(main())
        assert ack["ok"] and ack["shutdown"]
        assert {"served", "errors", "shed"} <= set(ack)
        assert parked["ok"] and parked["ids"]

    def test_rejects_after_shutdown_starts(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            server = AsyncMatchServer(svc)
            _, port = await server.start()
            await _client(port, [{"op": "shutdown"}])
            await server.serve_until_shutdown()
            with pytest.raises(OSError):
                await _client(port, [{"op": "stats"}])

        run(main())

    def test_bad_json_and_non_object_counted(self):
        async def main():
            svc = MatchService(WORDS, k=1)
            server = AsyncMatchServer(svc)
            _, port = await server.start()
            res = await _client(port, [b"{not json", b"[1, 2]"])
            await server.aclose()
            return svc, res

        svc, (bad, arr) = run(main())
        assert not bad["ok"] and "bad json" in bad["error"]
        assert not arr["ok"] and "object" in arr["error"]
        snap = svc.metrics_snapshot()["metrics"]
        assert (
            snap['serve_bad_requests_total{reason="bad_json"}']["value"]
            == 1.0
        )

    def test_aclose_waits_for_idle_connection_handlers(self):
        logged = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
            server = AsyncMatchServer(MatchService(WORDS, k=1))
            _, port = await server.start()
            # One client answered and then idle, one that never sends:
            # both handlers are parked in read() when aclose runs.
            reader, talker = await asyncio.open_connection("127.0.0.1", port)
            talker.write(json.dumps({"op": "stats"}).encode() + b"\n")
            await talker.drain()
            assert json.loads(await reader.readline())["ok"]
            _, silent = await asyncio.open_connection("127.0.0.1", port)
            await asyncio.sleep(0.05)
            await server.aclose()
            me = asyncio.current_task()
            pending = [t for t in asyncio.all_tasks() if t is not me]
            for writer in (talker, silent):
                writer.close()
                await writer.wait_closed()
            return pending

        assert run(main()) == []
        # Nothing was left for asyncio.run to cancel, so no server
        # callback logged a CancelledError.
        assert logged == []

    def test_invalid_max_inflight_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AsyncMatchServer(MatchService(WORDS), max_inflight=0)
