"""Lifecycle: the drain gate, checkpoint-on-exit, and a live server loop."""

import asyncio
import json


from repro.core.resilience import load_checkpoint
from repro.serve.app import ServeApp
from repro.serve.lifecycle import ServerLifecycle, run_server

from tests.serve.conftest import HIST_GVDL, call

RUN_WCC = {"computation": "wcc", "target": "Calls"}


class TestDrainGate:
    def test_draining_server_refuses_new_work(self, app, tmp_path):
        async def scenario():
            lifecycle = ServerLifecycle(app.session, app.admission,
                                        checkpoint_path=None,
                                        drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            ok = await call(app, "POST", "/run", RUN_WCC)
            lifecycle.request_shutdown("test")
            summary = await lifecycle.shutdown()
            refused_run = await call(app, "POST", "/run", RUN_WCC)
            refused_query = await call(app, "POST", "/query",
                                       {"gvdl": HIST_GVDL})
            refused_mutate = await call(app, "POST", "/mutate", {
                "graph": "Calls", "add_edges": [[1, 8, {
                    "duration": 1, "year": 2020}]]})
            health = await call(app, "GET", "/healthz")
            ready = await call(app, "GET", "/readyz")
            return (ok, summary, refused_run, refused_query,
                    refused_mutate, health, ready)

        (ok, summary, refused_run, refused_query, refused_mutate,
         health, ready) = asyncio.run(scenario())
        assert ok.status == 200
        assert summary["drained"] is True
        assert summary["reason"] == "test"
        for refused in (refused_run, refused_query, refused_mutate):
            assert refused.status == 503
            assert refused.payload["error"] == "shutting-down"
        # Health stays observable through the drain; readiness flips.
        assert health.status == 200
        assert health.payload["status"] == "draining"
        assert ready.status == 503

    def test_shutdown_checkpoints_the_journal(self, app, tmp_path):
        async def scenario():
            lifecycle = ServerLifecycle(
                app.session, app.admission,
                checkpoint_path=tmp_path / "session.ckpt",
                drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            await call(app, "POST", "/query", {"gvdl": HIST_GVDL})
            lifecycle.request_shutdown()
            return await lifecycle.shutdown()

        summary = asyncio.run(scenario())
        assert summary["checkpoint_records"] == 1
        state = load_checkpoint(tmp_path / "session.ckpt")
        assert state.header["kind"] == "serve-session"
        assert state.views[0]["kind"] == "gvdl"

    def test_request_shutdown_is_idempotent(self, app):
        lifecycle = ServerLifecycle(app.session, app.admission)
        lifecycle.request_shutdown("first")
        lifecycle.request_shutdown("second")
        assert lifecycle.shutdown_reason == "first"

    def test_shutdown_closes_resident_dataflows(self, app):
        # The clean shutdown path drops every resident dataflow.
        async def scenario():
            lifecycle = ServerLifecycle(app.session, app.admission,
                                        drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            await call(app, "POST", "/query", {"gvdl": HIST_GVDL})
            await call(app, "POST", "/run",
                       {"computation": "wcc", "target": "hist"})
            assert app.session._residents
            residents = list(app.session._residents.values())
            lifecycle.request_shutdown()
            await lifecycle.shutdown()
            return residents

        residents = asyncio.run(scenario())
        assert app.session._residents == {}
        assert all(resident.dataflow is None for resident in residents)


class TestRunServerLoop:
    def test_boot_serve_drain_checkpoint(self, app, call_graph, tmp_path):
        """The full daemon loop over a real socket, ending in a restore."""
        lines = []

        async def scenario():
            server_task = asyncio.create_task(run_server(
                app, port=0, checkpoint_path=tmp_path / "session.ckpt",
                drain_timeout=2.0, install_signals=False,
                log=lambda msg, **kw: lines.append(msg)))
            while not any(line.startswith("listening on ")
                          for line in lines):
                await asyncio.sleep(0.01)
            listening = next(line for line in lines
                             if line.startswith("listening on "))
            port = int(listening.rsplit(":", 1)[1])

            async def http(method, path, body=None):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                data = json.dumps(body).encode() if body else b""
                head = (f"{method} {path} HTTP/1.1\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n")
                writer.write(head.encode() + data)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                return (int(head.split()[1]),
                        json.loads(payload) if payload else None)

            status, health = await http("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, created = await http("POST", "/query",
                                         {"gvdl": HIST_GVDL})
            assert status == 200 and created["created"] == ["hist"]
            status, result = await http("POST", "/run", RUN_WCC)
            assert status == 200 and result["cached"] is False
            app.lifecycle.request_shutdown("test-complete")
            return await server_task

        summary = asyncio.run(scenario())
        assert summary["drained"] is True
        assert summary["reason"] == "test-complete"
        assert summary["checkpoint_records"] == 1
        # A second boot — a fresh session over the same base graph —
        # restores the journal before serving.
        from repro.core.system import Graphsurge
        from repro.serve.session import ServeSession

        gs = Graphsurge()
        gs.add_graph(call_graph, "Calls")
        rebooted = ServeApp(ServeSession(gs))
        restored_lines = []

        async def reboot():
            task = asyncio.create_task(run_server(
                rebooted, port=0,
                checkpoint_path=tmp_path / "session.ckpt",
                install_signals=False,
                log=lambda msg, **kw: restored_lines.append(msg)))
            while rebooted.lifecycle is None or not rebooted.lifecycle.ready:
                await asyncio.sleep(0.01)
            assert rebooted.session.describe()["collections"] == ["hist"]
            rebooted.lifecycle.request_shutdown()
            return await task

        asyncio.run(reboot())
        assert any("restored session checkpoint" in line
                   for line in restored_lines)
