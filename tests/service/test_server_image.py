"""Durable images through the service: snapshot op, --image serving,
token-lane coordination, and hostile-frame connection drops."""

import socket
import struct

import pytest

from repro.core.ghostdb import GhostDB
from repro.service.client import GhostClient, ServiceError
from repro.service.protocol import MAX_FRAME_BYTES
from repro.workloads.queries import query_q

from harness import serving

SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"


def test_snapshot_op_writes_a_restorable_image(fresh_db, tmp_path):
    path = str(tmp_path / "served.img")
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            client.execute("INSERT INTO T0 VALUES (0, 0, 1, 1, 5)")
            summary = client.snapshot(path)
            assert summary["kind"] == "snapshot"
            assert summary["bytes"] > 0
            # the server stays fully usable after the snapshot
            assert client.ping()
            live_rows = sorted(client.execute(SELECT_T0).rows)
    restored = GhostDB.restore(path)
    assert sorted(
        tuple(r) for r in restored.execute(SELECT_T0).rows) == live_rows


def test_snapshot_requires_a_path(db):
    with serving(db) as server:
        with GhostClient(server.host, server.port) as client:
            with pytest.raises(ServiceError):
                client._call({"op": "snapshot"})
            assert client.ping()


def test_snapshot_refused_mid_compaction(fresh_db, tmp_path):
    """A bounded compaction job left half-done must make the server
    refuse the snapshot (PersistError over the wire), and the snapshot
    must succeed once the job is finished."""
    path = str(tmp_path / "refused.img")
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            client.execute("DELETE FROM T0 WHERE T0.v1 = 1")
            progress = client.compact("T0", max_steps=1)
            assert not progress.raw["done"]
            with pytest.raises(ServiceError) as exc:
                client.snapshot(path)
            assert exc.value.error_type == "PersistError"
            while not client.compact("T0").raw["done"]:
                pass
            summary = client.snapshot(path)
            assert summary["pages"] > 0
    GhostDB.restore(path)       # and the image is genuinely loadable


def test_served_image_answers_like_the_original(fresh_db, tmp_path):
    """A server booted from the durable image (the --image path) must
    answer the fig10 query identically -- rows *and* simulated costs --
    to a server over the never-snapshotted original."""
    sql = query_q(0.1)
    path = str(tmp_path / "twin.img")
    fresh_db.snapshot(path)
    restored = GhostDB.restore(path)

    def served_answer(database):
        with serving(database) as server:
            with GhostClient(server.host, server.port) as client:
                result = client.execute(sql)
                return sorted(result.rows), result.stats

    rows_a, stats_a = served_answer(fresh_db)
    rows_b, stats_b = served_answer(restored)
    assert rows_a == rows_b
    assert stats_a["total_s"] == stats_b["total_s"]
    assert stats_a["bytes_to_secure"] == stats_b["bytes_to_secure"]
    assert stats_a["bytes_to_untrusted"] == stats_b["bytes_to_untrusted"]


def test_hostile_length_prefix_drops_the_connection(db):
    """A peer announcing a frame beyond MAX_FRAME_BYTES is dropped
    immediately -- the server must never try to read the body."""
    with serving(db) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        try:
            sock.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            assert sock.recv(1) == b""      # server closed on us
        finally:
            sock.close()
        # and the listener itself survived the hostile peer
        with GhostClient(server.host, server.port) as client:
            assert client.ping()


def test_main_parses_image_flag(tmp_path, monkeypatch):
    """The CLI wires --image through GhostDB.restore into a server."""
    import repro.service.server as server_mod

    path = str(tmp_path / "cli.img")
    calls = {}

    def fake_restore(image_path, verify=False):
        calls["restore"] = (image_path, verify)
        return "DB"

    async def fake_serve(db, host, port):
        calls["serve"] = (db, host, port)

    monkeypatch.setattr(GhostDB, "restore", staticmethod(fake_restore))
    monkeypatch.setattr(server_mod, "_serve_image", fake_serve)
    server_mod.main(["--image", path, "--port", "4321", "--verify"])
    assert calls["restore"] == (path, True)
    assert calls["serve"] == ("DB", "127.0.0.1", 4321)
