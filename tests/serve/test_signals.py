"""``repro serve`` stops cleanly on SIGTERM: server exits, no worker survives."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.query import Query

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="worker discovery reads /proc"
)


def _children(pid: int) -> list:
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(name))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigterm_stops_server_and_pool_workers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
         "--store", str(tmp_path / "store")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    workers = []
    try:
        match = re.search(r"listening on ([^\s:]+):(\d+)", proc.stdout.readline())
        assert match, "no listening banner"
        with ServeClient(match.group(1), int(match.group(2))) as client:
            for strategy in ("LADM", "H-CODA", "Monolithic", "Baseline-RR"):
                response = client.query(
                    Query(program={"workload": "vecadd"}, strategy=strategy)
                )
                assert response["tier"] == "computed"
        workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        time.sleep(5.0)
        assert [p for p in workers if _alive(p)] == []
    finally:
        if proc.poll() is None or any(_alive(p) for p in workers):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
