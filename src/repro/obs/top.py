"""``repro top <host:port>``: a live console view of a running server.

Polls the ``stats`` admin op over the JSON-lines protocol and renders a
compact dashboard -- answered totals, per-tier counts and window rates,
the sliding-window latency quantile ladder per tier, and the SLO burn
state -- redrawing in place every ``--interval`` seconds (ANSI home+clear,
like ``top``).  ``--once`` prints a single frame (scripts, CI logs);
``--count N`` stops after N frames.

Read-only: it never issues ``query`` or ``shutdown``, so it is safe to
point at a production server mid-benchmark.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.serve.client import ServeClient, ServeError

__all__ = ["render_stats", "main"]

_STATE_MARK = {"ok": "OK ", "warn": "WARN", "breach": "FAIL"}


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f}ms"


def render_stats(stats: Dict, endpoint: str = "") -> str:
    """One dashboard frame from a ``stats`` payload (no ANSI codes)."""
    lines: List[str] = []
    slo = stats.get("slo", {})
    state = slo.get("state", "ok")
    lines.append(
        f"repro top {endpoint}  up {stats.get('uptime_s', 0.0):7.1f}s  "
        f"answered {stats.get('answered', 0)}  "
        f"hit-rate {stats.get('tier_hit_rate', 0.0):5.1%}  "
        f"slo [{_STATE_MARK.get(state, state)}]"
    )
    rates = stats.get("rates_qps", {})
    lines.append(
        f"{'tier':<10} {'count':>8} {'qps':>8} "
        f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}   (window)"
    )
    latency = stats.get("latency", {})
    for tier, count in (stats.get("tiers") or {}).items():
        window = (latency.get(tier) or {}).get("window") or {}
        qps = rates.get(f"serve.rate{{tier={tier}}}", 0.0)
        if window.get("count"):
            quants = " ".join(
                _fmt_ms(window.get(q, 0.0)) for q in ("p50", "p95", "p99", "max")
            )
        else:
            quants = f"{'-':>10} {'-':>10} {'-':>10} {'-':>10}"
        lines.append(f"{tier:<10} {count:>8} {qps:>8.1f} {quants}")
    dedup = stats.get("dedup_ratio")
    store = stats.get("store") or {}
    line = f"memory {stats.get('memory_entries', 0)} entries"
    if dedup:
        line += f"  dedup {dedup:.2f}x"
    if store:
        line += (
            f"  store hits/misses {store.get('hits', 0)}/{store.get('misses', 0)} "
            f"({store.get('entries', 0)} entries, {store.get('bytes', 0)} B)"
        )
    lines.append(line)
    for spec in slo.get("specs", []):
        burn = spec.get("burn")
        burn_s = f"{burn:.2f}" if burn is not None else "-"
        lines.append(
            f"  slo {_STATE_MARK.get(spec.get('state'), '?'):<4} "
            f"{spec.get('name', '?'):<28} burn={burn_s:<6} {spec.get('detail', '')}"
        )
    return "\n".join(lines)


def _parse_endpoint(value: str) -> tuple:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"{value!r} is not host:port (e.g. 127.0.0.1:7653)"
        )
    return host or "127.0.0.1", int(port)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="live telemetry view of a running repro serve endpoint",
    )
    parser.add_argument(
        "endpoint", type=_parse_endpoint, help="host:port of the server"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="seconds between frames"
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    parser.add_argument(
        "--count", type=int, default=0, help="stop after N frames (0 = forever)"
    )
    args = parser.parse_args(argv)
    host, port = args.endpoint
    frames = 1 if args.once else args.count
    shown = 0
    live = not args.once and sys.stdout.isatty()
    try:
        while True:
            try:
                with ServeClient(host, port, timeout_s=10.0) as client:
                    stats = client.stats()
            except (ServeError, OSError) as exc:
                print(f"repro top: {host}:{port} unreachable: {exc}",
                      file=sys.stderr)
                return 1
            frame = render_stats(stats, endpoint=f"{host}:{port}")
            if live:
                sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
                sys.stdout.flush()
            else:
                print(frame, flush=True)
            shown += 1
            if frames and shown >= frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
