"""End-to-end acceptance: ``repro profile`` span tree and counter reconciliation.

The ISSUE's acceptance criterion: profiling a Fig-9 workload must produce a
Perfetto-loadable trace whose span tree covers classify -> LASP decide ->
placement -> schedule -> walk (with the launch-walk child span), and a
counters file whose per-link inter-GPU byte totals sum exactly to
``RunResult.total_inter_gpu_bytes``.
"""

import json

import pytest

from repro import obs
from repro.engine.walk_memo import default_walk_memo
from repro.obs.counters import parse_key
from repro.obs.export import validate_counters, validate_trace
from repro.obs.profile import main as profile_main
from repro.obs.profile import parse_spec, run_profile
from repro.experiments.fig9 import FIG9_STRATEGIES
from repro.experiments.runner import scale_by_name


@pytest.fixture()
def fresh_obs_state():
    """Clear the process-wide walk memo (so walks actually run)."""
    default_walk_memo().clear()
    yield
    obs.disable()


REQUIRED_PATH_SUFFIXES = [
    ("classify",),
    ("plan", "lasp.decide"),
    ("plan", "placement"),
    ("plan", "schedule"),
    ("run", "launch", "walk"),
    ("run", "launch", "walk", "native_walk"),
    ("run", "launch", "finalize"),
]


class TestRunProfile:
    def test_span_tree_and_counter_reconciliation(self, fresh_obs_state):
        workload, strategies = parse_spec("fig9:conv")
        assert strategies == list(FIG9_STRATEGIES)
        prof = run_profile(workload, strategies, scale_by_name("test"))

        paths = {ev["path"] for ev in prof.session.tracer.events()}
        for suffix in REQUIRED_PATH_SUFFIXES:
            assert any(
                p[-len(suffix):] == suffix for p in paths
            ), f"no span path ends with {suffix}; got {sorted(paths)}"

        # Per-strategy inter-GPU link-byte totals reconcile exactly.
        snap = prof.session.counters.snapshot()
        for name, result in prof.results.items():
            total = 0
            for key, value in snap.items():
                cname, labels = parse_key(key)
                if (
                    cname == "walk.link.bytes"
                    and labels.get("link") == "inter_gpu"
                    and labels.get("strategy") == name
                ):
                    total += value
            assert total == result.total_inter_gpu_bytes, name

        # A manifest is attached to every result.
        for result in prof.results.values():
            assert result.manifest["schema"] == "repro-manifest-v1"
            assert result.manifest["strategy"] == result.strategy
            assert result.manifest["config"]["num_nodes"] > 0

    def test_cli_writes_valid_artifacts(self, fresh_obs_state, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        counters_path = tmp_path / "c.json"
        code = profile_main(
            [
                "fig9:conv", "--scale", "test",
                "--trace", str(trace_path),
                "--counters", str(counters_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classify" in out and "walk" in out  # flame summary printed

        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        names = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
        assert {"classify", "lasp.decide", "placement", "schedule",
                "walk", "native_walk"} <= names

        counters = json.loads(counters_path.read_text())
        assert validate_counters(counters) == []
        assert counters["manifest"]["program"] == "conv"
        inter = sum(
            v for k, v in counters["counters"].items()
            if k.startswith("walk.link.bytes") and "link=inter_gpu" in k
        )
        assert inter > 0

        # The CLI leaves the process-wide session disabled.
        assert not obs.current().enabled

    def test_plain_spec_uses_default_trio(self):
        workload, strategies = parse_spec("conv")
        assert workload == "conv"
        assert strategies == ["H-CODA", "LADM", "Monolithic"]


class TestRunMatrixObsDir:
    def test_per_workload_trace_and_counter_files(self, fresh_obs_state, tmp_path):
        from repro.experiments.runner import run_matrix
        from repro.topology.config import bench_hierarchical
        from repro.workloads.suite import get_workload

        workloads = [get_workload("conv"), get_workload("scalarprod")]
        strategies = [("LADM", bench_hierarchical())]
        run_matrix(
            workloads, strategies, scale_by_name("test"),
            obs_dir=str(tmp_path),
        )
        for w in workloads:
            trace = json.loads((tmp_path / f"{w.name}.trace.json").read_text())
            counters = json.loads((tmp_path / f"{w.name}.counters.json").read_text())
            assert validate_trace(trace) == []
            assert validate_counters(counters) == []
            assert counters["manifest"]["program"] == w.name
        # The matrix run leaves the process-wide session disabled.
        assert not obs.current().enabled
