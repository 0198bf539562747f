"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import trace_cache, walk_memo


SEEDED_BUGS = '''
"""Deliberately buggy programs for exercising `repro lint`."""

from repro.kir.expr import BDX, BX, BY, M, TX, param
from repro.kir.kernel import AccessMode, Dim2, GlobalAccess, Kernel, LoopSpec
from repro.kir.program import Program

T = param("trip")


def build_oob():
    # off-by-one: the last thread reads one element past the allocation
    k = Kernel(name="oob", block=Dim2(64), arrays={"A": 4},
               accesses=[GlobalAccess("A", BX * BDX + TX + 1, AccessMode.READ)])
    p = Program("oob")
    p.malloc_managed("A", 8 * 64, 4)
    p.launch(k, Dim2(8), {"A": "A"})
    return p


def build_racy():
    # every block writes bins 0..63 without atomics
    k = Kernel(name="racy", block=Dim2(64), arrays={"BINS": 4},
               accesses=[GlobalAccess("BINS", TX, AccessMode.WRITE)])
    p = Program("racy")
    p.malloc_managed("BINS", 64, 4)
    p.launch(k, Dim2(8), {"BINS": "BINS"})
    return p


def build_diagonal():
    # anti-diagonal blocks share footprints; Algorithm 1 claims no-locality
    k = Kernel(name="diag", block=Dim2(16, 1), arrays={"A": 4},
               accesses=[GlobalAccess("A", (BX + BY) * BDX + TX,
                                      AccessMode.READ)])
    p = Program("diag")
    p.malloc_managed("A", 128, 4)
    p.launch(k, Dim2(4, 4), {"A": "A"})
    return p


def build_stride0():
    # in-loop write whose index never moves: a wrong (zero) stride
    k = Kernel(
        name="stride0", block=Dim2(64), arrays={"OUT": 4, "IN": 4},
        accesses=[
            GlobalAccess("OUT", BX * BDX + TX, AccessMode.WRITE, in_loop=True),
            GlobalAccess("IN", (BX * BDX + TX) * 4 + M, AccessMode.READ,
                         in_loop=True),
        ],
        loop=LoopSpec(T),
    )
    p = Program("stride0")
    p.malloc_managed("OUT", 8 * 64, 4)
    p.malloc_managed("IN", 4 * 8 * 64, 4)
    p.launch(k, Dim2(8), {"OUT": "OUT", "IN": "IN"}, {T: 4})
    return p
'''


@pytest.fixture
def seeded_bugs(tmp_path):
    path = tmp_path / "seeded_bugs.py"
    path.write_text(SEEDED_BUGS)
    return str(path)


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.targets == [] and not args.strict
        assert args.scale == "test" and args.suppress == []

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "vecadd"])
        assert args.strategy == ["H-CODA", "LADM", "Monolithic"]
        assert args.scale == "test"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_output(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "vecadd" in out and "LADM" in out

    def test_classify_output(self, capsys):
        main(["classify", "sq_gemm"])
        out = capsys.readouterr().out
        assert "RCL-row-h" in out and "RCL-col-v" in out

    def test_run_output(self, capsys):
        main(["run", "vecadd", "--strategy", "LADM"])
        out = capsys.readouterr().out
        assert "LADM" in out

    def test_table2_forwarded(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "all rows match Table II: True" in out

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "not_a_workload"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown workload 'not_a_workload'")
        assert err.count("\n") == 1

    def test_unknown_engine_env_is_a_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(SystemExit) as exc:
            main(["run", "vecadd", "--strategy", "LADM"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err == (
            "repro: error: unknown engine 'bogus'; "
            "choose from ('vector', 'legacy')\n"
        )
        assert "Traceback" not in out + err


RUN = ["run", "vecadd", "--scale", "test", "--strategy", "LADM"]


class TestMalformedEnvInts:
    """Integer ``REPRO_*`` knobs fail as one typed error line, not a traceback."""

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("REPRO_TRACE_CACHE_MB", "abc", RUN),
            ("REPRO_TRACE_CACHE_MB", "-1", RUN),
            ("REPRO_WALK_MEMO_ENTRIES", "abc", RUN),
        ],
    )
    def test_one_line_error(self, name, value, argv, monkeypatch, capsys):
        # The process-wide caches read their knob on first construction.
        monkeypatch.setattr(trace_cache, "_DEFAULT_CACHE", None)
        monkeypatch.setattr(walk_memo, "_DEFAULT_MEMO", None)
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err == f"repro: error: {name}={value!r} is not a non-negative integer\n"
        assert "Traceback" not in out + err


class TestLint:
    def test_single_workload_is_clean(self, capsys):
        main(["lint", "vecadd", "--strict"])
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "1 program(s)" in out

    def test_whole_suite_is_strict_clean(self, capsys):
        main(["lint", "--strict"])
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "27 program(s)" in out

    def test_seeded_bugs_exact_diagnostics(self, seeded_bugs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", seeded_bugs, "--strict"])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if " lint:" not in l]
        # exactly one finding per seeded bug, with the right rule and
        # file:kernel:access provenance
        assert sum("SAFE-OOB" in l for l in lines) == 1
        assert sum("SAFE-RACE" in l for l in lines) == 1
        assert sum("ORACLE-LOCALITY" in l for l in lines) == 1
        assert sum("SAFE-STRIDE0" in l for l in lines) == 1
        assert any(f"{seeded_bugs}!build_oob:oob:A[0] ERROR SAFE-OOB" in l
                   for l in lines)
        assert any(f"{seeded_bugs}!build_racy:racy:BINS" in l for l in lines)
        assert "3 error(s), 1 warning(s)" in out

    def test_non_strict_reports_but_exits_zero(self, seeded_bugs, capsys):
        main(["lint", seeded_bugs])  # must not raise
        assert "SAFE-OOB" in capsys.readouterr().out

    def test_suppression_flag(self, seeded_bugs, capsys):
        with pytest.raises(SystemExit):
            main(["lint", seeded_bugs, "--strict", "--suppress", "SAFE-OOB",
                  "--suppress", "ORACLE-LOCALITY", "--suppress", "SAFE-STRIDE0"])
        out = capsys.readouterr().out
        assert "SAFE-OOB" not in out and "SAFE-RACE" in out
        assert "3 suppressed" in out

    def test_unknown_target_errors(self):
        with pytest.raises(SystemExit):
            main(["lint", "not_a_workload_or_file"])
