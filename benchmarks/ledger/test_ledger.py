"""Harness tests: ``PYTHONPATH=src python -m pytest benchmarks/ledger``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.ledger.compare import RefusedError, compare, verdict
from benchmarks.ledger.core import GOLDEN_PATH, MAIN, ROOT, WORKLOADS, child_env, load_spec

SPEC = load_spec()


def _ledger(*args, timeout=600):
    return subprocess.run(
        [sys.executable, MAIN, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "run.json"
    proc = _ledger("run", "--smoke", "--traced", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_smoke_emits_every_metric_with_units(smoke):
    doc, stdout = smoke
    assert set(doc["workloads"]) == set(WORKLOADS)
    for workload, runs in doc["workloads"].items():
        for section, run in (("end_to_end", runs["untraced"]), ("per_layer", runs["traced"])):
            assert run["correct"], (workload, run["errors"], run["invalid"])
            for metric in SPEC[section]:
                got = run["metrics"].get(metric["name"])
                assert got is not None, (workload, metric["name"])
                assert got["unit"] == metric["unit"], (workload, metric["name"])
                line = f"{workload} {metric['name']} {got['value']!r} {metric['unit']}"
                assert line in stdout.splitlines()
        assert runs["untraced"]["metrics"]["error_rate"]["value"] == 0
        assert runs["untraced"]["info"]["workload_digest"] == runs["traced"]["info"]["workload_digest"]


def test_smoke_layer_counts_match_the_design(smoke):
    doc, _ = smoke
    traced = {w: runs["traced"]["metrics"] for w, runs in doc["workloads"].items()}
    assert traced["oneshot-cold"]["engine.trace.reuse_hits"]["value"] == 0
    assert traced["oneshot-cold"]["engine.walk_memo.hits"]["value"] == 0
    assert traced["fig9-sweep"]["engine.trace.reuse_hits"]["value"] > 0
    assert traced["serve-warm"]["serve.tier.computed.count"]["value"] == 0
    for workload in ("fig9-sweep", "oneshot-cold"):
        assert traced[workload]["unattributed_frac"]["value"] <= 0.05


def test_result_line_is_last_and_tampered_golden_fails(tmp_path):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    key = "conv/H-CODA"
    golden["test"][key] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    args = ["--workload", "fig9-sweep", "--seed", "0", "--trace", "0", "--smoke"]

    good = _ledger(*args)
    assert good.returncode == 0, good.stderr
    result = json.loads(good.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 15
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    bad = _ledger(*args, "--golden", str(tampered))
    assert bad.returncode != 0
    result = json.loads(bad.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert key in bad.stderr


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]


def _with_wins(wins: int):
    """A change 5% faster than the parent in ``wins`` of 10 pairs, slower in the rest."""
    return [p * 0.95 if i < wins else p * 1.01 for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("wins,expected", [(10, "improved"), (9, "improved"), (8, "unchanged")])
def test_verdict_by_win_count(wins, expected):
    row = verdict(PARENT, _with_wins(wins), "lower", 0.1)
    assert row["wins"] == wins
    assert row["verdict"] == expected


def test_verdict_regressed_and_unresolved():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1)["verdict"] == "regressed"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(PARENT, [p * 1.05 for p in PARENT], "higher", 0.1)["verdict"] == "improved"


def _docs(values, seed=0, digest="d"):
    return [
        {
            "seed": seed,
            "workloads": {
                "fig9-sweep": {
                    "untraced": {
                        "info": {"workload_digest": digest},
                        "metrics": {"wall_s": {"value": v, "unit": "s"}},
                    }
                }
            },
        }
        for v in values
    ]


def test_compare_rows_and_refusals():
    rows = compare(_docs(PARENT), _docs(_with_wins(10)), SPEC)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("fig9-sweep", "wall_s", "improved")
    ]
    with pytest.raises(RefusedError):
        compare(_docs(PARENT), _docs(PARENT, seed=1), SPEC)
    with pytest.raises(RefusedError):
        compare(_docs(PARENT), _docs(PARENT, digest="other"), SPEC)
    with pytest.raises(RefusedError):
        compare(_docs(PARENT[:9]), _docs(PARENT[:9]), SPEC)


def test_compare_cli_reads_directories(tmp_path):
    for side, values in (("a", PARENT), ("b", _with_wins(9))):
        os.makedirs(tmp_path / side)
        for i, doc in enumerate(_docs(values)):
            (tmp_path / side / f"run{i:02d}.json").write_text(json.dumps(doc))
    proc = _ledger("compare", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert "improved" in proc.stdout
