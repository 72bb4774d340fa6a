"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Not part of the tier-1 suite (pytest collects only tests/ by default).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run  # first: puts src/ on the path

import layertrace
from logvar.taxonomy import Tag

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = run.Sizes(pool=60, bulk_lines=20, stream_lines=6, train_logs=16, val_logs=8,
                 min_stream_samples=6, stream_block=2)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    # children run in this process, so that the patches below reach them
    monkeypatch.setattr(run, "spawn", run.child)
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # sixteen training logs cannot reach the full-size accuracy floor
    monkeypatch.setitem(run.VAR_ACC_FLOOR, "train", 0.0)
    return tmp_path


def bench(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.05",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_the_benchmark_file():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(capsys, workload):
    code, result = bench(capsys, workload, 0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # var_acc may be 0 after one tiny training epoch; every time is positive
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "var_acc")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, tiny, workload):
    code, result = bench(capsys, workload, 1)
    assert code == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((tiny / f"{workload}-seed5-trace1.json").read_text(encoding="utf-8"))
    assert record["unmeasured"] == []
    assert record["zero_call_flags"] == []
    for name, (unit, better, hooks) in layertrace.PER_LAYER.items():
        exercised = all(workload in w for h, _, _, w in layertrace.HOOKS if h in hooks)
        if hooks and exercised:
            assert result["metrics"][name]["value"] > 0, name


def test_tampered_tag_sequence_trips_the_check():
    line = "freed 12 MB"
    good = [Tag("O"), Tag("B", "CRS"), Tag("I", "CRS")]
    run.check_tags(line, line.split(), good)
    with pytest.raises(run.CheckFailed):
        run.check_tags(line, line.split(), [Tag("O"), Tag("I", "CRS"), Tag("I", "CRS")])
    with pytest.raises(run.CheckFailed):
        run.check_tags(line, line.split(), good[:2])


def test_tampered_output_fails_the_run(capsys, monkeypatch):
    real = run.tag_log

    def tampered(model, raw):
        out = real(model, raw)
        return SimpleNamespace(tokens=out.tokens, tags=(Tag("I", "OID"),) + out.tags[1:])

    monkeypatch.setattr(run, "tag_log", tampered)
    code, result = bench(capsys, "stream-long", 0)
    assert code == 1 and result["correct"] is False


def test_missing_hook_is_unmeasured_not_a_crash(capsys, tiny, monkeypatch):
    hooks = tuple(
        (h, m, "viterbi_renamed" if h == "crf.viterbi" else p, w)
        for h, m, p, w in layertrace.HOOKS
    )
    monkeypatch.setattr(layertrace, "HOOKS", hooks)
    code, result = bench(capsys, "parse-bulk", 1)
    assert code == 0
    record = json.loads((tiny / "parse-bulk-seed5-trace1.json").read_text(encoding="utf-8"))
    assert record["unmeasured"] == ["crf.viterbi.ms_per_log"]
    assert result["metrics"]["crf.viterbi.ms_per_log"]["value"] == 0.0


def test_train_hooks_resolve_the_module_not_the_reexported_function():
    owner, attr = layertrace._resolve("logvar.train", "clip_global_norm")
    assert owner.__name__ == "logvar.train" and attr == "clip_global_norm"
