"""Tests of the benchmark itself (not part of regsent's own suite):

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import tracing
import workloads
from conftest import BENCHMARK_DIR, REPO_ROOT
import run
from run import Runner

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def test_self_times_of_a_synthetic_span_tree_are_exact():
    spans = [
        (0, None, "cli.main", 0, 100),
        (1, 0, "pipeline.stage_train", 10, 40),
        (2, 1, "sentiment.predict", 15, 25),
        (3, 1, "sentiment.predict", 30, 32),
        (4, 0, "pipeline.stage_classify", 50, 60),
        (5, 0, "pipeline.stage_aggregate", 55, 70),  # overlaps its sibling: covered once
        (6, 4, "sentiment.predict", 52, 58),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 18, 2: 10, 3: 2, 4: 4, 5: 15, 6: 6}


def test_span_metrics_do_not_count_recursion_twice():
    doc = {
        "spans": [
            (0, None, "cli.main", 0, 1_000_000_000),
            (1, 0, "stats.student_t_sf", 100, 500_000_100),
            (2, 1, "stats.student_t_sf", 200, 300_000_200),
        ],
        "hits": {},
        "warnings": {"corpus.warn_importance_tie.count": 3},
    }
    m = tracing.span_metrics(doc)
    assert m["stats.student_t_sf.s"] == 0.5
    assert m["stats.student_t_sf.calls"] == 2
    assert m["stats.student_t_sf.self_s"] == 0.5
    assert m["layer.stats.self_s"] == 0.5
    assert m["layer.cli.share"] == 0.5
    assert m["corpus.warn_importance_tie.count"] == 3
    assert m["sentiment.predict.calls"] == 0


def test_fill_scales_each_sample_by_the_calibrations_around_it(monkeypatch):
    ref = run.CALIBRATION_REFERENCE_S
    calibrations = iter([ref, 2 * ref, 2 * ref, ref])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    steps = [("a", lambda: 3.0), ("b", lambda: 4.0), ("c", lambda: 6.0)]
    samples = run._fill(deadline=0.0, steps=steps)  # past deadline: each step runs once
    assert samples == {"a": [pytest.approx(2.0)], "b": [pytest.approx(2.0)], "c": [pytest.approx(4.0)]}


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.25}
    parent = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]
    assert compare.verdict(spec, parent, [v * 1.3 for v in parent]) == "regression"
    assert compare.verdict(spec, parent, [v * 0.8 for v in parent]) == "gain"
    assert compare.verdict(spec, parent, parent[1:] + parent[:1]) == "same"
    assert compare.verdict({"better": "higher"}, parent, [v * 0.5 for v in parent]) == "same"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_expected_region_takes_max_importance_then_smallest_region_id():
    rows = [("Wola", "B2", 0.5), ("wola", "A1", 0.5), ("wola", "C3", 0.2), ("Lipno", "Z9", 0.1)]
    assert workloads.expected_regions(rows) == {"wola": "A1", "lipno": "Z9"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_seeded(tmp_path, name):
    a = workloads.generate(name, tmp_path / "a", seed=5, scale=0.05)
    b = workloads.generate(name, tmp_path / "b", seed=5, scale=0.05)
    c = workloads.generate(name, tmp_path / "c", seed=6, scale=0.05)
    assert a.inputs_sha256() == b.inputs_sha256() != c.inputs_sha256()


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_inputs_match_the_recorded_sizes_and_digest(tmp_path, name):
    reference = json.loads((BENCHMARK_DIR / "workloads.json").read_text(encoding="utf-8"))[name]
    wl = workloads.generate(name, tmp_path, seed=reference["seed"])
    assert wl.sizes == reference["sizes"]
    assert wl.inputs_sha256() == reference["sha256"]
    assert reference["why"] == workloads.WHY[name]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A tiny posts-20k run, produced through the benchmark's own Runner."""
    work = tmp_path_factory.mktemp("work")
    wl = workloads.generate("posts-20k", work / "inputs", seed=2, scale=0.05)
    with Runner(REPO_ROOT, work, wl) as runner:
        runner.pipeline()
    assert (runner.attempted, runner.failed) == (1, 0)
    return wl, work / "pipeline"


def _corrupted(tmp_path: Path, out: Path, name: str, edit) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def _flip_first_label(text: str) -> str:
    rows = list(csv.reader(text.splitlines()))
    rows[1][1] = "negative" if rows[1][1] == "positive" else "positive"
    return "".join(",".join(row) + "\n" for row in rows)


def _move_first_post(text: str) -> str:
    lines = text.splitlines()
    first = json.loads(lines[0])
    first["region"] = "R99" if first["region"] != "R99" else "R01"
    return "\n".join([json.dumps(first, ensure_ascii=False), *lines[1:]]) + "\n"


def test_clean_run_passes_every_check(pipeline_run):
    wl, out = pipeline_run
    assert checks.check_run(out, wl) == []


@pytest.mark.parametrize("name, edit", [
    ("predictions.csv", _flip_first_label),
    ("located.jsonl", _move_first_post),
    ("classify_report.json", lambda t: t.replace('"classified": ', '"classified": 1')),
])
def test_corrupted_artifact_is_a_failed_run(tmp_path, pipeline_run, name, edit):
    wl, out = pipeline_run
    bad = _corrupted(tmp_path, out, name, edit)
    assert checks.check_run(bad, wl) != []

    runner = Runner(REPO_ROOT, tmp_path, wl)
    runner.verify("pipeline", bad, 0)
    assert (runner.attempted, runner.failed) == (1, 1)

    runner = Runner(REPO_ROOT, tmp_path, wl)
    runner.verify("pipeline", out, 0)
    runner.verify("pipeline", bad, 0)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_stage_digest_ignores_only_the_pipeline_summary(tmp_path, pipeline_run):
    _, out = pipeline_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "summary.md").unlink()
    assert checks.artifact_digest(copy) == checks.artifact_digest(out, checks.PIPELINE_ONLY)
    assert checks.artifact_digest(copy) != checks.artifact_digest(out)


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_end_to_end_run_passes_every_check(name):
    result = _result(run_benchmark(REPO_ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", "0", "--scale", "0.05"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4  # set-up, pipeline, set-up, stage sequence
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    result = _result(run_benchmark(REPO_ROOT, "--workload", "vocab-logistic", "--seed", "3", "--seconds", "1",
                                   "--trace", "1", "--scale", "0.05"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # nested calls are traced: evaluate/pseudo_label -> predict, stepwise -> subset_design, ols -> student_t_sf
    assert metrics["sentiment.predict.calls"] > metrics["preprocess.clean_text.calls"] / 2
    assert metrics["stats.subset_design.calls"] > 0 and metrics["stats.student_t_sf.calls"] > 0
    assert metrics["sentiment.logistic_loss_and_grad.calls"] == 2 * 300
    assert metrics["corpus.load_region_table.calls"] == 3
    assert metrics["preprocess.emoji_report.calls"] == 2


def test_without_a_source_tree_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCHMARK_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "communes", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
