"""Output checks for one benchmark run: artifact digests, agreement between
the stage reports, and the ground truth the workload generator implies.

Every check reads only the artifact directory and the generated inputs; none
imports regsent, so a defect in the program cannot hide in the checker.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Workload, normalize_place

PIPELINE_ONLY = ("summary.md",)  # the stage sequence writes everything else too


def artifact_digest(directory: Path, exclude: tuple[str, ...] = ()) -> str:
    """sha256 over (file name, file sha256) of every artifact, sorted by name."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name in exclude:
            continue
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_reports(out: Path) -> list[str]:
    """Problems found when the per-stage reports and artifacts are compared."""
    problems: list[str] = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    ingest = _json(out, "ingest_report.json")
    clean = _json(out, "clean_report.json")
    classify = _json(out, "classify_report.json")
    agg = _json(out, "aggregate_report.json")
    shift = _json(out, "shift_summary.json")

    expect("clean input vs ingest located", clean["input"], ingest["located"])
    clean_rows = _jsonl(out / "clean.jsonl")
    expect("clean.jsonl rows vs clean input", len(clean_rows), clean["input"])
    classifiable = sum(1 for r in clean_rows if r["rejected"] is None and r["tokens"])
    expect("classified vs accepted posts with tokens", classify["classified"], classifiable)

    predictions = _csv(out / "predictions.csv")
    expect("predictions.csv rows vs classified", len(predictions), classify["classified"])
    label_counts: dict[str, int] = {}
    for row in predictions:
        label_counts[row["label"]] = label_counts.get(row["label"], 0) + 1
        if row["p_positive"]:
            implied = "positive" if float(row["p_positive"]) > 0.5 else "negative"
            if row["label"] != implied:
                problems.append(f"prediction {row['id']}: label {row['label']} but p_positive {row['p_positive']}")
    expect("classify predicted counts vs predictions.csv labels",
           {k: v for k, v in classify["predicted"].items() if v}, label_counts)

    expect("aggregate observations + neutral_skipped vs classified",
           agg["observations"] + agg["neutral_skipped"], classify["classified"])
    regions = _csv(out / "region_sentiment.csv")
    counted = sum(int(r[k]) for r in regions for k in ("n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after"))
    expect("region_sentiment counts vs observations - without_region",
           counted, agg["observations"] - agg["without_region"])
    expect("region_sentiment rows vs regions", len(regions), agg["regions"])

    tests = _csv(out / "shift_tests.csv")
    expect("shift_tests.csv regions vs region_sentiment.csv",
           [r["region_id"] for r in tests], [r["region_id"] for r in regions])
    tested = [r["region_id"] for r in tests if r["chi2"]]
    included = [r["region_id"] for r in regions if r["included"] == "True"]
    expect("shift_tests.csv tested rows vs included regions", tested, included)
    expect("shift_summary n_tested vs included regions", shift["n_tested"], agg["included_regions"])
    return problems


def check_ground_truth(out: Path, workload: Workload) -> list[str]:
    """Problems against what the generator guarantees about its inputs."""
    problems: list[str] = []
    posts = _jsonl(workload.directory / "posts.jsonl")
    declared = [p for p in posts if p.get("place") and str(p.get("lang", "")).lower() == "pl"]
    located = _jsonl(out / "located.jsonl")
    if [p["id"] for p in located] != [p["id"] for p in declared]:
        problems.append(f"located posts: {len(located)} rows, expected the {len(declared)} located pl posts in input order")
    wrong = [
        (row["id"], row["region"])
        for row in located
        if row["region"] != workload.expected_region.get(normalize_place(row["place"]), "")
    ]
    if wrong:
        problems.append(f"{len(wrong)} located posts resolved to the wrong region, first {wrong[0]}")
    if workload.accuracy_floor is not None:
        accuracy = {(r["model"], r["dataset"]): float(r["accuracy"]) for r in _csv(out / "eval.csv")}
        final = accuracy.get(("final", "heldout"), accuracy.get(("base", "heldout")))
        if final is None or final < workload.accuracy_floor:
            problems.append(f"held-out accuracy {final} below the generator's floor {workload.accuracy_floor}")
    return problems


def check_run(out: Path, workload: Workload) -> list[str]:
    """Every check that one artifact directory must pass."""
    try:
        return check_reports(out) + check_ground_truth(out, workload)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed artifact
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
