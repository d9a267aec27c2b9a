"""CLI behavior: exit codes, wire formats, stage composition, and the
regression subcommands on the replication fixture."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import logging
import os
import shutil
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCK_NUMPY, generative_corpus, run_cli, run_python
from regsent import cli, pipeline, sentiment
from regsent.errors import ConfigError
from regsent.fixtures import write_corpus_fixture
from regsent.pipeline import PipelineConfig, load_config
from replication import TABLE_BETAS, write_replication_fixture


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fixture")
    write_corpus_fixture(directory, seed=13)
    return directory


@pytest.fixture(scope="module")
def pipeline_out(fixture_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipeline_out")
    result = run_cli(["pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    return out


# the README stage sequence, each subcommand as its argv
STAGES = [
    ["ingest"], ["clean"], ["report", "hashtags"], ["report", "emojis"],
    ["train"], ["classify"], ["aggregate"], ["shift-test"], ["regress"], ["stepwise"],
]
SENTIMENT_HEADER = "region_id,n_pos_before,n_neg_before,n_pos_after,n_neg_after,mean_sentiment,included"


def read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


# the stage that reads each configured input first; "posts_csv" is the posts file in CSV form
_READING_STAGE = {
    "posts": "ingest", "posts_csv": "ingest", "gazetteer": "ingest", "region_table": "ingest",
    "dictionary": "clean", "lemmas": "clean", "stop_words": "clean", "conjunctions": "clean",
    "emoji_polarity": "clean", "training_data": "train", "external_predictions": "import-predictions",
}


def run_reading_stage(fixture_dir: Path, pipeline_out: Path, out: Path, key: str, path: Path) -> tuple[int, str]:
    """(exit code, stderr) of the stage that reads input `key`, given as `path`, after the fixture's earlier stages."""
    out.mkdir()
    for name in ("located.jsonl", "clean.jsonl"):
        shutil.copyfile(pipeline_out / name, out / name)
    overrides = [f"paths.posts={path}", "posts_format=csv"] if key == "posts_csv" else [f"paths.{key}={path}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*_READING_STAGE[key].split(), "--config", str(fixture_dir / "config.json"), "--out", str(out),
                         *(arg for item in overrides for arg in ("--set", item))])
    return code, err.getvalue()


def read_all(directory: Path) -> dict[str, bytes]:
    """File name -> bytes of every file in `directory`."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def fixture_posts(fixture_dir: Path) -> list[dict]:
    """The records of the fixture's posts.jsonl."""
    with (fixture_dir / "posts.jsonl").open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def nested_types(value):
    """The type of `value` and, inside a list, tuple or dict, of every element, key and value, nested alike."""
    if isinstance(value, (list, tuple)):
        return type(value), [nested_types(item) for item in value]
    if isinstance(value, dict):
        return dict, [(type(key), nested_types(item)) for key, item in value.items()]
    return type(value)


def write_posts_csv(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


class TestErrorContract:
    def test_missing_config_exits_one(self, tmp_path):
        result = run_cli(["pipeline", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert result.returncode == 1
        assert result.stderr.startswith("regsent: error[config]:")
        assert result.stderr.count("\n") == 1

    def test_unknown_subcommand_usage_error(self):
        result = run_cli(["transmogrify"])
        assert result.returncode == 1
        assert result.stderr.startswith("regsent: error[usage]:")

    def test_unexpected_exception_exits_four_with_one_line(self, fixture_dir, tmp_path, monkeypatch, capsys):
        def broken_stage(cfg, out_dir):
            raise RuntimeError("stage blew up\nsecond line")

        monkeypatch.setattr(pipeline, "stage_ingest", broken_stage)
        code = cli.main(["ingest", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "regsent: error[internal]: RuntimeError: stage blew up second line\n"

    def test_config_path_with_a_line_break_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "c\nd.json"
        config.write_text("{", encoding="utf-8")
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"regsent: error[config]: config {tmp_path}{os.sep}c d.json is not valid JSON: ")
        assert err.count("\n") == 1

    def test_input_path_with_a_line_break_is_one_line(self, fixture_dir, tmp_path, capsys):
        fixture = tmp_path / "in\nput"
        shutil.copytree(fixture_dir, fixture)
        lines = (fixture / "posts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (fixture / "posts.jsonl").write_text("".join(lines + lines[:1]), encoding="utf-8")
        code = cli.main(["ingest", "--config", str(fixture / "config.json"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        posts = str(fixture / "posts.jsonl").replace("\n", " ")
        post_id = json.loads(lines[0])["id"]
        assert err == (f"regsent: error[data]: {posts}:{len(lines) + 1}: "
                       f"duplicate post id {post_id!r}, first used at line 1\n")

    @pytest.mark.parametrize("command", ["ingest", "pipeline", "make-fixture"])
    @pytest.mark.parametrize("shape, blocker", [("afile", "afile"), ("afile/sub", "afile"), ("dangling", "dangling")])
    def test_out_that_is_not_a_directory_exits_one(self, fixture_dir, tmp_path, capsys, command, shape, blocker):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        out = tmp_path / shape
        config = [] if command == "make-fixture" else ["--config", str(fixture_dir / "config.json")]
        code = cli.main([command, *config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"regsent: error[config]: --out {str(out)!r}: {str(tmp_path / blocker)!r} is not a directory\n"

    @pytest.mark.parametrize("posts", ["0", "-1"])
    def test_make_fixture_without_posts_is_usage_error(self, tmp_path, capsys, posts):
        code = cli.main(["make-fixture", "--out", str(tmp_path / "fixture"), "--posts", posts])
        assert code == 1
        assert capsys.readouterr().err == f"regsent: error[usage]: argument --posts: must be at least 1, got {posts}\n"
        assert not (tmp_path / "fixture").exists()

    def test_bad_external_label_exits_two(self, fixture_dir, pipeline_out, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "clean.jsonl").write_bytes((pipeline_out / "clean.jsonl").read_bytes())
        bad = tmp_path / "external.csv"
        bad.write_text("id,label\np000001,meh\n", encoding="utf-8")
        result = run_cli([
            "import-predictions", "--config", str(fixture_dir / "config.json"),
            "--out", str(out), "--set", f"paths.external_predictions={bad}",
        ])
        assert result.returncode == 2
        assert result.stderr.startswith("regsent: error[data]:")
        assert ":2:" in result.stderr  # offending line number

    def test_rank_deficiency_exits_three(self, tmp_path):
        table = tmp_path / "regions.csv"
        rows = ["region_id,population,outcome,col_a,col_b"]
        sentiment_rows = [
            "region_id,n_pos_before,n_neg_before,n_pos_after,n_neg_after,mean_sentiment,included"
        ]
        for i in range(12):
            a = 0.1 * i + 0.05
            rows.append(f"Q{i},1000,0.5,{a},{2 * a}")
            pos = 40 + (i * i) % 17  # keep sentiment non-collinear with col_a
            sentiment_rows.append(f"Q{i},{pos},{100 - pos},{pos},{100 - pos},{pos / 100},True")
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "paths": {"region_table": "regions.csv"},
            "regression": {"features": ["col_a", "col_b"], "standardize": False},
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "region_sentiment.csv").write_text("\n".join(sentiment_rows) + "\n", encoding="utf-8")
        result = run_cli(["regress", "--config", str(config), "--out", str(out)])
        assert result.returncode == 3
        assert result.stderr.startswith("regsent: error[numeric]:")
        assert "col_b" in result.stderr

    def test_diverging_logistic_training_exits_three_at_train(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        result = run_cli([
            "pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(out),
            "--set", "classifier.kind=logistic", "--set", "classifier.learning_rate=1e6",
        ])
        assert result.returncode == 3
        assert result.stderr.startswith("regsent: error[numeric]:")
        assert result.stderr.count("\n") == 1
        assert "classifier.learning_rate" in result.stderr
        assert (out / "emoji_whitelist.txt").exists()  # the stages before train ran
        assert not (out / "model.json").exists()

    def test_logistic_training_that_ends_worse_exits_three_naming_l2(self, fixture_dir, tmp_path, capsys):
        """l2=25 scales the weights by 1 - 0.1 * 25 each step: they stay finite while the loss grows."""
        out = tmp_path / "out"
        code = cli.main([
            "pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(out),
            "--set", "classifier.kind=logistic", "--set", "classifier.l2=25",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("regsent: error[numeric]: logistic training ended at loss ")
        assert err.count("\n") == 1 and "classifier.l2 (now 25.0)" in err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("row", ["ghost,positive,False,", "ghost,neutral,False,"])
    def test_prediction_for_unknown_post_exits_two_at_aggregate(self, fixture_dir, pipeline_out, tmp_path, capsys, row):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(pipeline_out / "located.jsonl", out / "located.jsonl")
        predictions = (pipeline_out / "predictions.csv").read_text(encoding="utf-8")
        (out / "predictions.csv").write_text(predictions + row + "\n", encoding="utf-8")
        code = cli.main(["aggregate", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "regsent: error[data]: prediction for unknown post id 'ghost'\n"
        assert not (out / "region_sentiment.csv").exists()

    def test_no_included_region_exits_two_naming_the_threshold(self, tmp_path, capsys):
        assert cli.main(["make-fixture", "--out", str(tmp_path / "fixture"), "--posts", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = cli.main(["pipeline", "--config", str(tmp_path / "fixture" / "config.json"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "regsent: error[data]: no region has more than 15 classified posts (thresholds.min_region_posts); "
            "nothing to regress\n"
        )
        assert json.loads((out / "aggregate_report.json").read_text(encoding="utf-8"))["included_regions"] == 0

    def test_malformed_model_exits_two_at_classify(self, fixture_dir, pipeline_out, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "clean.jsonl").write_bytes((pipeline_out / "clean.jsonl").read_bytes())
        model = json.loads((pipeline_out / "model.json").read_text(encoding="utf-8"))
        model["vocabulary"][next(iter(model["vocabulary"]))] = len(model["vocabulary"])
        (out / "model.json").write_text(json.dumps(model), encoding="utf-8")
        result = run_cli(["classify", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        assert result.returncode == 2
        assert result.stderr.startswith("regsent: error[data]:")
        assert result.stderr.count("\n") == 1

    def test_missing_intermediate_reported(self, fixture_dir, tmp_path):
        result = run_cli(["clean", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "empty")])
        assert result.returncode == 1
        assert "located.jsonl" in result.stderr

    @pytest.mark.parametrize("stage, missing", [
        ("clean", "located.jsonl"),
        ("report hashtags", "located.jsonl"),
        ("report emojis", "located.jsonl"),
        ("train", None),  # takes no intermediate
        ("classify", "model.json"),
        ("import-predictions", "clean.jsonl"),
        ("aggregate", "located.jsonl"),
        ("shift-test", "region_sentiment.csv"),
        ("regress", "region_sentiment.csv"),
        ("stepwise", "region_sentiment.csv"),
    ])
    def test_only_ingest_creates_out(self, fixture_dir, tmp_path, capsys, stage, missing):
        external = tmp_path / "external.csv"
        external.write_text("id,label\np000001,positive\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main([
            *stage.split(), "--config", str(fixture_dir / "config.json"), "--out", str(out),
            "--set", f"paths.external_predictions={external}",
        ])
        err = capsys.readouterr().err
        assert code == 1
        if missing is None:
            assert err == f"regsent: error[config]: --out {str(out)!r} does not exist; run ingest first\n"
        else:
            assert err == f"regsent: error[config]: missing intermediate {missing}; run the producing stage first\n"
        assert not out.exists()

    @pytest.mark.parametrize("stage, name, corrupt, reason", [
        ("shift-test", "region_sentiment.csv", lambda _: f"{SENTIMENT_HEADER}\nS0,x,25,25,25,0.5,True\n",
         "invalid literal for int() with base 10: 'x'"),
        ("shift-test", "region_sentiment.csv", lambda sentiment: sentiment + "S0,0,0,0,0,0.5,True\n",
         "region 'S0' has no classified posts"),
        ("regress", "region_sentiment.csv", lambda sentiment: sentiment + "S0,-50,25,25,25,0.5,True\n",
         "n_pos_before must not be negative, got -50"),
        ("stepwise", "region_sentiment.csv", lambda sentiment: sentiment + "S0,25,25,25,25,0.5,yes\n",
         "included must be True or False, got 'yes'"),
        ("clean", "located.jsonl", lambda located: located + '{"id": "p9", "text": \n', "Expecting value"),
        ("clean", "located.jsonl", lambda located: located + json.dumps(
            {**json.loads(located.splitlines()[0]), "id": "p9", "text": "good \ud800 day"}) + "\n",
         "lone surrogate '\\ud800'"),
        ("classify", "clean.jsonl", lambda clean: clean + json.dumps(
            {"id": "p9", "tokens": ["city"], "kept_emojis": [], "removed": {}, "rejected": 5}) + "\n",
         "rejected must be null, 'too_short' or 'misspelled', got 5"),
        ("classify", "clean.jsonl", lambda clean: clean + json.dumps(
            {"id": ["p9"], "tokens": ["city"], "kept_emojis": [], "removed": {}, "rejected": None}) + "\n",
         "id must be a string, got ['p9']"),
        *[(stage, "region_sentiment.csv", lambda sentiment: sentiment + sentiment.splitlines()[1] + "\n",
           "duplicate region_id 'R01', first used at line 2\n") for stage in ("shift-test", "regress", "stepwise")],
        *[(stage, "region_sentiment.csv", lambda sentiment: sentiment + ",30,30,30,30,0.5,True\n",
           "empty region_id\n") for stage in ("shift-test", "regress", "stepwise")],
        *[(stage, name, lambda records: records + records.splitlines()[0] + "\n",
           "duplicate id 'p000000', first used at line 1\n")
          for stage, name in (("clean", "located.jsonl"), ("aggregate", "located.jsonl"),
                              ("classify", "clean.jsonl"), ("import-predictions", "clean.jsonl"))],
        ("aggregate", "predictions.csv", lambda predictions: predictions + predictions.splitlines()[1] + "\n",
         "duplicate id 'p000000', first used at line 2\n"),
    ], ids=["count-not-int", "counts-all-zero", "count-negative", "included-not-bool",
            "jsonl-line-invalid", "jsonl-lone-surrogate", "rejected-not-a-reason", "clean-id-not-a-string",
            "region-repeated-shift-test", "region-repeated-regress", "region-repeated-stepwise",
            "region-empty-shift-test", "region-empty-regress", "region-empty-stepwise",
            "located-id-repeated-clean", "located-id-repeated-aggregate",
            "clean-id-repeated-classify", "clean-id-repeated-import-predictions", "prediction-id-repeated"])
    def test_malformed_intermediate_exits_two_naming_line(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                          stage, name, corrupt, reason):
        out = tmp_path / "out"
        out.mkdir()
        # classify reads model.json before clean.jsonl, and aggregate located.jsonl before predictions.csv
        for intermediate in ("model.json", "located.jsonl"):
            shutil.copyfile(pipeline_out / intermediate, out / intermediate)
        content = corrupt((pipeline_out / name).read_text(encoding="utf-8"))
        (out / name).write_text(content, encoding="utf-8")
        bad_line = content.count("\n")  # each probe corrupts the last line
        code = cli.main([stage, "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"regsent: error[data]: {name}:{bad_line}: {reason}")
        assert err.count("\n") == 1

    def test_undecodable_intermediate_exits_two(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "located.jsonl").write_bytes(b'{"id": "p\xff"}\n')
        code = cli.main(["clean", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("regsent: error[data]: located.jsonl is not UTF-8: ")
        assert err.count("\n") == 1

    def test_three_class_training_without_neutral_rows_exits_two(self, fixture_dir, tmp_path, capsys):
        rows = [row for row in read_csv(fixture_dir / "training.csv") if row["label"] != "neutral"]
        training = tmp_path / "training.csv"
        with training.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main(["train", "--config", str(fixture_dir / "config.json"), "--out", str(out),
                         "--set", "classifier.binary=false", "--set", f"paths.training_data={training}"])
        assert code == 2
        assert capsys.readouterr().err == "regsent: error[data]: no training examples for class 'neutral'\n"
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("tokens", [3, "ab", ["a", 1], None])
    def test_clean_tokens_not_a_list_of_strings_exits_two(self, fixture_dir, pipeline_out, tmp_path, capsys, tokens):
        # its own test: classify reads model.json before clean.jsonl
        out = tmp_path / "out"
        out.mkdir()
        (out / "model.json").write_bytes((pipeline_out / "model.json").read_bytes())
        content = (pipeline_out / "clean.jsonl").read_text(encoding="utf-8")
        content += json.dumps({"id": "zz", "tokens": tokens, "rejected": None}) + "\n"
        (out / "clean.jsonl").write_text(content, encoding="utf-8")
        code = cli.main(["classify", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"regsent: error[data]: clean.jsonl:{content.count(chr(10))}: tokens must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stage, key, value", [
        ("clean", "text", 5), ("clean", "id", ["x"]), ("clean", "place", 5), ("clean", "lang", ["pl"]),
        ("report hashtags", "text", ["a"]),
        ("aggregate", "region", 5), ("aggregate", "region", True), ("aggregate", "id", ["x"]),
        ("clean", "timestamp", 5), ("clean", "timestamp", None),
        ("aggregate", "timestamp", 5), ("aggregate", "timestamp", None),
    ])
    def test_located_field_of_the_wrong_type_exits_two(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                       stage, key, value):
        out = tmp_path / "out"
        out.mkdir()
        (out / "predictions.csv").write_bytes((pipeline_out / "predictions.csv").read_bytes())
        lines = (pipeline_out / "located.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = json.dumps({**json.loads(lines[-1]), key: value}) + "\n"
        (out / "located.jsonl").write_text("".join(lines), encoding="utf-8")
        code = cli.main([*stage.split(), "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        kind = "a string or null" if key in ("place", "lang") else "a string"
        assert err == f"regsent: error[data]: located.jsonl:{len(lines)}: {key} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize("stage, name, fields, reason", [
        ("clean", "located.jsonl", {"text": 5, "region": 5}, "text must be a string, got 5"),
        ("aggregate", "located.jsonl", {"timestamp": None, "lang": 5}, "timestamp must be a string, got None"),
        ("classify", "clean.jsonl", {"tokens": ["a", 1], "rejected": 5},
         "tokens must be a list of strings, got ['a', 1]"),
        ("classify", "clean.jsonl", {"id": 5, "tokens": "ab"}, "id must be a string, got 5"),
    ])
    def test_record_wrong_in_two_fields_names_the_first(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                         stage, name, fields, reason):
        out = tmp_path / "out"
        out.mkdir()
        # classify reads model.json before clean.jsonl, and aggregate located.jsonl before predictions.csv
        for intermediate in ("model.json", "predictions.csv"):
            shutil.copyfile(pipeline_out / intermediate, out / intermediate)
        lines = (pipeline_out / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = json.dumps({**json.loads(lines[-1]), **fields}) + "\n"
        (out / name).write_text("".join(lines), encoding="utf-8")
        code = cli.main([stage, "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"regsent: error[data]: {name}:{len(lines)}: {reason}\n"

    @pytest.mark.parametrize("form, is_timestamp, is_date", [
        ("2019-10-13T01:30:00+02:00", True, False),
        ("2019-10-13t01:30:00.123Z", True, False),
        ("2019-10-13 01:30:00.123456", True, False),
        ("2019-10-13", True, True),
        # RFC 3339 forms 3.10's fromisoformat does not read: a lower-case z, a fraction of other than 3 or 6 digits
        ("2019-10-13T01:30:00z", True, False),
        ("2019-10-13T01:30:00.1Z", True, False),
        ("2019-10-13T01:30:00.1234567Z", True, False),
        ("2019-10-13T01:30:00.123456789+00:00", True, False),
        # Python 3.11's fromisoformat reads these and 3.10's does not
        ("20191013T013000+0200", False, False),
        ("20191013", False, False),
        ("2019-W41-7T01:30", False, False),
        ("2019-W41-7", False, False),
        ("2019-10-13T01:30:00+0200", False, False),
        # offsets out of range: minutes above 59, hours of 24 or more
        ("2019-10-13T01:30:00+02:60", False, False),
        ("2019-10-13T01:30:00+24:00", False, False),
        # both read these, but they are not RFC 3339
        ("2019-10-13T01:30", False, False),
        ("2019-10-13T01", False, False),
        ("2019-10-13X01:30:00", False, False),
        ("\uff12\uff10\uff11\uff19-10-13", False, False),
    ])
    def test_one_timestamp_and_date_grammar(self, fixture_dir, tmp_path, capsys, form, is_timestamp, is_date):
        """A post's time, a located.jsonl time and event_date read `form` alike on every supported Python.

        A post whose time is not a timestamp is skipped and counted, a located.jsonl time exits 2, and an
        event_date that is not a YYYY-MM-DD date exits 1.
        """
        config, out, posts = str(fixture_dir / "config.json"), tmp_path / "out", tmp_path / "posts.jsonl"
        record = {"id": "p", "text": "x", "timestamp": form, "place": "p", "lang": "pl"}
        posts.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert cli.main(["ingest", "--config", config, "--out", str(out), "--set", f"paths.posts={posts}"]) == 0
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["skipped_records"] == (0 if is_timestamp else 1)
        (out / "located.jsonl").write_text(json.dumps({**record, "region": "R"}) + "\n", encoding="utf-8")
        (out / "predictions.csv").write_text("id,label,fallback,p_positive\np,positive,False,\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["aggregate", "--config", config, "--out", str(out)]) == (0 if is_timestamp else 2)
        if not is_timestamp:
            reason = f"not an RFC 3339 timestamp: {form!r}"
            assert capsys.readouterr().err == f"regsent: error[data]: located.jsonl:1: {reason}\n"
        event_date = ["--set", f"event_date={json.dumps(form)}"]
        assert cli.main(["ingest", "--config", config, "--out", str(out), *event_date]) == (0 if is_date else 1)

    def test_duplicate_post_id_exits_two(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "posts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        posts = tmp_path / "posts.jsonl"
        posts.write_text("".join(lines + lines[:1]), encoding="utf-8")
        code = cli.main([
            "ingest", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "o"),
            "--set", f"paths.posts={posts}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        post_id = json.loads(lines[0])["id"]
        assert err == (f"regsent: error[data]: {posts}:{len(lines) + 1}: "
                       f"duplicate post id {post_id!r}, first used at line 1\n")

    @pytest.mark.parametrize("key, problem", [
        *[(key, "not UTF-8") for key in ("posts", "gazetteer", "dictionary", "lemmas", "stop_words", "conjunctions",
                                         "emoji_polarity", "training_data", "region_table")],
        ("posts", "a directory"),
    ])
    def test_unreadable_input_exits_two_naming_it(self, fixture_dir, tmp_path, capsys, key, problem):
        bad = tmp_path / "input"
        if problem == "a directory":
            bad.mkdir()
        else:  # a stray byte on the last line, so a streaming reader meets it mid-file
            source = load_config(fixture_dir / "config.json").paths[key]
            lines = source.read_bytes().splitlines(keepends=True)
            bad.write_bytes(b"".join(lines[:-1]) + b"\xff" + lines[-1])
        code = cli.main([
            "pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "o"),
            "--set", f"paths.{key}={bad}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        expected = f"{bad} is not UTF-8: " if problem == "not UTF-8" else f"cannot read {bad}: Is a directory"
        assert err.startswith("regsent: error[data]: " + expected)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh-out", "earlier-out"])
    @pytest.mark.parametrize("problem", ["table-is-a-directory", "last-post-repeats-an-id", "last-post-not-utf-8"])
    def test_ingest_failing_on_an_input_writes_nothing(self, fixture_dir, tmp_path, capsys, monkeypatch, fresh,
                                                       problem):
        """Every input is read before --out is made or written: the posts first, then the region table, once.

        Ingest streams the posts file, so a file failing on its last record has
        been read almost whole by then; it still leaves no --out, or the earlier
        one as it was, and reads no region table.
        """
        out = tmp_path / "out"
        if not fresh:
            out.mkdir()
            (out / "located.jsonl").write_text("from an earlier run\n", encoding="utf-8")
        before = None if fresh else read_all(out)
        posts, table = fixture_dir / "posts.jsonl", load_config(fixture_dir / "config.json").paths["region_table"]
        lines = posts.read_bytes().splitlines(keepends=True)
        if problem == "table-is-a-directory":
            table = tmp_path / "table"
            table.mkdir()
            expected = f"cannot read {table}: "
        else:
            posts = tmp_path / "posts.jsonl"
            if problem == "last-post-repeats-an-id":
                posts.write_bytes(b"".join([*lines, lines[0]]))
                first_id = json.loads(lines[0])["id"]
                expected = f"{posts}:{len(lines) + 1}: duplicate post id {first_id!r}, first used at line 1\n"
            else:
                posts.write_bytes(b"".join(lines[:-1]) + b"\xff" + lines[-1])
                expected = f"{posts} is not UTF-8: "
        calls: list[Path] = []
        load_region_table = pipeline.load_region_table
        monkeypatch.setattr(pipeline, "load_region_table", lambda path: calls.append(path) or load_region_table(path))
        code = cli.main(["ingest", "--config", str(fixture_dir / "config.json"), "--out", str(out),
                         "--set", f"paths.posts={posts}", "--set", f"paths.region_table={table}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"regsent: error[data]: {expected}") and err.count("\n") == 1
        assert calls == ([table] if problem == "table-is-a-directory" else [])
        assert not out.exists() if fresh else read_all(out) == before

    def test_clean_failing_on_a_resource_writes_nothing(self, fixture_dir, pipeline_out, tmp_path):
        lemmas = tmp_path / "lemmas.txt"
        lines = load_config(fixture_dir / "config.json").paths["lemmas"].read_text(encoding="utf-8").splitlines()
        lemmas.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_reading_stage(fixture_dir, pipeline_out, out, "lemmas", lemmas)
        assert code == 2
        assert err.startswith(f"regsent: error[data]: {lemmas}:{len(lines) + 1}: duplicate word ")
        assert err.count("\n") == 1
        assert read_all(out) == {name: (pipeline_out / name).read_bytes() for name in ("located.jsonl", "clean.jsonl")}

    @pytest.mark.parametrize("key", [
        "posts", "gazetteer", "region_table", "dictionary", "lemmas", "stop_words", "conjunctions", "emoji_polarity",
        "training_data", "external_predictions",
    ])
    def test_leading_byte_order_mark_is_ignored(self, fixture_dir, pipeline_out, tmp_path, key):
        """An input saved with a UTF-8 byte-order mark gives the artifacts of the same input without one."""
        source = pipeline_out / "predictions.csv" if key == "external_predictions" else (
            load_config(fixture_dir / "config.json").paths[key])
        written = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            copy = tmp_path / name / source.name
            copy.write_bytes(prefix + source.read_bytes())
            code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / name / "out", key, copy)
            assert code == 0, err
            written.append(read_all(tmp_path / name / "out"))
        assert written[0] == written[1]

    def test_post_with_a_lone_surrogate_is_skipped_and_counted(self, fixture_dir, pipeline_out, tmp_path):
        """Valid JSON decoding to a text no UTF-8 file holds is a malformed post, not an internal error."""
        record = {**fixture_posts(fixture_dir)[0], "id": "lone", "text": "good \ud800 day"}
        posts = tmp_path / "posts.jsonl"
        posts.write_text((fixture_dir / "posts.jsonl").read_text(encoding="utf-8") + json.dumps(record) + "\n",
                         encoding="utf-8")
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", "posts", posts)
        assert code == 0, err
        expected = json.loads((pipeline_out / "ingest_report.json").read_text(encoding="utf-8"))
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text(encoding="utf-8"))
        assert report == {**expected, "skipped_records": expected["skipped_records"] + 1}
        assert (tmp_path / "out" / "located.jsonl").read_bytes() == (pipeline_out / "located.jsonl").read_bytes()

    def test_config_with_a_byte_order_mark_is_read(self, fixture_dir, pipeline_out, tmp_path, capsys):
        """A config saved with a UTF-8 byte-order mark gives the artifacts of the same config without one."""
        shutil.copytree(fixture_dir, tmp_path / "fixture")  # the config's paths are relative to it
        config = tmp_path / "fixture" / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 0, \
            capsys.readouterr().err
        assert read_all(tmp_path / "out") == read_all(pipeline_out)


class TestRecordReader:
    """Every CSV input names the line a bad record starts on, and an oversized field is one data error."""

    @pytest.mark.parametrize("key, bad_record, reason", [
        ("training_data", "t_bad,meh,hello there", "unknown sentiment label 'meh'"),
        ("gazetteer", "alpha,alpha commune,R01,province west,1.5,10", "importance 1.5 outside [0, 1]"),
    ])
    def test_line_after_a_quoted_line_break(self, fixture_dir, pipeline_out, tmp_path, key, bad_record, reason):
        source = load_config(fixture_dir / "config.json").paths[key]
        header, first, *rest = source.read_text(encoding="utf-8").splitlines()
        name, _, tail = first.partition(",")
        bad = tmp_path / "input.csv"
        bad.write_text("\n".join([header, f'"{name}\nsecond line",{tail}', *rest, bad_record]) + "\n", encoding="utf-8")
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        assert code == 2
        # header on line 1, the quoted record on lines 2-3
        assert err == f"regsent: error[data]: {bad}:{len(rest) + 4}: {reason}\n"

    def test_csv_posts_duplicate_names_both_start_lines(self, fixture_dir, pipeline_out, tmp_path):
        records = fixture_posts(fixture_dir)
        records[0]["text"] += "\nsecond line"
        records.append(records[2])  # header on line 1, records[0] on lines 2-3, so records[2] starts on line 5
        posts = tmp_path / "posts.csv"
        write_posts_csv(posts, records)
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", "posts_csv", posts)
        assert code == 2
        assert err == (f"regsent: error[data]: {posts}:{len(records) + 2}: "
                       f"duplicate post id {records[2]['id']!r}, first used at line 5\n")

    def test_training_duplicate_id_names_both_lines(self, fixture_dir, pipeline_out, tmp_path):
        source = load_config(fixture_dir / "config.json").paths["training_data"]
        header, *rows = source.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "training.csv"
        bad.write_text("\n".join([header, *rows, rows[1]]) + "\n", encoding="utf-8")
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", "training_data", bad)
        assert code == 2
        train_id = rows[1].split(",")[0]
        assert err == (f"regsent: error[data]: {bad}:{len(rows) + 2}: "
                       f"duplicate id {train_id!r}, first used at line 3\n")

    @pytest.mark.parametrize("key, header", [
        ("posts_csv", "id,text,timestamp,place,lang"),
        ("gazetteer", "place_name,commune,region_id,province,importance,population"),
        ("region_table", "region_id,population,outcome,urbanization"),
        ("training_data", "id,label,text"),
        ("external_predictions", "id,label"),
    ])
    def test_oversized_field_exits_two(self, fixture_dir, pipeline_out, tmp_path, key, header):
        limit = csv.field_size_limit()
        bad = tmp_path / "input.csv"
        bad.write_text(f"{header}\n{'x' * (limit + 1)}\n", encoding="utf-8")
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        assert code == 2
        assert err == f"regsent: error[data]: {bad}:2: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize("key, bad_line, reason", [
        ("lemmas", "a b c", "expected 'word lemma', got 'a b c'"),
        ("emoji_polarity", "\U0001F600 happy", "expected 'emoji pos|neg|ambiguous', got '\U0001F600 happy'"),
        ("lemmas", "koty kot\nkoty pies", "duplicate word 'koty', first used at line {first}"),
        ("lemmas", "Koty kot\nkoty kot", "duplicate word 'koty', first used at line {first}"),
        ("emoji_polarity", "\U0001F642 pos\n\U0001F642 neg", "duplicate emoji '\U0001F642', first used at line {first}"),
    ])
    def test_word_list_line_is_named(self, fixture_dir, pipeline_out, tmp_path, key, bad_line, reason):
        """`bad_line` may span lines; the error names the last, and a repeat also the first."""
        source = load_config(fixture_dir / "config.json").paths[key]
        lines = source.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "input.txt"
        bad.write_text("\n".join([*lines, "", bad_line]) + "\n", encoding="utf-8")  # a blank line still counts
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        first, last = len(lines) + 2, len(lines) + 2 + bad_line.count("\n")
        assert code == 2
        assert err == f"regsent: error[data]: {bad}:{last}: {reason.format(first=first)}\n"

    @pytest.mark.parametrize("key, header", [
        ("posts_csv", "id,body,timestamp,place,lang"),
        ("gazetteer", "place_name,commune,region_id,province,importance"),
        ("region_table", "region_id,population"),
        ("training_data", "id,label,body"),
        ("external_predictions", "id,prediction"),
    ])
    def test_missing_header_columns_exit_two(self, fixture_dir, pipeline_out, tmp_path, key, header):
        bad = tmp_path / "input.csv"
        bad.write_text(header + "\n", encoding="utf-8")
        code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        assert code == 2
        assert err.startswith(f"regsent: error[data]: {bad}:1: missing columns [") and err.count("\n") == 1

    @pytest.mark.parametrize("stage, name, content, missing", [
        ("aggregate", "predictions.csv", "id,lbl\n", ["label"]),
        ("shift-test", "region_sentiment.csv",
         f"{SENTIMENT_HEADER.replace(',n_neg_before', '')}\nS0,25,25,25,0.5,True\n", ["n_neg_before"]),
    ], ids=["predictions", "column-missing"])
    def test_intermediate_missing_header_columns_exit_two(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                          stage, name, content, missing):
        """A CSV intermediate follows the header rule of a configured CSV: a row-less one fails too."""
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(pipeline_out / "located.jsonl", out / "located.jsonl")  # aggregate reads it first
        (out / name).write_text(content, encoding="utf-8")
        code = cli.main([stage, "--config", str(fixture_dir / "config.json"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"regsent: error[data]: {name}:1: missing columns {missing}\n"

    @pytest.mark.parametrize("key, column", [
        ("posts_csv", "text"), ("gazetteer", "region_id"), ("region_table", "urbanization"),
        ("training_data", "label"), ("external_predictions", "label"), ("region_sentiment.csv", "n_pos_after"),
    ])
    def test_repeated_header_column_exits_two(self, fixture_dir, pipeline_out, tmp_path, capsys, key, column):
        """A header naming a column twice would keep only the last one's values; every CSV read rejects it."""
        artifacts = {"external_predictions": "predictions.csv", "region_sentiment.csv": "region_sentiment.csv"}
        if key == "posts_csv":
            write_posts_csv(source := tmp_path / "source.csv", fixture_posts(fixture_dir))
        elif key in artifacts:
            source = pipeline_out / artifacts[key]
        else:
            source = load_config(fixture_dir / "config.json").paths[key]
        header, *rest = source.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / "input.csv"
        bad.write_text("".join([header.rstrip("\n") + f",{column}\n", *rest]), encoding="utf-8")
        if key.endswith(".csv"):
            out = tmp_path / "out"
            out.mkdir()
            shutil.copyfile(bad, out / key)
            code = cli.main(["shift-test", "--config", str(fixture_dir / "config.json"), "--out", str(out)])
            err, bad = capsys.readouterr().err, key
        else:
            code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        assert code == 2
        assert err == f"regsent: error[data]: {bad}:1: repeated columns [{column!r}]\n"

    @pytest.mark.parametrize("extra", [False, True], ids=["short", "long"])
    @pytest.mark.parametrize("key", [
        "posts_csv", "gazetteer", "region_table", "training_data", "external_predictions",
        "predictions.csv", "region_sentiment.csv",
    ])
    def test_record_with_another_field_count_than_its_header(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                             caplog, key, extra):
        """The last record, one field short or one too many: a posts row is skipped and counted, any other fails."""
        if key == "posts_csv":
            write_posts_csv(source := tmp_path / "source.csv", fixture_posts(fixture_dir))
        elif key.endswith(".csv") or key == "external_predictions":
            source = pipeline_out / ("predictions.csv" if key == "external_predictions" else key)
        else:
            source = load_config(fixture_dir / "config.json").paths[key]
        with source.open(encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        rows[-1] = rows[-1] + ["x"] if extra else rows[-1][:-1]
        bad = tmp_path / "input.csv"
        with bad.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        line = len(bad.read_text(encoding="utf-8").splitlines())
        reason = f"{len(rows[-1])} fields where the header has {len(header)}"
        if key.endswith(".csv"):
            out = tmp_path / "out"
            out.mkdir()
            shutil.copyfile(pipeline_out / "located.jsonl", out / "located.jsonl")
            shutil.copyfile(bad, out / key)
            code = cli.main(["aggregate" if key == "predictions.csv" else "shift-test",
                             "--config", str(fixture_dir / "config.json"), "--out", str(out)])
            err, bad = capsys.readouterr().err, key
        else:
            code, err = run_reading_stage(fixture_dir, pipeline_out, tmp_path / "out", key, bad)
        if key == "posts_csv":
            assert code == 0
            assert json.loads((tmp_path / "out" / "ingest_report.json").read_text())["skipped_records"] == 1
            assert caplog.messages == [f"skipping malformed post record at {bad}:{line}"]
        else:
            assert code == 2
            assert err == f"regsent: error[data]: {bad}:{line}: {reason}\n"


class TestArtifacts:
    def test_located_schema(self, pipeline_out):
        with (pipeline_out / "located.jsonl").open(encoding="utf-8") as handle:
            row = json.loads(handle.readline())
        assert set(row) == {"id", "text", "timestamp", "place", "lang", "region"}

    def test_predictions_schema_and_labels(self, pipeline_out):
        rows = read_csv(pipeline_out / "predictions.csv")
        assert set(rows[0]) == {"id", "label", "fallback", "p_positive"}
        assert all(r["label"] in ("negative", "positive") for r in rows)

    def test_region_sentiment_schema(self, pipeline_out):
        rows = read_csv(pipeline_out / "region_sentiment.csv")
        assert set(rows[0]) == {
            "region_id", "n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after",
            "mean_sentiment", "included",
        }
        for row in rows:
            total = sum(int(row[k]) for k in ("n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after"))
            expected = (int(row["n_pos_before"]) + int(row["n_pos_after"])) / total
            assert abs(float(row["mean_sentiment"]) - expected) < 1e-12

    def test_shift_tests_columns(self, pipeline_out):
        rows = read_csv(pipeline_out / "shift_tests.csv")
        assert list(rows[0]) == [
            "region_id", "n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after",
            "mean_sentiment", "included", "chi2", "p",
        ]
        included = [r for r in rows if r["included"] == "True"]
        assert included and all(r["chi2"] for r in included)

    # sha256 of the corpus and preprocess artifacts of `make-fixture --seed 13`. None depends on numpy, and the
    # fixture's only non-ASCII characters are emoji from before Unicode 10, so the digests hold on every
    # supported Python and numpy.
    GOLDEN = {
        "located.jsonl": "11099bb8c040340f039f554049c98a69f4b7b24436b631fc5be0f0e71452fc7f",
        "region_counts.csv": "0be9e8927a7efa8ca2d7487d626faa26d0cc4c08d360e99a67b57aed7204f30a",
        "ingest_report.json": "f05a1c515e3f7564b37624056e0aac7532a2f58bd40e548a15fb3ff30d6bfc38",
        "emoji_whitelist.txt": "d66ba899bdd388cad5e0ec4c92089da31f7c968ed479bc8daffef5d2b993869e",
        "clean.jsonl": "fda3d5ff68bcea9a9f76d967e9ab73a535de81d0c7be3f709b07d20429847456",
        "clean_report.json": "9c30680177edd5b71cd7532346dae7e9c2356ebeeffa6dc7d379702158eb39f1",
        "hashtags.csv": "f9c903315d06cff51886bc48f169aaa8570e1cf61fd9488e11768684860ce5b8",
        "emojis.csv": "c496ed56ec31231b2ba04554f5c427f15f61552fe1f088052adc7c1dfeff7fe2",
    }

    def test_corpus_and_preprocess_artifacts_are_pinned(self, pipeline_out):
        digests = {name: hashlib.sha256((pipeline_out / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert digests == self.GOLDEN

    # sha256 of every file `make-fixture --seed 13` writes. The generator draws from random.Random and formats
    # Python floats only, so, like GOLDEN, the digests do not depend on numpy.
    FIXTURE_GOLDEN = {
        "config.json": "f059d45adf428c6ea6a1e337fd8fc2a05a071f68b34ebf892a38876b5869c4e3",
        "conjunctions.txt": "0bf9721a0e7404146f766edf3c192eb2bb4a5784ee6bbbe25e1899679b77c900",
        "dictionary.txt": "994c76905d9206781b73dee1180ca98d77c0f223e80b4964d8fe8a8789b90548",
        "emoji_polarity.txt": "727ecc12fac38bdd270b006789ea246a78f0d3f11b0663dcffbdfd9291de9bcb",
        "gazetteer.csv": "5ae8b49e3662c88454b4a8312f5217c10dce39c02712489e83d008662f4eb0df",
        "lemmas.txt": "51ad2c08452d9479b698087b9a24926c93188de71ac95e8a51e53c210c10d1c3",
        "posts.jsonl": "ac4cbf10f063c79625e00b403d70a0318646fbb53c62d2f17cbc6168e30777ab",
        "region_features.csv": "f328d201c5433d782ef71b7c1d349f82fe3ffeb05a3f7404addbe0f9b6836ec2",
        "stop_words.txt": "0bf9721a0e7404146f766edf3c192eb2bb4a5784ee6bbbe25e1899679b77c900",
        "training.csv": "2cdad826987259d1d3ec81df36329f4a058204c18b55734b0ad1ab5e1ab5fa56",
    }

    def test_fixture_inputs_are_pinned(self, tmp_path):
        assert cli.main(["make-fixture", "--out", str(tmp_path), "--seed", "13"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests == self.FIXTURE_GOLDEN

    def test_summary_exists_with_sections(self, pipeline_out):
        text = (pipeline_out / "summary.md").read_text(encoding="utf-8")
        for heading in ("## Corpus", "## Top hashtags", "## Regional sentiment",
                        "## Before/after shift", "## Outcome regression", "## Selected model"):
            assert heading in text

    def test_summary_agrees_with_the_artifacts_it_summarises(self, pipeline_out):
        """summary.md is rendered from the stage returns; each section equals the artifact it stands for."""
        sections = {}
        for part in (pipeline_out / "summary.md").read_text(encoding="utf-8").split("\n## ")[1:]:
            heading, _, body = part.partition("\n")
            sections[heading] = body

        def table(heading):  # the cells of each body row of the section's table
            lines = [line for line in sections[heading].splitlines() if line.startswith("|")]
            return [line.strip("| ").split(" | ") for line in lines[2:]]

        def fenced(heading):
            return sections[heading].split("```\n", 1)[1].split("\n```", 1)[0]

        def percent(share):
            return f"{float(share) * 100:.2f}%"

        hashtags = read_csv(pipeline_out / "hashtags.csv")[:10]
        assert table("Top hashtags") == [[r["item"], r["count"], percent(r["share"])] for r in hashtags]
        whitelist = set((pipeline_out / "emoji_whitelist.txt").read_text(encoding="utf-8").split())
        emojis = read_csv(pipeline_out / "emojis.csv")[:10]
        assert table("Emojis") == [
            [r["item"], r["count"], percent(r["share"]), str(r["item"] in whitelist)] for r in emojis
        ]
        assert "True" in {row[3] for row in table("Emojis")}
        regions = [r for r in read_csv(pipeline_out / "region_sentiment.csv") if r["included"] == "True"]
        assert table("Regional sentiment") == [
            [r["region_id"], str(sum(int(r[c]) for c in SENTIMENT_HEADER.split(",")[1:5])),
             f"{float(r['mean_sentiment']):.4f}"]
            for r in regions
        ]
        assert hashtags and emojis and regions
        assert len(read_csv(pipeline_out / "emojis.csv")) > 10  # the summary prints the first ten rows
        for heading, name in (("Outcome regression", "regression_full.txt"), ("Selected model", "stepwise_model.txt")):
            assert fenced(heading) + "\n" == (pipeline_out / name).read_text(encoding="utf-8")
        moves = "; ".join(f"{r['action']} {r['name']}" for r in read_csv(pipeline_out / "stepwise_trace.csv"))
        assert moves and f"\nSelection trace: {moves}.\n" in sections["Selected model"]


class TestComposition:
    @pytest.mark.parametrize("overrides", [
        [],
        ["--set", "classifier.kind=logistic", "--set", "classifier.pseudo_label=true"],
        ["--set", "classifier.binary=false"],
    ], ids=["default", "logistic", "three-class"])
    def test_pipeline_equals_stage_sequence(self, fixture_dir, tmp_path_factory, overrides):
        pipeline_out, out = tmp_path_factory.mktemp("pipeline"), tmp_path_factory.mktemp("stage_seq")
        config = str(fixture_dir / "config.json")
        for stage in STAGES:
            result = run_cli([*stage, "--config", config, "--out", str(out), *overrides])
            assert result.returncode == 0, (stage, result.stderr)
            assert result.stderr == "", stage  # a successful run warns of nothing on the fixture
        result = run_cli(["pipeline", "--config", config, "--out", str(pipeline_out), *overrides])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        names = {p.name for p in pipeline_out.iterdir()} - {"summary.md"}
        assert names == {p.name for p in out.iterdir()}
        mismatched = [
            name for name in sorted(names)
            if (pipeline_out / name).read_bytes() != (out / name).read_bytes()
        ]
        assert mismatched == []

    def test_id_with_a_lone_carriage_return_reads_back(self, fixture_dir, tmp_path):
        """A post id holding a lone "\\r" is quoted in predictions.csv, so aggregate reads it back as one record
        and the stage sequence writes the bytes of `pipeline`."""
        fixture, stages_out, pipeline_out = tmp_path / "fixture", tmp_path / "stages", tmp_path / "pipeline"
        shutil.copytree(fixture_dir, fixture)
        posts = fixture_posts(fixture_dir)
        for record in posts[::7]:
            record["id"] += "\rx"
        (fixture / "posts.jsonl").write_text("".join(json.dumps(record) + "\n" for record in posts), encoding="utf-8")
        config = str(fixture / "config.json")
        for stage in STAGES:
            assert cli.main([*stage, "--config", config, "--out", str(stages_out)]) == 0, stage
        assert cli.main(["pipeline", "--config", config, "--out", str(pipeline_out)]) == 0
        assert b'\rx",' in (stages_out / "predictions.csv").read_bytes()
        written = read_all(pipeline_out)
        del written["summary.md"]
        assert read_all(stages_out) == written

    def test_stage_sequence_parses_located_times_in_aggregate_only(self, fixture_dir, tmp_path, monkeypatch):
        """clean and the reports check each located.jsonl time's form and build no datetime; aggregate, which reads
        the times, parses each once."""
        parse, calls = pipeline.parse_timestamp, []
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        for stage in STAGES:
            monkeypatch.setattr(pipeline, "parse_timestamp",
                                lambda raw, name=" ".join(stage): calls.append(name) or parse(raw))
            assert cli.main([*stage, "--config", config, "--out", str(out)]) == 0, stage
        located = (out / "located.jsonl").read_text(encoding="utf-8").count("\n")
        assert located > 0
        assert calls == ["aggregate"] * located

    def test_located_time_falls_on_its_utc_day_as_ingest_files_it(self, fixture_dir, tmp_path, capsys):
        """A hand-written located.jsonl time with an offset is read in UTC, as ingest reads a post's time.

        The event day is 2019-10-13 and counts as before it: 01:30 at +02:00 on the 14th is the 13th
        in UTC, 23:30 at -02:00 on the 13th is the 14th, and a trailing Z is UTC.
        """
        out = tmp_path / "out"
        out.mkdir()
        times = {"a": "2019-10-14T01:30:00+02:00", "b": "2019-10-13T23:30:00-02:00", "c": "2019-10-13T23:30:00Z"}
        (out / "located.jsonl").write_text("".join(
            json.dumps({"id": post_id, "text": "x", "timestamp": timestamp, "place": "p", "lang": "pl", "region": "R"})
            + "\n" for post_id, timestamp in times.items()), encoding="utf-8")
        (out / "predictions.csv").write_text(
            "id,label,fallback,p_positive\na,positive,False,\nb,negative,False,\nc,negative,False,\n", encoding="utf-8")
        assert cli.main(["aggregate", "--config", str(fixture_dir / "config.json"), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        [region] = read_csv(out / "region_sentiment.csv")
        counts = [region[column] for column in ("n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after")]
        assert counts == ["1", "1", "0", "1"]

    @pytest.mark.parametrize("event_day", ["before", "after"])
    def test_offset_times_join_the_period_of_their_utc_day(self, fixture_dir, pipeline_out, tmp_path, capsys,
                                                           event_day):
        """Posts whose offsets carry them across UTC midnight join the period their UTC day gives, in `pipeline`
        and in the stage sequence.

        The event day is 2019-10-13: 23:30 at -02:00 on the 13th is the 14th in UTC, after the event, and
        00:30 at +02:00 on the 14th is the 13th, the event day, which joins `event_day`'s period. Each added
        post copies a classified fixture post of another region, so a day taken before the offset is applied
        would move a count between periods.
        """
        labels = {row["id"]: row["label"] for row in read_csv(pipeline_out / "predictions.csv")}
        sources: dict[str, dict] = {}  # region -> the first classified post located there
        for line in (pipeline_out / "located.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if row["region"] and row["id"] in labels:
                sources.setdefault(row["region"], row)
        added = zip(("utc-14", "utc-13"), sources.values(), ("2019-10-13T23:30:00-02:00", "2019-10-14T00:30:00+02:00"),
                    ("after", event_day))
        fixture = tmp_path / "fixture"
        shutil.copytree(fixture_dir, fixture)
        expected: dict[tuple[str, str], int] = {}  # (region, count column) -> posts added there
        with (fixture / "posts.jsonl").open("a", encoding="utf-8") as handle:
            for post_id, source, timestamp, period in added:
                handle.write(json.dumps({"id": post_id, "text": source["text"], "timestamp": timestamp,
                                         "place": source["place"], "lang": source["lang"]}) + "\n")
                column = f"n_{labels[source['id']][:3]}_{period}"  # the copy's text gets the source's label
                expected[source["region"], column] = expected.get((source["region"], column), 0) + 1

        def counts(out: Path) -> dict[tuple[str, str], int]:
            return {(row["region_id"], column): int(row[column]) for row in read_csv(out / "region_sentiment.csv")
                    for column in ("n_pos_before", "n_neg_before", "n_pos_after", "n_neg_after")}

        setting = ["--set", f"event_day={event_day}"]
        runs = {name: tmp_path / name for name in ("without", "pipeline", "stages")}
        assert cli.main(["pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(runs["without"]),
                         *setting]) == 0, capsys.readouterr().err
        assert cli.main(["pipeline", "--config", str(fixture / "config.json"), "--out", str(runs["pipeline"]),
                         *setting]) == 0, capsys.readouterr().err
        for stage in STAGES:
            assert cli.main([*stage, "--config", str(fixture / "config.json"), "--out", str(runs["stages"]),
                             *setting]) == 0, (stage, capsys.readouterr().err)
        baseline = counts(runs["without"])
        assert len({region for region, _ in expected}) == 2 and sum(expected.values()) == 2
        for name in ("pipeline", "stages"):
            got = counts(runs[name])
            added_counts = {key: got[key] - baseline[key] for key in got if got[key] != baseline[key]}
            assert added_counts == expected, name

    def test_located_map_holds_one_tuple_per_region_and_day(self, fixture_dir, tmp_path):
        """ingest's located map is what `_located_where` reads from the located.jsonl it wrote: each post id ->
        (region or None, UTC day), each distinct pair one shared tuple, not one per post."""
        _, _, where = pipeline.stage_ingest(load_config(fixture_dir / "config.json"), tmp_path)
        read = pipeline._located_where(tmp_path)
        assert where == read
        for located in (where, read):
            assert all(type(day) is date for _, day in located.values())
            assert len({id(v) for v in located.values()}) == len(set(located.values())) < len(located)

    def test_train_needs_no_intermediate(self, fixture_dir, pipeline_out, tmp_path, capsys):
        """`train` in an empty --out writes the pipeline's training files."""
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["train", "--config", str(fixture_dir / "config.json"), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        names = ["model.json", "eval.csv", "confusions.csv", "train_report.json"]
        assert read_all(out) == {name: (pipeline_out / name).read_bytes() for name in names}

    def test_every_stage_takes_its_inputs_as_arguments(self):
        """No stage input is optional: after (cfg, out_dir[, kind]) come the inputs `run_stage` reads, one each."""
        stages = [name for name in pipeline.__all__ if name.startswith("stage_")]
        assert len(stages) == 10
        for name in stages:
            params = list(inspect.signature(getattr(pipeline, name)).parameters.values())
            assert [p for p in params if p.default is not p.empty or p.kind is not p.POSITIONAL_OR_KEYWORD] == [], name
            fixed = ["cfg", "out_dir", "kind"] if name == "stage_report" else ["cfg", "out_dir"]
            assert [p.name for p in params[:len(fixed)]] == fixed, name
            assert len(params) - len(fixed) == len(pipeline._INPUTS.get(name.removeprefix("stage_"), ())), name

    def test_pipeline_parses_no_record_it_handed_on(self, fixture_dir, tmp_path, monkeypatch):
        """Each stage takes what the stages before it returned, so no intermediate is parsed.

        The located posts, the whitelist, the classifiable tokens, the model, the predictions and the
        regions go on in memory: located.jsonl, emoji_whitelist.txt, clean.jsonl, predictions.csv and
        region_sentiment.csv are never parsed, and the model is never loaded. summary.md is rendered
        from the stage returns, so the frequency reports, the stepwise trace and the fit tables are
        never read back.
        """
        parsed: list[str] = []
        loaded: list[Path] = []
        read_records, read_text, load_model = pipeline.read_records, Path.read_text, sentiment.load_model

        def counting(path, *args, **kwargs):
            parsed.append(Path(path).name)
            return read_records(path, *args, **kwargs)

        def counting_text(path, *args, **kwargs):
            parsed.append(path.name)
            return read_text(path, *args, **kwargs)

        def counting_load(path):
            loaded.append(path)
            return load_model(path)

        monkeypatch.setattr(pipeline, "read_records", counting)
        monkeypatch.setattr(Path, "read_text", counting_text)
        monkeypatch.setattr(sentiment, "load_model", counting_load)
        pipeline.run_pipeline(load_config(fixture_dir / "config.json"), tmp_path / "out")
        counts = {
            "located.jsonl": 0, "predictions.csv": 0, "clean.jsonl": 0, "region_sentiment.csv": 0,
            "emoji_whitelist.txt": 0, "hashtags.csv": 0, "emojis.csv": 0, "stepwise_trace.csv": 0,
            "regression_full.txt": 0, "stepwise_model.txt": 0,
        }
        assert {name: parsed.count(name) for name in counts} == counts
        assert loaded == []

    @pytest.mark.parametrize("overrides", [[], ["classifier.binary=false"]], ids=["default", "three-class"])
    def test_pipeline_hands_each_stage_what_run_stage_reads_back(self, fixture_dir, tmp_path, monkeypatch, overrides):
        """Each input `run_pipeline` hands a stage equals, type for type, what its `_INPUTS` reader reads from --out.

        The model is compared field by field, its arrays with `np.array_equal`.
        """
        handed: dict[str, list[tuple]] = {}
        for name in (name for name in pipeline.__all__ if name.startswith("stage_")):
            def recording(*args, stage=getattr(pipeline, name), short=name.removeprefix("stage_")):
                handed.setdefault(short, []).append(args[3 if short == "report" else 2:])
                return stage(*args)

            monkeypatch.setattr(pipeline, name, recording)
        out = tmp_path / "out"
        pipeline.run_pipeline(load_config(fixture_dir / "config.json", overrides), out)
        assert sorted(handed) == sorted({"ingest", "train", *pipeline._INPUTS} - {"import_predictions"})
        assert len(handed["report"]) == 2
        for name, calls in handed.items():
            expected = [read(out) for read in pipeline._INPUTS.get(name, ())]
            for inputs in calls:
                assert len(inputs) == len(expected), name
                for got, want in zip(inputs, expected):
                    if isinstance(want, sentiment.SentimentModel):
                        assert type(got) is sentiment.SentimentModel
                        for f in dataclasses.fields(want):
                            a, b = getattr(got, f.name), getattr(want, f.name)
                            assert nested_types(a) == nested_types(b), f.name
                            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, f.name
                    else:
                        assert nested_types(got) == nested_types(want), name
                        assert got == want, name

    def test_classify_chunks_write_the_rows_of_one_batch(self, fixture_dir, tmp_path):
        """Classify scores its posts in chunks; across a chunk boundary its rows are those of one batch."""
        model = sentiment.train(generative_corpus(200, seed=4), "naive_bayes")
        n = pipeline._CLASSIFY_CHUNK + 905
        posts = [(f"p{i}", [*example.tokens, "unseen"] if i % 97 else ["unseen"])  # every 97th post a fallback
                 for i, example in enumerate(generative_corpus(n, seed=9))]
        report, labels = pipeline.stage_classify(load_config(fixture_dir / "config.json"), tmp_path, model,
                                                 tuple(map(list, zip(*posts))))  # as (ids, tokens)
        positive = model.classes.index(sentiment.SentimentLabel.POSITIVE)
        batch = sentiment.predict_batch(model, [tokens for _, tokens in posts])
        assert read_csv(tmp_path / "predictions.csv") == [
            {"id": post_id, "label": pred.label.value, "fallback": str(pred.fallback),
             "p_positive": repr(float(pred.scores[positive]))}
            for (post_id, _), pred in zip(posts, batch)
        ]
        assert labels == ([post_id for post_id, _ in posts], [pred.label for pred in batch])
        assert report["classified"] == n and report["fallback"] == sum(pred.fallback for pred in batch) > 0

    def test_imported_predictions_reproduce_the_regional_results(self, fixture_dir, pipeline_out, tmp_path, capsys):
        """import-predictions of the pipeline's own labels, then the later stages, give the pipeline's files."""
        out = tmp_path / "out"
        out.mkdir()
        for name in ("clean.jsonl", "located.jsonl"):
            shutil.copyfile(pipeline_out / name, out / name)
        args = ["--config", str(fixture_dir / "config.json"), "--out", str(out),
                "--set", f"paths.external_predictions={pipeline_out / 'predictions.csv'}"]
        for stage in ("import-predictions", "aggregate", "shift-test", "regress", "stepwise"):
            assert cli.main([stage, *args]) == 0, (stage, capsys.readouterr().err)
        report = json.loads((out / "import_report.json").read_text(encoding="utf-8"))
        classified = json.loads((pipeline_out / "classify_report.json").read_text(encoding="utf-8"))["classified"]
        assert (report["matched"], report["unknown_ids"]) == (classified, 0)
        names = ["region_sentiment.csv", "shift_tests.csv", "shift_summary.json", "stepwise_trace.csv", "stepwise.json",
                 *(f"{stem}.{ext}" for stem in ("regression_full", "stepwise_model") for ext in ("csv", "txt", "json"))]
        mismatched = [name for name in names if (out / name).read_bytes() != (pipeline_out / name).read_bytes()]
        assert mismatched == []

    def test_imported_id_not_in_the_corpus_is_counted(self, fixture_dir, pipeline_out, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(pipeline_out / "clean.jsonl", out / "clean.jsonl")
        predictions = (pipeline_out / "predictions.csv").read_text(encoding="utf-8")
        external = tmp_path / "external.csv"
        external.write_text(predictions + "zz_not_a_post,positive,False,\n", encoding="utf-8")
        assert cli.main(["import-predictions", "--config", str(fixture_dir / "config.json"), "--out", str(out),
                         "--set", f"paths.external_predictions={external}"]) == 0, capsys.readouterr().err
        report = json.loads((out / "import_report.json").read_text(encoding="utf-8"))
        classified = predictions.count("\n") - 1
        assert report == {"imported": classified + 1, "matched": classified, "unknown_ids": 1}
        written = [row["id"] for row in read_csv(out / "predictions.csv")]
        assert written == [row["id"] for row in read_csv(pipeline_out / "predictions.csv")]  # in clean.jsonl order


class TestStartWithoutNumpy:
    """Set-up, make-fixture, ingest, clean, both reports and aggregate never import numpy."""

    CLI = f"{BLOCK_NUMPY}; from regsent.cli import main; sys.exit(main(sys.argv[1:]))"

    def test_setup_runs_without_numpy(self, fixture_dir):
        setup = f"{BLOCK_NUMPY}; import regsent.cli; regsent.cli.load_config(sys.argv[1])"
        result = run_python(["-c", setup, str(fixture_dir / "config.json")])
        assert result.returncode == 0, result.stderr

    def test_setup_does_not_import_the_fixture_writer(self):
        # only make-fixture runs it, so no other subcommand compiles it
        result = run_python(["-c", "import sys, regsent.cli; print('regsent.fixtures' in sys.modules)"])
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    def test_setup_and_numpy_free_stages_import_no_dataclasses_inspect_or_logging(self, fixture_dir, pipeline_out,
                                                                                  tmp_path):
        """Set-up, and each numpy-free stage on the fixture, which warns of nothing, import none of `dataclasses`,
        `inspect` (which it imports) and `logging` (which only a warning imports)."""
        # what the process imported past interpreter start-up, printed before it exits
        imported = "print(sorted({'dataclasses', 'inspect', 'logging'} & (set(sys.modules) - started)))"
        start = "import sys; started = set(sys.modules)"
        setup = f"{start}; import regsent.cli; regsent.cli.load_config(sys.argv[1]); {imported}"
        run = f"{start}; from regsent.cli import main; code = main(sys.argv[1:]); {imported}; sys.exit(code)"
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        result = run_python(["-c", setup, config])
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
        for stage in (["ingest"], ["clean"], ["report", "hashtags"], ["report", "emojis"], ["aggregate"]):
            if stage == ["aggregate"]:  # the predictions of the stages that compute with numpy
                shutil.copyfile(pipeline_out / "predictions.csv", out / "predictions.csv")
            result = run_python(["-c", run, *stage, "--config", config, "--out", str(out)])
            assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", ""), stage

    def test_importance_tie_warns_on_stderr_and_on_the_regsent_logger(self, fixture_dir, tmp_path, monkeypatch):
        """An importance tie at ingest prints its one warning line on stderr and reaches a handler on `regsent`."""
        shutil.copytree(fixture_dir, tmp_path / "fixture")
        with (tmp_path / "fixture" / "gazetteer.csv").open("a", encoding="utf-8") as handle:
            handle.write("northgate,northgate commune,R99,province west,0.9,1000\n")  # ties the R01 entry
        config = str(tmp_path / "fixture" / "config.json")
        result = run_cli(["ingest", "--config", config, "--out", str(tmp_path / "out")])
        message = "importance tie for place 'northgate' resolved to region R01"
        assert (result.returncode, result.stderr) == (0, message + "\n")
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        monkeypatch.setattr(logging.getLogger("regsent"), "handlers", [handler])
        assert cli.main(["ingest", "--config", config, "--out", str(tmp_path / "again")]) == 0
        assert [(record.name, record.getMessage()) for record in records] == [("regsent.corpus", message)]

    def test_numpy_free_stages_write_the_same_bytes(self, pipeline_out, tmp_path):
        result = run_python(["-c", self.CLI, "make-fixture", "--out", str(tmp_path / "fixture"), "--seed", "13"])
        assert result.returncode == 0, result.stderr
        write_corpus_fixture(tmp_path / "unblocked", seed=13)
        assert read_all(tmp_path / "fixture") == read_all(tmp_path / "unblocked")
        config, out = str(tmp_path / "fixture" / "config.json"), tmp_path / "out"
        for stage in (["ingest"], ["clean"], ["report", "hashtags"], ["report", "emojis"], ["aggregate"]):
            if stage == ["aggregate"]:  # the predictions of the stages that compute with numpy
                shutil.copyfile(pipeline_out / "predictions.csv", out / "predictions.csv")
            result = run_python(["-c", self.CLI, *stage, "--config", config, "--out", str(out)])
            assert result.returncode == 0, (stage, result.stderr)
        written = read_all(out)
        assert written == {name: (pipeline_out / name).read_bytes() for name in written}
        assert len(written) == 11
        # the control: a stage that computes with numpy cannot run in this interpreter
        result = run_python(["-c", self.CLI, "train", "--config", config, "--out", str(out)])
        assert result.returncode == 4
        assert result.stderr.startswith("regsent: error[internal]: ModuleNotFoundError: import of numpy halted")


class TestShiftTestCommand:
    def test_symmetric_fixture_reports_zero_global_chi2(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        lines = ["region_id,n_pos_before,n_neg_before,n_pos_after,n_neg_after,mean_sentiment,included"]
        for i in range(3):
            lines.append(f"S{i},25,25,25,25,0.5,True")
        (out / "region_sentiment.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text("{}", encoding="utf-8")
        result = run_cli(["shift-test", "--config", str(config), "--out", str(out)])
        assert result.returncode == 0, result.stderr
        summary = json.loads((out / "shift_summary.json").read_text(encoding="utf-8"))
        assert summary["global"]["chi2"] == 0.0
        assert summary["n_significant"] == 0


class TestReplicationFixture:
    def test_regress_stars_all_true_predictors(self, tmp_path):
        fixture = tmp_path / "repl"
        write_replication_fixture(fixture, seed=2019)
        out = tmp_path / "out"
        out.mkdir()
        (out / "region_sentiment.csv").write_bytes((fixture / "region_sentiment.csv").read_bytes())
        result = run_cli(["regress", "--config", str(fixture / "config.json"), "--out", str(out)])
        assert result.returncode == 0, result.stderr
        rows = {r["term"]: r for r in read_csv(out / "regression_full.csv")}
        for name in TABLE_BETAS:
            assert rows[name]["stars"] != "", f"{name} not significant"
        result = run_cli(["stepwise", "--config", str(fixture / "config.json"), "--out", str(out)])
        assert result.returncode == 0, result.stderr
        selected = json.loads((out / "stepwise.json").read_text(encoding="utf-8"))["selected"]
        assert set(selected) == set(TABLE_BETAS)


class TestRegionTableFeatures:
    """regress and stepwise check the region table's selected feature columns; a column no fit uses is not checked."""

    def run_fit(self, fixture_dir, pipeline_out, work, edit, stages, *overrides) -> tuple[int, str, Path]:
        """(exit code, stderr, the table) of `stages` run in turn on the pipeline's regional sentiment, in
        `work`/out, with the fixture's region table after `edit` changed its rows."""
        out = work / "out"
        out.mkdir(parents=True)
        shutil.copyfile(pipeline_out / "region_sentiment.csv", out / "region_sentiment.csv")
        rows = read_csv(fixture_dir / "region_features.csv")
        edit(rows)
        path = work / "region_features.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        args = ["--config", str(fixture_dir / "config.json"), "--out", str(out), "--set", f"paths.region_table={path}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes = [cli.main([stage, *args, *overrides]) for stage in stages]
        return max(codes), err.getvalue(), path

    @pytest.mark.parametrize("column, term", [
        ("sentiment", "the sentiment predictor"), ("intercept", "the intercept term"),
    ], ids=["sentiment", "intercept"])
    @pytest.mark.parametrize("features", ["null", '["urbanization","{column}"]'])
    @pytest.mark.parametrize("stage", ["regress", "stepwise"])
    def test_sentiment_column_clashes_with_the_predictor(
        self, fixture_dir, pipeline_out, tmp_path, features, stage, column, term
    ):
        def add_column(rows):
            for i, row in enumerate(rows):
                row[column] = str(i % 3)

        code, err, path = self.run_fit(fixture_dir, pipeline_out, tmp_path, add_column, [stage],
                                       "--set", f"regression.features={features.format(column=column)}")
        assert code == 2
        assert err == f"regsent: error[data]: {path}: feature column {column!r} clashes with {term}\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["region_sentiment.csv"]

    def test_unselected_intercept_column_is_left_alone(self, fixture_dir, pipeline_out, tmp_path):
        def add_intercept(rows):
            for i, row in enumerate(rows):
                row["intercept"] = str(i % 3)

        selected = ("--set", 'regression.features=["urbanization","median_age"]')
        stages = ["regress", "stepwise"]
        for name, edit in (("extra", add_intercept), ("plain", list)):
            assert self.run_fit(fixture_dir, pipeline_out, tmp_path / name, edit, stages, *selected)[:2] == (0, "")
        assert read_all(tmp_path / "extra" / "out") == read_all(tmp_path / "plain" / "out")

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("1e999", "inf"), ("-inf", "-inf")])
    @pytest.mark.parametrize("stage", ["regress", "stepwise"])
    def test_non_finite_selected_feature_names_file_region_and_column(
        self, fixture_dir, pipeline_out, tmp_path, value, shown, stage
    ):
        def spoil(rows):
            rows[1]["migration_balance"] = value

        code, err, path = self.run_fit(fixture_dir, pipeline_out, tmp_path, spoil, [stage])
        assert code == 2
        assert err == (f"regsent: error[data]: {path}: region_id 'R02': feature 'migration_balance' is {shown}, "
                       "not a finite number\n")

    def test_non_finite_unselected_feature_is_left_alone(self, fixture_dir, pipeline_out, tmp_path):
        def spoil(rows):
            rows[1]["median_age"] = "nan"

        selected = ("--set", 'regression.features=["urbanization","divorces_per_capita","migration_balance"]')
        stages = ["regress", "stepwise"]
        assert self.run_fit(fixture_dir, pipeline_out, tmp_path / "nan", spoil, stages, *selected)[:2] == (0, "")
        assert self.run_fit(fixture_dir, pipeline_out, tmp_path / "clean", list, stages, *selected)[:2] == (0, "")
        assert read_all(tmp_path / "nan" / "out") == read_all(tmp_path / "clean" / "out")
        assert "median_age" not in (tmp_path / "nan" / "out" / "regression_full.csv").read_text(encoding="utf-8")


class TestSeedOverride:
    def test_seed_changes_split_but_stays_deterministic(self, fixture_dir, tmp_path):
        config = str(fixture_dir / "config.json")
        outs = []
        for seed, name in ((13, "a"), (13, "b"), (99, "c")):
            out = tmp_path / name
            for stage in (["ingest"], ["clean"], ["train"]):
                result = run_cli([*stage, "--config", config, "--out", str(out), "--seed", str(seed)])
                assert result.returncode == 0, result.stderr
            outs.append(out)
        a, b, c = outs
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()
        assert (a / "eval.csv").read_bytes() != (c / "eval.csv").read_bytes()


class TestConfigValidation:
    def test_bad_classifier_kind_is_config_error(self, fixture_dir, tmp_path):
        result = run_cli([
            "train", "--config", str(fixture_dir / "config.json"),
            "--out", str(tmp_path / "o"), "--set", "classifier.kind=transformer",
        ])
        assert result.returncode == 1
        assert "classifier.kind" in result.stderr

    def test_bad_direction_is_config_error(self, fixture_dir, tmp_path):
        result = run_cli([
            "stepwise", "--config", str(fixture_dir / "config.json"),
            "--out", str(tmp_path / "o"), "--set", "regression.direction=sideways",
        ])
        assert result.returncode == 1

    def test_unknown_config_key_rejected(self, fixture_dir, tmp_path):
        result = run_cli([
            "ingest", "--config", str(fixture_dir / "config.json"),
            "--out", str(tmp_path / "o"), "--set", "classifier.kindd=naive_bayes",
        ])
        assert result.returncode == 1
        assert "unknown" in result.stderr

    @pytest.mark.parametrize("override", [
        'thresholds="x"',
        'alpha="nan"',
        "alpha=2",
        "cleaning.min_words=-1",
        "cleaning.lemmatize=true",
        "cleaning.reject_misspelled=false",
        'classifier.binary="no"',
        'classifier.epochs="many"',
        "classifier.epochs=1e400",
        "classifier.smoothing=0",
        'classifier.min_confidence="hi"',
        'regression.features="urbanization"',
        'regression.features=["urbanization","urbanization"]',
        "classifier.pseudo_fraction=0.5",
        "seed=1.5",
        "paths.posts=3",
        "thresholds.min_region_posts=1e400",
    ])
    def test_invalid_value_is_one_line_naming_key(self, fixture_dir, tmp_path, capsys, override):
        code = cli.main([
            "ingest", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "o"),
            "--set", override,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("regsent: error[config]:") and err.count("\n") == 1
        assert override.partition("=")[0] in err
        assert not (tmp_path / "o").exists()

    def test_symlink_loop_path_is_config_error(self, fixture_dir, tmp_path, capsys):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        code = cli.main([
            "ingest", "--config", str(fixture_dir / "config.json"), "--out", str(tmp_path / "o"),
            "--set", f"paths.posts={os.path.relpath(tmp_path / 'a', fixture_dir)}",  # relative: resolved
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("regsent: error[config]: paths.posts") and err.count("\n") == 1


def _schema_keys(cls, prefix=""):
    """Every schema field as a dotted key, including fields that are not config keys (these must fail too)."""
    for name in cls._fields:
        yield prefix + name
        if hasattr(section := cls._field_defaults.get(name), "_fields"):  # a section defaults to its NamedTuple
            yield from _schema_keys(type(section), f"{prefix}{name}.")


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text()
    | st.sampled_from(["logistic", "both", "empty", "csv", "after", "2020-02-29", "posts.jsonl", ""]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


class TestConfigProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), value=_JSON_VALUES)
    def test_any_value_loads_or_is_one_config_error(self, fixture_dir, data, value):
        config = fixture_dir / "config.json"
        keys = sorted(_schema_keys(PipelineConfig)) + [f"paths.{name}" for name in load_config(config).paths]
        key = data.draw(st.sampled_from(keys))
        try:
            load_config(config, [f"{key}={json.dumps(value)}"])
        except ConfigError as exc:
            assert "\n" not in str(exc) and key in str(exc)


@pytest.fixture(scope="module")
def fuzz_inputs(fixture_dir, pipeline_out, tmp_path_factory) -> Path:
    """A directory holding a copy of each configured input of the fixture, named by its key,
    plus the posts as CSV (`posts_csv`) and the predictions as an `external_predictions` CSV."""
    inputs = tmp_path_factory.mktemp("fuzz_inputs")
    for key, path in load_config(fixture_dir / "config.json").paths.items():
        if path:
            shutil.copyfile(path, inputs / key)
    write_posts_csv(inputs / "posts_csv", fixture_posts(fixture_dir))
    predictions = read_csv(pipeline_out / "predictions.csv")
    (inputs / "external_predictions").write_text(
        "id,label\n" + "".join(f"{row['id']},{row['label']}\n" for row in predictions), encoding="utf-8")
    return inputs


_CSV_INPUTS = {"posts_csv", "gazetteer", "region_table", "training_data", "external_predictions"}


@st.composite
def _mutated(draw, data: bytes, key: str) -> bytes:
    """`data`, the bytes of input `key`, after one mutation."""
    kinds = ["flip", "truncate", "oversized", "quoted newline"]
    kinds += ["drop column", "extra column"] if key in _CSV_INPUTS else []
    kinds += ["json type"] if key == "posts" else []
    kind = draw(st.sampled_from(kinds))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    lines = data.decode("utf-8").split("\n")  # the last item is the empty text after the final newline
    at = draw(st.integers(0, len(lines) - 2))
    line = lines[at]
    if kind == "oversized":
        line = "x" * (csv.field_size_limit() + 1) + line
    elif kind == "quoted newline":
        line = '"two\nlines",' + line.partition(",")[2]
    elif kind == "drop column":
        line = line.rpartition(",")[0]
    elif kind == "extra column":
        line += ",extra"
    else:
        record = json.loads(line)
        record[draw(st.sampled_from(sorted(record)))] = draw(_JSON_VALUES)
        line = json.dumps(record)
    lines[at] = line
    return "\n".join(lines).encode("utf-8")


class TestInputProperty:
    @pytest.mark.parametrize("key", sorted(_READING_STAGE))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_mutated_input_works_or_is_one_error_line(self, fixture_dir, pipeline_out, fuzz_inputs, key, data):
        content = data.draw(_mutated((fuzz_inputs / key).read_bytes(), key))
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "input"
            path.write_bytes(content)
            code, err = run_reading_stage(fixture_dir, pipeline_out, Path(work) / "out", key, path)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("regsent: error[")]
        assert len(errors) == (code != 0) and (not errors or err.endswith(errors[0] + "\n")), err


class TestReadmeKeyTable:
    def test_rows_are_exactly_the_settable_keys(self, fixture_dir):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | default | allowed |\n", 1)[1].split("\n\n", 1)[0]
        documented = [row.split("`")[1] for row in table.splitlines()[1:]]
        config = fixture_dir / "config.json"
        settable = ["paths.<name>"]  # stands for every path key
        for key in _schema_keys(PipelineConfig):
            try:
                load_config(config, [f"{key}=null"])
            except ConfigError as exc:  # not a key, or a section rather than a value
                if str(exc).startswith(("unknown config keys", f"config {key} must be a JSON object")):
                    continue
            settable.append(key)
        assert sorted(documented) == sorted(settable)
