"""Batch stages behind the CLI subcommands.

Each `stage_<name>(cfg, out_dir[, kind], *inputs)` computes from the inputs it
is given and from the configured paths, and writes deterministic artifacts
(plain CSV/JSONL, stable ordering, repr floats) to `out_dir`; no stage reads
an artifact another stage wrote. `run_pipeline` is the stages composed in
order, each handed what the stages before it returned. `run_stage` runs one
stage for the CLI: it reads the stage's inputs back from `out_dir` through
`_INPUTS`, in the shapes `run_pipeline` hands on, so a pipeline run and the
equivalent sequence of subcommands produce identical bytes. Posts cross a stage
boundary as parallel sequences, (ids, texts), (ids, tokens) or (ids, labels),
and the located map holds one shared (region, UTC day) tuple per distinct
pair, so no hand-off keeps a tuple or a timestamp per post. Only `stage_ingest`
creates the output directory; a missing intermediate or `out_dir` is a
ConfigError, a malformed intermediate a DataValidationError naming its line.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections import Counter
from datetime import date, datetime
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, Annotated, Any, Callable, Iterable, Mapping, NamedTuple, Sequence, get_args, get_origin, get_type_hints,
)

from .corpus import (
    filter_located, load_gazetteer, load_posts, load_region_table, match_timestamp, parse_date,
    parse_timestamp, region_counts, resolve_region,
)
from .errors import ConfigError, DataValidationError, read_records, write_records
from .preprocess import (
    CleanConfig, CleanPost, FrequencyRow, clean_text, emoji_report, hashtag_report, load_emoji_polarity,
    load_lemma_map, load_word_list, select_emoji_whitelist, write_frequency_csv,
)

# sentiment and stats load numpy, so the stages that compute with them import them when
# they run: ingest, clean, the reports and aggregate start without numpy.
if TYPE_CHECKING:
    from . import stats
    from .regional import RegionSentiment, SentimentLabel
    from .sentiment import SentimentModel

__all__ = [
    "ClassifierSettings",
    "PipelineConfig",
    "RegressionSettings",
    "ThresholdSettings",
    "load_config",
    "run_pipeline",
    "run_stage",
    "stage_aggregate",
    "stage_classify",
    "stage_clean",
    "stage_import_predictions",
    "stage_ingest",
    "stage_regress",
    "stage_report",
    "stage_shift_test",
    "stage_stepwise",
    "stage_train",
]


class _PathSettings(NamedTuple):
    """Input files, relative to the config file's directory unless absolute."""

    posts: str | None = None
    gazetteer: str | None = None
    dictionary: str | None = None
    lemmas: str | None = None
    stop_words: str | None = None
    conjunctions: str | None = None
    emoji_polarity: str | None = None
    training_data: str | None = None
    region_table: str | None = None
    external_predictions: str | None = None


class ThresholdSettings(NamedTuple):
    min_region_posts: Annotated[int, {"min": 0}] = 100
    emoji_min_share: Annotated[float, {"min": 0.0, "max": 1.0}] = 0.01


class ClassifierSettings(NamedTuple):
    kind: Annotated[str, {"choices": ("naive_bayes", "logistic")}] = "naive_bayes"
    binary: bool = True
    smoothing: Annotated[float, {"gt": 0.0}] = 1.0
    learning_rate: Annotated[float, {"gt": 0.0}] = 0.1
    epochs: Annotated[int, {"min": 1}] = 300
    l2: Annotated[float, {"min": 0.0}] = 1e-4
    pseudo_label: bool = False
    min_confidence: Annotated[float | None, {"min": 0.0, "max": 1.0}] = None
    test_fraction: Annotated[float, {"gt": 0.0, "lt": 1.0}] = 0.2


class RegressionSettings(NamedTuple):
    standardize: bool = True
    features: tuple[str, ...] | None = None  # None -> every table feature column
    direction: Annotated[str, {"choices": ("backward", "forward", "both")}] = "both"
    start: Annotated[str, {"choices": ("full", "empty")}] = "full"


class PipelineConfig(NamedTuple):
    """The config schema; each section of the JSON document is a NamedTuple, defaulting to one shared instance.

    A field's annotation is its key's type, and `Annotated[T, {...}]` adds the
    key's `choices`, closed `min`/`max` or open `gt`/`lt` bounds; its default
    is the key's default. `load_config` fills in the resolved `paths`.
    """

    paths: Mapping[str, Path | None]
    language: str = "pl"
    event_date: date = date(2019, 10, 13)
    posts_format: Annotated[str, {"choices": ("jsonl", "csv")}] = "jsonl"
    thresholds: ThresholdSettings = ThresholdSettings()
    alpha: Annotated[float, {"gt": 0.0, "lt": 1.0}] = 0.05
    # which period posts dated on the event join
    event_day: Annotated[str, {"choices": ("before", "after")}] = "before"
    cleaning: CleanConfig = CleanConfig()
    classifier: ClassifierSettings = ClassifierSettings()
    regression: RegressionSettings = RegressionSettings()
    seed: int = 0

    def require_paths(self, *keys: str) -> dict[str, Path]:
        out: dict[str, Path] = {}
        for key in keys:
            path = self.paths.get(key)
            if path is None:
                raise ConfigError(f"config paths.{key} is required for this command")
            out[key] = path
        return out


# Field types a document value can have; fields of other types (cleaning
# resources, resolved paths) are not config keys.
_EXPECTED = {bool: "true or false", int: "an integer within float range", float: "a finite number",
             str: "a string", date: "a YYYY-MM-DD date string", tuple: "a list of distinct strings"}
_BOUNDS = {"min": (">=", operator.ge), "max": ("<=", operator.le), "gt": (">", operator.gt), "lt": ("<", operator.lt)}


def _kind(hint) -> Any:
    """Base type of a field annotation; `X | None` gives `X`."""
    hint = get_args(hint)[0] if type(None) in get_args(hint) else hint
    return get_origin(hint) or hint


def _convert(kind, value: Any) -> Any:
    """`value` as `kind`; TypeError or ValueError when it is not one."""
    if kind is int or kind is float:
        # bools are not numbers; the bound rejects NaN, infinities and ints past float range
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max or value != kind(value):
            raise ValueError(value)
        return kind(value)
    if kind is date:
        return parse_date(value)
    if (kind is tuple and type(value) is list and all(type(item) is str for item in value)
            and len(set(value)) == len(value)):  # each name is one regression predictor
        return tuple(value)
    if type(value) is not kind:
        raise TypeError(value)
    return value


def _read(hint, meta: Mapping[str, Any], value: Any, key: str) -> Any:
    """`value` of the dotted config `key`, checked against its field."""
    optional, kind = type(None) in get_args(hint), _kind(hint)
    if value is None and optional:
        return None
    if hasattr(kind, "_fields"):  # a section
        return _build(kind, value, key + ".")
    try:
        value = _convert(kind, value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {_EXPECTED[kind]}{' or null' if optional else ''}, got {value!r}") from None
    if "choices" in meta and value not in meta["choices"]:
        raise ConfigError(f"{key} must be one of {', '.join(meta['choices'])}, got {value!r}")
    limits = [(symbol, test, meta[name]) for name, (symbol, test) in _BOUNDS.items() if name in meta]
    if not all(test(value, limit) for _, test, limit in limits):
        wanted = " and ".join(f"{symbol} {limit}" for symbol, _, limit in limits)
        raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    return value


def _build(cls, raw: Any, prefix: str, **given: Any):
    """`cls` from the document object `raw`; `given` supplies fields that are not keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config {prefix.rstrip('.')} must be a JSON object, got {raw!r}")
    hints = get_type_hints(cls, include_extras=True)
    keys = {}  # key -> (type, bounds and choices)
    for name in cls._fields:
        hint, meta = get_args(hints[name]) if get_origin(hints[name]) is Annotated else (hints[name], {})
        if (kind := _kind(hint)) in _EXPECTED or hasattr(kind, "_fields"):
            keys[name] = hint, meta
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(repr(prefix + key) for key in unknown))
    return cls(**given, **{key: _read(*keys[key], value, prefix + key) for key, value in raw.items()})


def _apply_override(doc: dict, dotted: str, value: str) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {dotted!r}: {key!r} is not a table")
    try:
        node[keys[-1]] = json.loads(value)
    except ValueError:  # not JSON (or an integer past the digit limit): keep the text
        node[keys[-1]] = value


def load_config(path: str | Path, overrides: Sequence[str] = (), seed: int | None = None) -> PipelineConfig:
    """Parse and validate the JSON config; `overrides` are `key.path=value`.

    The only validation point: each bad key or value is a ConfigError naming it.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))  # a leading byte-order mark dropped, as for every input
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        _apply_override(doc, key.strip(), value.strip())
    if seed is not None:
        doc["seed"] = seed
    paths: dict[str, Path | None] = {}
    missing: list[str] = []
    for key, value in _build(_PathSettings, doc.pop("paths", {}), "paths.")._asdict().items():
        paths[key] = None
        if value is None:
            continue
        try:
            paths[key] = Path(value) if Path(value).is_absolute() else (path.parent / value).resolve()
            if not paths[key].exists():
                missing.append(f"paths.{key} -> {str(paths[key])!r}")
        except (OSError, RuntimeError, ValueError) as exc:  # e.g. a NUL byte or a symlink loop
            raise ConfigError(f"paths.{key} is not a usable path: {exc}") from exc
    if missing:
        raise ConfigError("configured files do not exist: " + "; ".join(missing))
    return _build(PipelineConfig, doc, "", paths=paths)


# ---------------------------------------------------------------------------
# Artifact helpers: every artifact is UTF-8 with "\n" line endings
# ---------------------------------------------------------------------------

_PREDICTIONS_HEADER = ("id", "label", "fallback", "p_positive")
_string = json.encoder.encode_basestring  # what `json.dumps(..., ensure_ascii=False)` writes of a str


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")


def _require_artifact(out_dir: Path, name: str) -> Path:
    path = out_dir / name
    if not path.exists():
        raise ConfigError(f"missing intermediate {name}; run the producing stage first")
    return path


def _read_artifact(out_dir: Path, name: str, convert: Callable[[Any], Any], columns: Sequence[str] = (),
                   key: tuple[str, Callable[[Any], Any]] = ("id", operator.itemgetter(0))) -> Iterable:
    """`convert` of each record of the intermediate `name`, each `key` once; the default key is the leading post id.

    A CSV intermediate's header must hold `columns`, as a configured CSV's must.
    """
    return read_records(_require_artifact(out_dir, name), Path(name).suffix[1:], convert, name, columns, key)


def _located_fields(row: dict, read_time: Callable[[str], Any]) -> tuple[str, str, Any, str | None]:
    """(id, text, `read_time` of its timestamp, region or None for "") of a `located.jsonl` record, every field checked."""
    fields = (row["id"], row["text"], row["timestamp"], row.get("place"), row.get("lang"), row["region"])
    for key, value in zip(("id", "text", "timestamp", "place", "lang", "region"), fields):
        nullable = key in ("place", "lang")
        if type(value) is not str and not (nullable and value is None):
            raise TypeError(f"{key} must be a string{' or null' if nullable else ''}, got {value!r}")
    return row["id"], row["text"], read_time(row["timestamp"]), row["region"] or None


def _located_line(post_id: str, text: str, timestamp: datetime, place: str, lang: str, region: str | None) -> str:
    """The `located.jsonl` line of a post: `json.dumps` of its record (non-ASCII kept), read by `_located_fields`."""
    return (f'{{"id": {_string(post_id)}, "text": {_string(text)}, "timestamp": "{timestamp.isoformat()}", '
            f'"place": {_string(place)}, "lang": {_string(lang)}, "region": {_string(region or "")}}}')


def _read_pairs(out_dir: Path, name: str, convert: Callable[[Any], tuple[str, Any]],
                columns: Sequence[str] = ()) -> tuple[list[str], list]:
    """The records of the intermediate `name` as parallel (ids, values) lists, each id once.

    `convert` gives a record's (id, value); a None value leaves the record out, but its id still counts as used.
    A CSV intermediate's header must hold `columns`.
    """
    ids: list[str] = []
    values: list = []
    for post_id, value in _read_artifact(out_dir, name, convert, columns):
        if value is not None:
            ids.append(post_id)
            values.append(value)
    return ids, values


def _region_day(region: str | None, timestamp: datetime, pairs: dict) -> tuple[str | None, date]:
    """(region, the UTC day of `timestamp`), as the one tuple `pairs` holds for that pair; the day is taken here alone."""
    pair = (region, timestamp.date())
    return pairs.setdefault(pair, pair)


def _located_posts(out_dir: Path) -> tuple[list[str], list[str]]:
    """The located posts as (ids, texts); each timestamp is matched against the grammar but not parsed, as none is read."""
    return _read_pairs(out_dir, "located.jsonl", lambda row: _located_fields(row, match_timestamp)[:2])


def _located_where(out_dir: Path) -> dict[str, tuple[str | None, date]]:
    """Each located post's id -> its (region or None, UTC day), one `_region_day` tuple per distinct pair."""
    pairs: dict = {}

    def where(row: dict) -> tuple[str, tuple[str | None, date]]:
        post_id, _, timestamp, region = _located_fields(row, parse_timestamp)
        return post_id, _region_day(region, timestamp, pairs)

    return dict(_read_artifact(out_dir, "located.jsonl", where))


def _model(out_dir: Path) -> SentimentModel:
    from .sentiment import load_model
    return load_model(_require_artifact(out_dir, "model.json"))


def _predictions(out_dir: Path) -> tuple[list[str], list[SentimentLabel]]:
    """The predicted posts as (ids, labels)."""
    from .regional import SentimentLabel
    return _read_pairs(out_dir, "predictions.csv", lambda row: (row["id"], SentimentLabel.parse(row["label"])),
                       ("id", "label"))


def _clean_fields(row: dict) -> tuple[str, tuple[str, ...], Any]:
    post_id, tokens, rejected = row["id"], row["tokens"], row["rejected"]
    try:  # one str object per distinct token; a token that is not a string raises TypeError
        interned = tuple(map(sys.intern, tokens)) if type(tokens) is list else None
    except TypeError:
        interned = None
    if type(post_id) is not str:
        raise TypeError(f"id must be a string, got {post_id!r}")
    if interned is None:
        raise TypeError(f"tokens must be a list of strings, got {tokens!r}")
    if rejected not in (None, "too_short", "misspelled"):  # what clean_text gives
        raise ValueError(f"rejected must be null, 'too_short' or 'misspelled', got {rejected!r}")
    return post_id, interned, rejected


def _clean_line(post_id: str, post: CleanPost) -> str:
    """The `clean.jsonl` line of a post: `json.dumps` of its record (non-ASCII kept), read by `_clean_fields`."""
    tokens, emojis, removed, rejected = post
    return (f'{{"id": {_string(post_id)}, "tokens": [{", ".join(map(_string, tokens))}], '
            f'"kept_emojis": [{", ".join(map(_string, emojis))}], '
            f'"removed": {{{", ".join(f"{_string(key)}: {count}" for key, count in removed.items())}}}, '
            f'"rejected": {"null" if rejected is None else _string(rejected)}}}')


def _classifiable(out_dir: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """The cleaned posts that were accepted and kept tokens, as (ids, tokens)."""

    def tokens_of(row: dict) -> tuple[str, tuple[str, ...] | None]:
        post_id, tokens, rejected = _clean_fields(row)
        return post_id, tokens if rejected is None and tokens else None

    return _read_pairs(out_dir, "clean.jsonl", tokens_of)


def _read_regions(out_dir: Path) -> list[RegionSentiment]:
    from .regional import RegionSentiment
    return list(_read_artifact(out_dir, "region_sentiment.csv", RegionSentiment.from_row, RegionSentiment.COLUMNS,
                               ("region_id", operator.attrgetter("region_id"))))


# The readers of each stage's inputs, in argument order: how `run_stage` gets from `out_dir` what
# `run_pipeline` hands on in memory. A stage not listed (ingest, train) takes no intermediate.
_INPUTS: dict[str, tuple[Callable[[Path], Any], ...]] = {
    "clean": (_located_posts,), "report": (_located_posts,),
    "classify": (_model, _classifiable), "import_predictions": (_classifiable,),
    "aggregate": (_located_where, _predictions),
    **dict.fromkeys(("shift_test", "regress", "stepwise"), (_read_regions,)),
}


def run_stage(name: str, cfg: PipelineConfig, out_dir: Path, *args: Any) -> Any:
    """`stage_<name>` on `args` (the report kind) and then its inputs, read from `out_dir` through `_INPUTS`."""
    stage = globals()["stage_" + name]  # looked up on every call, so a patched stage is the one that runs
    inputs = [read(out_dir) for read in _INPUTS.get(name, ())]
    if name != "ingest" and not out_dir.exists():  # a stage with no intermediate, such as train
        raise ConfigError(f"--out {str(out_dir)!r} does not exist; run ingest first")
    return stage(cfg, out_dir, *args, *inputs)


def _clean_settings(cfg: PipelineConfig, whitelist: frozenset[str]) -> CleanConfig:
    """The configured short-post threshold plus the loaded resources."""
    paths = cfg.require_paths("dictionary", "lemmas", "stop_words", "conjunctions")
    return cfg.cleaning._replace(
        dictionary=load_word_list(paths["dictionary"]),
        lemma_map=load_lemma_map(paths["lemmas"]),
        stop_words=load_word_list(paths["stop_words"]),
        conjunctions=load_word_list(paths["conjunctions"]),
        emoji_whitelist=whitelist,
        spellings={},  # this config's own memo
    )


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_ingest(
    cfg: PipelineConfig, out_dir: Path
) -> tuple[dict, tuple[list[str], list[str]], dict[str, tuple[str | None, date]]]:
    """Stream the posts, keep located ones in the configured language, then read the gazetteer and resolve regions.

    Of each located post only the fields `located.jsonl` holds are kept, one
    list each, and nothing is written until the posts, the gazetteer and the
    region table have all been read. Returns the report, the located posts as
    (ids, texts) and each one's id -> (region or None, UTC day), one shared
    tuple per distinct pair: what `_located_posts` and `_located_where` read
    back from `located.jsonl`, as `stage_clean`, `stage_report` and
    `stage_aggregate` take them.
    """
    paths = cfg.require_paths("posts", "gazetteer")
    posts, read = load_posts(paths["posts"], cfg.posts_format)
    located: tuple[list, ...] = ([], [], [], [], [])  # id, text, timestamp, place and language, one list each
    for post in filter_located(posts, cfg.language):
        for column, field in zip(located, post):
            column.append(field)
    ids, texts, times, places, _ = located
    gazetteer = load_gazetteer(paths["gazetteer"])
    populations: dict[str, int] = {}
    if cfg.paths.get("region_table"):
        populations = {rec.region_id: rec.population for rec in load_region_table(cfg.paths["region_table"])}
    out_dir.mkdir(parents=True, exist_ok=True)  # the only stage that may start from an empty --out; every input is read
    # one lookup per distinct place, in the order the posts name them
    regions = {place: resolve_region(place, gazetteer) for place in dict.fromkeys(places)}
    pairs: dict = {}
    where = {post_id: _region_day(regions[place], timestamp, pairs)
             for post_id, timestamp, place in zip(ids, times, places)}
    write_records(out_dir / "located.jsonl", "txt", map(_located_line, *located, map(regions.__getitem__, places)))
    counts = region_counts((region for region, _ in where.values() if region), populations)
    write_records(out_dir / "region_counts.csv", "csv", (
        (region_id, count, "" if per_capita is None else repr(per_capita))
        for region_id, (count, per_capita) in counts.items()
    ), ("region_id", "count", "per_capita"))

    resolved = sum(count for count, _ in counts.values())
    report = {
        "loaded": read["loaded"],
        "skipped_records": read["skipped"],
        "located": len(ids),
        "resolved": resolved,
        "unresolved": len(ids) - resolved,
        "regions": len(counts),
    }
    _write_json(out_dir / "ingest_report.json", report)
    return report, (ids, texts), where


def stage_clean(
    cfg: PipelineConfig, out_dir: Path, posts: tuple[Sequence[str], Sequence[str]]
) -> tuple[dict, frozenset[str], tuple[list[str], list[tuple[str, ...]]]]:
    """Select the emoji whitelist, then run the normalization chain over the located (ids, texts) `posts`.

    Returns the report, the whitelist and the accepted posts that kept tokens
    as (ids, tokens): what `_classifiable` reads back from `clean.jsonl`, as
    `stage_classify` takes them.
    """
    ids, texts = posts
    polarity = load_emoji_polarity(cfg.require_paths("emoji_polarity")["emoji_polarity"])
    whitelist = select_emoji_whitelist(texts, polarity, cfg.thresholds.emoji_min_share)
    settings = _clean_settings(cfg, whitelist)  # every resource read before the first write
    write_records(out_dir / "emoji_whitelist.txt", "txt", sorted(whitelist))
    outcomes: Counter = Counter()  # rejected_reason -> posts
    kept_ids: list[str] = []
    kept_tokens: list[tuple[str, ...]] = []

    def clean_lines():
        for post_id, text in zip(ids, texts):
            cp = clean_text(text, settings)
            outcomes[cp.rejected_reason] += 1
            if cp.tokens:  # a rejected post keeps none
                kept_ids.append(post_id)
                kept_tokens.append(cp.tokens)  # `clean_text` interns every token
            yield _clean_line(post_id, cp)

    write_records(out_dir / "clean.jsonl", "txt", clean_lines())
    report = {
        "input": len(ids),
        "accepted": outcomes[None],
        "rejected_too_short": outcomes["too_short"],
        "rejected_misspelled": outcomes["misspelled"],
        "emoji_whitelist_size": len(whitelist),
    }
    _write_json(out_dir / "clean_report.json", report)
    return report, whitelist, (kept_ids, kept_tokens)


def stage_report(
    cfg: PipelineConfig, out_dir: Path, kind: str, posts: tuple[Sequence[str], Sequence[str]]
) -> tuple[FrequencyRow, ...]:
    """Corpus frequency diagnostics over the texts of the located (ids, texts) `posts`; returns `<kind>.csv`'s rows."""
    _, texts = posts
    if kind == "hashtags":
        rows = hashtag_report(texts)
    elif kind == "emojis":
        rows = emoji_report(texts)
    else:
        raise ConfigError(f"unknown report kind {kind!r} (expected hashtags or emojis)")
    write_frequency_csv(rows, out_dir / f"{kind}.csv")
    return rows


def stage_train(cfg: PipelineConfig, out_dir: Path) -> tuple[dict, SentimentModel]:
    """Train the classifier (optionally with pseudo-labeling) on the cleaned training text, words only.

    Evaluates each fitted model on both splits, and returns the report and the model `model.json` holds.
    """
    from .sentiment import (
        CLASS_ORDER, LabeledExample, SentimentLabel, evaluate, load_labeled_csv, pseudo_label, save_model, train,
        train_test_split,
    )
    cs = cfg.classifier
    settings = _clean_settings(cfg, frozenset())  # no emoji is a token
    labeled: list[LabeledExample] = []
    neutral_pool: list[tuple[str, ...]] = []  # binary mode: the neutral texts' tokens, for pseudo-labels
    for _, label, text in load_labeled_csv(cfg.require_paths("training_data")["training_data"]):
        tokens = clean_text(text, settings).tokens  # a rejected text keeps none
        if tokens and cs.binary and label is SentimentLabel.NEUTRAL:
            neutral_pool.append(tokens)
        elif tokens:
            labeled.append(LabeledExample(tokens, label))
    if not labeled:
        raise DataValidationError("no usable training examples after cleaning")
    train_part, heldout = train_test_split(labeled, cs.test_fraction, cfg.seed)
    fit = partial(train, kind=cs.kind, smoothing=cs.smoothing, learning_rate=cs.learning_rate, epochs=cs.epochs,
                  l2=cs.l2, classes=(SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE) if cs.binary else CLASS_ORDER)
    models = {"base": fit(train_part)}
    pseudo: list[LabeledExample] = []
    if cs.pseudo_label and neutral_pool:
        pseudo = pseudo_label(models["base"], neutral_pool, min_confidence=cs.min_confidence)
        models["final"] = fit(train_part + pseudo)
    final_model = models.get("final", models["base"])
    save_model(final_model, out_dir / "model.json")
    evals = [(name, dataset, evaluate(model, data)) for name, model in models.items()
             for dataset, data in (("train", train_part), ("heldout", heldout))]

    write_records(out_dir / "eval.csv", "csv", (
        (model_name, dataset, repr(rep.accuracy), int(rep.confusion.sum())) for model_name, dataset, rep in evals
    ), ("model", "dataset", "accuracy", "n"))
    write_records(out_dir / "confusions.csv", "csv", (
        (model_name, dataset, true_label.value, pred_label.value, int(rep.confusion[i, j]))
        for model_name, dataset, rep in evals
        for i, true_label in enumerate(final_model.classes)  # the classes of both models: `fit` fixes them
        for j, pred_label in enumerate(final_model.classes)
    ), ("model", "dataset", "true_label", "predicted_label", "count"))
    report = {
        "n_labeled": len(labeled),
        "n_train": len(train_part),
        "n_heldout": len(heldout),
        "neutral_pool": len(neutral_pool),
        "neutral_pool_used": len(neutral_pool) if "final" in models else 0,
        "n_pseudo_labels": len(pseudo),
        "kind": cs.kind,
        "binary": cs.binary,
        "accuracies": {f"{m}/{d}": rep.accuracy for m, d, rep in evals},
    }
    _write_json(out_dir / "train_report.json", report)
    return report, final_model


# Posts per `predict_batch` call in classify: large enough to amortise the call, small enough
# that one chunk's gathered weights and predictions take about a MiB.
_CLASSIFY_CHUNK = 4096


def stage_classify(
    cfg: PipelineConfig, out_dir: Path, model: SentimentModel, posts: tuple[Sequence[str], Sequence[Sequence[str]]]
) -> tuple[dict, tuple[Sequence[str], list[SentimentLabel]]]:
    """Predict the classifiable (ids, tokens) `posts` with the trained `model`, `_CLASSIFY_CHUNK` posts per batch.

    Returns the report and the predicted posts as (ids, labels), the ids being
    the ones `posts` holds: what `_predictions` reads back from
    `predictions.csv`, as `stage_aggregate` takes them.
    """
    from .sentiment import SentimentLabel, predict_batch
    positive = model.classes.index(SentimentLabel.POSITIVE) if SentimentLabel.POSITIVE in model.classes else None
    counts = {label.value: 0 for label in model.classes}
    n_fallback = 0
    labels: list[SentimentLabel] = []
    ids, tokens = posts

    def prediction_rows():  # rows are formatted as they are written; only the label is kept
        nonlocal n_fallback
        for start in range(0, len(ids), _CLASSIFY_CHUNK):
            end = start + _CLASSIFY_CHUNK
            for post_id, pred in zip(ids[start:end], predict_batch(model, tokens[start:end])):
                label = pred.label.value
                counts[label] += 1
                n_fallback += pred.fallback
                labels.append(pred.label)
                p_pos = "" if positive is None else repr(float(pred.scores[positive]))
                yield post_id, label, pred.fallback, p_pos

    write_records(out_dir / "predictions.csv", "csv", prediction_rows(), _PREDICTIONS_HEADER)
    report = {"classified": len(ids), "fallback": n_fallback, "predicted": counts}
    _write_json(out_dir / "classify_report.json", report)
    return report, (ids, labels)


def stage_import_predictions(
    cfg: PipelineConfig, out_dir: Path, posts: tuple[Sequence[str], Sequence[Sequence[str]]]
) -> dict:
    """Use third-party model predictions for the classifiable (ids, tokens) `posts` in place of the local classifier."""
    from .sentiment import import_external_predictions
    imported = import_external_predictions(cfg.require_paths("external_predictions")["external_predictions"])
    ids, _ = posts
    matched = len(imported.keys() & set(ids))  # ids not among the posts are counted
    write_records(out_dir / "predictions.csv", "csv", (
        (post_id, imported[post_id].value, False, "") for post_id in ids if post_id in imported
    ), _PREDICTIONS_HEADER)
    report = {"imported": len(imported), "matched": matched, "unknown_ids": len(imported) - matched}
    _write_json(out_dir / "import_report.json", report)
    return report


def stage_aggregate(
    cfg: PipelineConfig, out_dir: Path, located: Mapping[str, tuple[str | None, date]],
    predictions: tuple[Sequence[str], Sequence[SentimentLabel]],
) -> tuple[dict, list[RegionSentiment]]:
    """Fold the (ids, labels) `predictions` of the `located` posts into `region_sentiment.csv`.

    `regional.aggregate` does the whole fold: see it for what `located` holds
    and what is skipped. Returns the report and the regions of
    `region_sentiment.csv`, as the shift test and the fits take them.
    """
    from .regional import RegionSentiment, aggregate
    threshold = cfg.thresholds.min_region_posts
    ids, labels = predictions
    regions, neutral, no_region = aggregate(located, zip(ids, labels), cfg.event_date, threshold, cfg.event_day)
    write_records(out_dir / "region_sentiment.csv", "csv", map(RegionSentiment.row, regions), RegionSentiment.COLUMNS)
    report = {
        "observations": sum(r.total for r in regions) + no_region,
        "neutral_skipped": neutral,
        "without_region": no_region,
        "regions": len(regions),
        "included_regions": sum(r.included for r in regions),
        "threshold": threshold,
    }
    _write_json(out_dir / "aggregate_report.json", report)
    return report, regions


def stage_shift_test(cfg: PipelineConfig, out_dir: Path, regions: Sequence[RegionSentiment]) -> dict:
    """Global and per-region before/after proportion tests over `regions`."""
    from . import regional
    per_region = {
        r.region_id: regional.shift_test_for_region(r) for r in regions if r.included
    }
    global_test = regional.pooled_shift_test(regions)
    regional.write_shift_csv(regions, per_region, out_dir / "shift_tests.csv")
    payload = {
        "global": {"chi2": global_test.chi2, "p": global_test.p_value, "degenerate": global_test.degenerate},
        "alpha": cfg.alpha,
        **regional.shift_summary(per_region, cfg.alpha),
    }
    _write_json(out_dir / "shift_summary.json", payload)
    return payload


def _regression_design(cfg: PipelineConfig, regions: Sequence[RegionSentiment]) -> tuple[stats.DesignMatrix, dict]:
    from . import stats
    table_path = cfg.require_paths("region_table")["region_table"]
    table = load_region_table(table_path)
    included = {r.region_id: r for r in regions if r.included}
    if not included:
        threshold = cfg.thresholds.min_region_posts
        raise DataValidationError(
            f"no region has more than {threshold} classified posts (thresholds.min_region_posts); nothing to regress"
        )
    rows = [rec for rec in table if rec.region_id in included]
    if not rows:
        raise DataValidationError("no overlap between the region table and included regions")
    available = set(rows[0].features)
    features = cfg.regression.features if cfg.regression.features is not None else tuple(sorted(available))
    missing = [f for f in features if f not in available]
    if missing:
        raise DataValidationError(f"region table lacks feature columns {missing}")
    for name, term in (("sentiment", "the sentiment predictor"), ("intercept", "the intercept term")):
        if name in features:  # every fit has both terms: a column of the same name could not be told apart
            raise DataValidationError(f"{table_path}: feature column {name!r} clashes with {term}")
    for rec in rows:  # the table loader takes any float: a column no fit uses may hold nan or inf
        for f in features:
            if not math.isfinite(value := rec.features[f]):
                raise DataValidationError(
                    f"{table_path}: region_id {rec.region_id!r}: feature {f!r} is {value!r}, not a finite number")
    names = ("sentiment", *features)
    columns = [
        [included[rec.region_id].mean_sentiment] + [rec.features[f] for f in features]
        for rec in rows
    ]
    y = [rec.outcome for rec in rows]
    try:
        design = stats.design_matrix(names, columns, y)
        if cfg.regression.standardize:
            design = stats.standardize(design)
    except ValueError as exc:
        raise DataValidationError(str(exc)) from exc
    meta = {"n_regions": len(rows), "predictors": list(names), "standardized": cfg.regression.standardize}
    return design, meta


def _write_fit(fit: stats.OlsFit, out_dir: Path, stem: str, title: str) -> str:
    """Write `<stem>.csv`, `<stem>.txt` and `<stem>.json`; returns the table `<stem>.txt` holds."""
    from . import stats
    table = stats.format_fit_table(fit, title)
    write_records(out_dir / f"{stem}.csv", "csv", (
        (term, repr(float(fit.beta[i])), repr(float(fit.se[i])), repr(float(fit.t[i])), repr(float(fit.p[i])),
         stats.significance_stars(float(fit.p[i])))
        for i, term in enumerate(["intercept", *fit.names])
    ), ("term", "coefficient", "se", "t", "p", "stars"))
    (out_dir / f"{stem}.txt").write_text(table + "\n", encoding="utf-8")
    _write_json(out_dir / f"{stem}.json", {
        "n": fit.n,
        "r2": fit.r2,
        "adj_r2": fit.adj_r2,
        "f_stat": fit.f_stat,
        "f_p": fit.f_p,
        "aic": fit.aic,
        "rss": fit.rss,
    })
    return table


def stage_regress(cfg: PipelineConfig, out_dir: Path, regions: Sequence[RegionSentiment]) -> tuple[dict, str]:
    """Fit the outcome on the `regions`' sentiment plus the configured features; returns the report and fit table."""
    from . import stats
    design, meta = _regression_design(cfg, regions)
    fit = stats.ols(design)
    table = _write_fit(fit, out_dir, "regression_full", "Outcome model (all predictors)")
    return {**meta, "r2": fit.r2, "aic": fit.aic}, table


def stage_stepwise(
    cfg: PipelineConfig, out_dir: Path, regions: Sequence[RegionSentiment]
) -> tuple[dict, str, tuple[tuple[int, str, str, float], ...]]:
    """Greedy AIC selection over the regression predictors; returns the report, the fit table and the moves."""
    from . import stats
    design, meta = _regression_design(cfg, regions)
    result = stats.stepwise(design, cfg.regression.direction, cfg.regression.start)
    write_records(out_dir / "stepwise_trace.csv", "csv", (
        (step, action, name, repr(aic)) for step, action, name, aic in result.trace
    ), ("step", "action", "name", "aic"))
    table = _write_fit(result.fit, out_dir, "stepwise_model", "Outcome model (AIC-selected)")
    payload = {
        **meta,
        "selected": list(result.selected),
        "start_aic": result.start_aic,
        "aic": result.fit.aic,
        "steps": len(result.trace),
    }
    _write_json(out_dir / "stepwise.json", payload)
    return payload, table, result.trace


# ---------------------------------------------------------------------------
# Full pipeline + summary
# ---------------------------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(["---"] * len(header)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def _summary_markdown(
    reports: Mapping[str, Any], whitelist: frozenset[str], hashtags: Sequence[FrequencyRow],
    emojis: Sequence[FrequencyRow], included: Sequence[RegionSentiment], fit_tables: tuple[str, str],
    moves: Iterable[tuple[int, str, str, float]],
) -> str:
    """summary.md from what the stages returned; `hashtags` and `emojis` are the rows it prints."""
    ing, cln, trn = reports["ingest"], reports["clean"], reports["train"]
    cls, agg, sh = reports["classify"], reports["aggregate"], reports["shift"]
    return "\n".join([
        "# Pipeline summary",
        "",
        "## Corpus",
        "",
        _md_table(["metric", "value"], [
            ("posts loaded", ing["loaded"]),
            ("malformed records skipped", ing["skipped_records"]),
            ("located, language-matched", ing["located"]),
            ("resolved to a region", ing["resolved"]),
            ("unresolved place names", ing["unresolved"]),
            ("accepted after cleaning", cln["accepted"]),
            ("rejected: too short", cln["rejected_too_short"]),
            ("rejected: misspelled", cln["rejected_misspelled"]),
        ]),
        "",
        "## Top hashtags",
        "",
        _md_table(["hashtag", "count", "share"], [
            (r.item, r.count, f"{r.share * 100:.2f}%") for r in hashtags
        ]) if hashtags else "(no hashtags)",
        "",
        "## Emojis",
        "",
        _md_table(["emoji", "count", "share", "whitelisted"], [
            (r.item, r.count, f"{r.share * 100:.2f}%", r.item in whitelist) for r in emojis
        ]) if emojis else "(no emojis)",
        "",
        "## Sentiment classifier",
        "",
        _md_table(["model", "dataset", "accuracy"], [
            (*key.split("/"), f"{value:.4f}") for key, value in sorted(trn["accuracies"].items())
        ]),
        "",
        f"Pseudo-labeled examples added: {trn['n_pseudo_labels']} (pool {trn['neutral_pool_used']}).",
        "",
        f"Predicted distribution over {cls['classified']} posts: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(cls["predicted"].items())) + ".",
        "",
        "## Regional sentiment",
        "",
        f"{agg['included_regions']} of {agg['regions']} regions kept (more than {agg['threshold']} classified posts).",
        "",
        _md_table(["region", "posts", "mean sentiment"], [
            (r.region_id, r.total, f"{r.mean_sentiment:.4f}") for r in included
        ]) if included else "(no included regions)",
        "",
        "## Before/after shift",
        "",
        f"Global test: chi2(1) = {sh['global']['chi2']:.3f}, p = {sh['global']['p']:.3f}.",
        f"Per-region tests: {sh['n_significant']} of {sh['n_tested']} significant at alpha = {sh['alpha']}.",
        "",
        "## Outcome regression",
        "",
        "```",
        fit_tables[0],
        "```",
        "",
        "## Selected model",
        "",
        "```",
        fit_tables[1],
        "```",
        "",
        "Selection trace: " + ("; ".join(f"{action} {name}" for _, action, name, _ in moves) or "no moves") + ".",
        "",
    ])


def run_pipeline(cfg: PipelineConfig, out_dir: Path) -> dict:
    """ingest -> clean -> reports -> train -> classify -> aggregate -> shift -> regress -> stepwise.

    Each stage takes what the stages before it returned: the located posts as
    (ids, texts), their (region, UTC day) map, the classifiable posts as (ids,
    tokens), the model, the predictions as (ids, labels) and the regions go on
    in memory, and no artifact is read back for them or for summary.md, which
    is rendered from the stage returns. Writes every artifact the stage
    sequence writes, plus summary.md.
    Returns the report dict of each stage but the frequency reports, by stage name.
    """
    reports: dict[str, Any] = {}
    reports["ingest"], posts, located = stage_ingest(cfg, out_dir)
    reports["clean"], whitelist, classifiable = stage_clean(cfg, out_dir, posts)
    hashtags = stage_report(cfg, out_dir, "hashtags", posts)[:10]  # the rows the summary prints
    emojis = stage_report(cfg, out_dir, "emojis", posts)[:10]
    del posts  # freed before train: the post texts are not needed past the reports
    reports["train"], model = stage_train(cfg, out_dir)
    reports["classify"], predictions = stage_classify(cfg, out_dir, model, classifiable)
    del classifiable  # its tokens freed once classified: only the ids and labels go on
    reports["aggregate"], regions = stage_aggregate(cfg, out_dir, located, predictions)
    del located, predictions  # freed before regress and stepwise allocate their designs
    reports["shift"] = stage_shift_test(cfg, out_dir, regions)
    reports["regress"], full_table = stage_regress(cfg, out_dir, regions)
    reports["stepwise"], selected_table, moves = stage_stepwise(cfg, out_dir, regions)
    included = [region for region in regions if region.included]
    summary = _summary_markdown(reports, whitelist, hashtags, emojis, included, (full_table, selected_table), moves)
    (out_dir / "summary.md").write_text(summary, encoding="utf-8")
    return reports
