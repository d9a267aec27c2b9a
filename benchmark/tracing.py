"""Outside-in tracing of regsent's layers, from the benchmark's own files.

`Tracer.install()` replaces each public layer function listed in LAYERS by a
wrapper that records a span, in every `regsent.*` module namespace that binds
it. Calls inside a layer resolve names through those namespaces, so nested
calls (evaluate -> predict, stepwise -> subset_design, ols -> student_t_sf)
are traced too. Spans stay in memory and are written once, at the end.

Not traced: private helpers, `normalize_place` (called once per gazetteer
row per resolved place, millions of times on `communes`, where a span each
would dominate the run) and the CLI's `_STAGES` table, which holds function
objects rather than names; the traced run drives `pipeline`, which does not
use it.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import sys
import time
from pathlib import Path

# layer -> (defining module, public functions). `load_config` lives in
# regsent.pipeline but is counted under cli: it is the set-up every
# subcommand invocation pays before any stage runs.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("regsent.cli", ("main",)),
    "pipeline": ("regsent.pipeline", (
        "run_pipeline", "stage_ingest", "stage_clean", "stage_report", "stage_train", "stage_classify",
        "stage_aggregate", "stage_shift_test", "stage_regress", "stage_stepwise",
    )),
    "corpus": ("regsent.corpus", (
        "load_posts", "filter_located", "load_gazetteer", "resolve_region", "region_counts", "load_region_table",
    )),
    "preprocess": ("regsent.preprocess", (
        "clean_text", "emoji_report", "hashtag_report", "select_emoji_whitelist", "write_frequency_csv",
        "load_word_list", "load_lemma_map", "load_emoji_polarity",
    )),
    "sentiment": ("regsent.sentiment", (
        "load_labeled_csv", "train_test_split", "train", "logistic_loss_and_grad", "evaluate", "predict",
        "pseudo_label", "save_model", "load_model",
    )),
    "regional": ("regsent.regional", (
        "aggregate", "shift_test", "shift_test_for_region", "pooled_shift_test", "shift_summary", "write_shift_csv",
    )),
    "stats": ("regsent.stats", (
        "design_matrix", "standardize", "ols", "stepwise", "subset_design", "gaussian_aic", "student_t_sf",
        "f_sf", "chi2_sf", "format_fit_table",
    )),
}
EXTRA = {"cli.load_config": ("regsent.pipeline", "load_config")}

STAGES = (
    "ingest", "clean", "report_hashtags", "report_emojis", "train", "classify",
    "aggregate", "shift_test", "regress", "stepwise",
)

# Result predicates counted as `<span>.hits`, the numerators of the ratios.
OUTCOMES = {
    "preprocess.clean_text": lambda cp: cp.accepted,
    "sentiment.predict": lambda pred: pred.fallback,
}

# regsent log message templates -> warning counter names.
WARNING_KINDS = {
    "importance tie for place": "corpus.warn_importance_tie.count",
    "skipping malformed post record": "corpus.warn_malformed_post.count",
}
OTHER_WARNINGS = "warnings.other.count"


def _stage_report_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[2] if len(args) > 2 else "")
    return f"pipeline.stage_report_{kind}"


NAMERS = {"pipeline.stage_report": _stage_report_name}


def targets() -> dict[str, tuple[str, str]]:
    """Span name -> (defining module, function name) of every traced function."""
    out = {f"{layer}.{fn}": (module, fn) for layer, (module, fns) in LAYERS.items() for fn in fns}
    out.update(EXTRA)
    return out


class _WarningCounter(logging.Handler):
    def __init__(self, counts: dict[str, int]):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        template = str(record.msg)
        kind = next((name for prefix, name in WARNING_KINDS.items() if template.startswith(prefix)), OTHER_WARNINGS)
        self.counts[kind] = self.counts.get(kind, 0) + 1


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []  # (id, parent, name, start_ns, end_ns)
        self.hits: dict[str, int] = {}
        self.warnings: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        namer = NAMERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, namer(args, kwargs) if namer else name, start, end))
            if outcome is not None and outcome(result):
                self.hits[name] = self.hits.get(name, 0) + 1
            return result

        return traced

    def install(self) -> None:
        """Import every regsent module and patch each traced function in place."""
        for module, _ in LAYERS.values():
            importlib.import_module(module)
        modules = [m for name, m in sys.modules.items() if name == "regsent" or name.startswith("regsent.")]
        for name, (module, attr) in targets().items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        logging.getLogger("regsent").addHandler(_WarningCounter(self.warnings))

    def dump(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": [[*span, self.run_id] for span in self.spans],
            "hits": self.hits,
            "warnings": self.warnings,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, int] = {}
    for span_id, _parent, _name, start, end, *_ in spans:
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def span_metrics(doc: dict) -> dict[str, float]:
    """Per-span totals, self times and call counts, per-layer self time and
    shares, ratios and warning counts for one traced run.

    `.s` sums a name's spans that have no ancestor of the same name, so a
    recursive call is not counted twice; every time is in seconds.
    """
    spans = doc["spans"]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    metrics: dict[str, float] = {f"{name}.calls": 0 for name in targets()}

    def add(key: str, value: float) -> None:
        metrics[key] = metrics.get(key, 0) + value

    for span_id, parent, name, start, end, *_ in spans:
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own[span_id] / 1e9)
        layer = name.split(".", 1)[0]
        add(f"layer.{layer}.self_s", own[span_id] / 1e9)
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            add(f"{name}.s", (end - start) / 1e9)

    total = metrics.get("cli.main.s", 0.0)
    for layer in LAYERS:
        metrics.setdefault(f"layer.{layer}.self_s", 0.0)
        metrics[f"layer.{layer}.share"] = metrics[f"layer.{layer}.self_s"] / total if total else 0.0
    stage_total = sum(metrics.get(f"pipeline.stage_{stage}.s", 0.0) for stage in STAGES)
    metrics["pipeline.stage_share"] = stage_total / total if total else 0.0

    hits = doc["hits"]
    clean_calls = metrics.get("preprocess.clean_text.calls", 0)
    metrics["preprocess.accept_ratio"] = hits.get("preprocess.clean_text", 0) / clean_calls if clean_calls else 0.0
    predict_calls = metrics.get("sentiment.predict.calls", 0)
    metrics["sentiment.fallback_ratio"] = hits.get("sentiment.predict", 0) / predict_calls if predict_calls else 0.0
    for name in (*WARNING_KINDS.values(), OTHER_WARNINGS):
        metrics[name] = doc["warnings"].get(name, 0)
    metrics["trace.spans"] = len(spans)
    return metrics


def resolve_hit_ratio(metrics: dict[str, float], located_posts: int) -> float:
    """Share of located posts whose region came from ingest's per-place cache."""
    calls = metrics.get("corpus.resolve_region.calls", 0)
    return (located_posts - calls) / located_posts if located_posts else 0.0
