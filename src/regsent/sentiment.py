"""Sentiment classifiers over bag-of-words tokens, plus pseudo-labeling.

Two trainable kinds share one model container: a multinomial naive Bayes
(Laplace-smoothed) and a softmax logistic classifier trained by full-batch
gradient descent on cross-entropy with L2. Both are deterministic given the
training data (vocabulary is sorted, initialization is zero). Third-party
model outputs can be imported from CSV instead of training locally.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError

__all__ = [
    "EvalReport",
    "LabeledExample",
    "Prediction",
    "SentimentLabel",
    "SentimentModel",
    "encode_binary",
    "evaluate",
    "import_external_predictions",
    "load_labeled_csv",
    "load_model",
    "logistic_loss_and_grad",
    "match_predictions",
    "positive_fraction",
    "predict",
    "pseudo_label",
    "save_model",
    "train",
    "train_test_split",
]


class SentimentLabel(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    @classmethod
    def parse(cls, raw: str) -> "SentimentLabel":
        try:
            return cls(raw.strip().lower())
        except ValueError:
            raise DataValidationError(f"unknown sentiment label {raw!r}") from None

    @property
    def binary_value(self) -> int:
        """Numeric encoding for the binary mode: negative 0, positive 1."""
        if self is SentimentLabel.NEGATIVE:
            return 0
        if self is SentimentLabel.POSITIVE:
            return 1
        raise ValueError("neutral has no binary encoding")


#: Canonical class order used for model class lists and tie-breaking.
CLASS_ORDER = (SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE)


def encode_binary(labels: Iterable[SentimentLabel]) -> list[int]:
    return [label.binary_value for label in labels]


def positive_fraction(labels: Sequence[SentimentLabel]) -> float:
    """Mean of the binary encoding; equals the positive share."""
    encoded = encode_binary(labels)
    return sum(encoded) / len(encoded)


@dataclass(frozen=True)
class LabeledExample:
    tokens: tuple[str, ...]
    label: SentimentLabel
    weight: float = 1.0

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("labeled example needs at least one token")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class SentimentModel:
    """Vocabulary plus per-class parameters of a bag-of-words classifier.

    For kind "naive_bayes", feature_weights holds log P(word | class) rows
    summing (in probability) to 1; for "logistic" it holds the softmax weight
    matrix and class_log_prior holds the bias terms.
    """

    kind: str
    classes: tuple[SentimentLabel, ...]
    vocabulary: dict[str, int]
    class_log_prior: np.ndarray   # shape (K,)
    feature_weights: np.ndarray   # shape (K, V)
    smoothing: float
    metadata: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Prediction:
    label: SentimentLabel
    scores: np.ndarray  # aligned with model.classes; sums to 1
    fallback: bool      # True when no token was in the vocabulary

    def score_for(self, label: SentimentLabel, classes: Sequence[SentimentLabel]) -> float:
        return float(self.scores[classes.index(label)])


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus a K x K confusion matrix (rows true, columns predicted)."""

    accuracy: float
    confusion: np.ndarray
    classes: tuple[SentimentLabel, ...]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def _count_matrix(data: Sequence[LabeledExample], vocabulary: Mapping[str, int]) -> np.ndarray:
    X = np.zeros((len(data), len(vocabulary)))
    for i, example in enumerate(data):
        for token in example.tokens:
            j = vocabulary.get(token)
            if j is not None:
                X[i, j] += 1.0
    return X


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    y_idx: np.ndarray,
    l2: float,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean weighted cross-entropy with L2 on weights (bias unpenalized).

    Returns (loss, grad_weights, grad_bias); kept separate from the training
    loop so the gradient can be checked against finite differences.
    """
    n = X.shape[0]
    w = np.ones(n) if sample_weight is None else sample_weight
    w_total = w.sum()
    logits = X @ weights.T + bias
    probs = _softmax(logits)
    eps = 1e-12
    loss = float(-(w * np.log(probs[np.arange(n), y_idx] + eps)).sum() / w_total)
    loss += 0.5 * l2 * float((weights * weights).sum())
    delta = probs.copy()
    delta[np.arange(n), y_idx] -= 1.0
    delta *= (w / w_total)[:, None]
    grad_w = delta.T @ X + l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def train(
    data: Sequence[LabeledExample],
    kind: str = "naive_bayes",
    *,
    smoothing: float = 1.0,
    learning_rate: float = 0.1,
    epochs: int = 300,
    l2: float = 1e-4,
    classes: Sequence[SentimentLabel] | None = None,
) -> SentimentModel:
    """Fit a classifier; deterministic for fixed data.

    When `classes` is given, every listed class must appear in the data
    (missing class -> DataValidationError naming it); otherwise classes are
    inferred from the data in canonical order.
    """
    if kind not in ("naive_bayes", "logistic"):
        raise ValueError(f"unknown classifier kind {kind!r}")
    if not data:
        raise DataValidationError("training data is empty")
    present = {example.label for example in data}
    if classes is None:
        model_classes = tuple(c for c in CLASS_ORDER if c in present)
    else:
        model_classes = tuple(classes)
        missing = [c for c in model_classes if c not in present]
        if missing:
            raise DataValidationError(f"no training examples for class '{missing[0].value}'")
        extra = present - set(model_classes)
        if extra:
            raise DataValidationError(f"training data contains unexpected class '{sorted(extra, key=lambda c: c.value)[0].value}'")
    if len(model_classes) < 2:
        raise DataValidationError("need at least two classes to train")

    vocabulary = {token: i for i, token in enumerate(sorted({t for ex in data for t in ex.tokens}))}
    class_index = {label: i for i, label in enumerate(model_classes)}
    y_idx = np.array([class_index[ex.label] for ex in data])
    sample_weight = np.array([ex.weight for ex in data])
    X = _count_matrix(data, vocabulary)
    K, V = len(model_classes), len(vocabulary)

    if kind == "naive_bayes":
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        counts = np.zeros((K, V))
        doc_weight = np.zeros(K)
        for i in range(len(data)):
            counts[y_idx[i]] += sample_weight[i] * X[i]
            doc_weight[y_idx[i]] += sample_weight[i]
        class_log_prior = np.log(doc_weight / doc_weight.sum())
        feature_log_prob = np.log((counts + smoothing) / (counts.sum(axis=1, keepdims=True) + smoothing * V))
        return SentimentModel(
            kind=kind,
            classes=model_classes,
            vocabulary=vocabulary,
            class_log_prior=class_log_prior,
            feature_weights=feature_log_prob,
            smoothing=smoothing,
        )

    weights = np.zeros((K, V))
    bias = np.zeros(K)
    for _ in range(epochs):
        _, grad_w, grad_b = logistic_loss_and_grad(weights, bias, X, y_idx, l2, sample_weight)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return SentimentModel(
        kind=kind,
        classes=model_classes,
        vocabulary=vocabulary,
        class_log_prior=bias,
        feature_weights=weights,
        smoothing=0.0,
        metadata={"learning_rate": learning_rate, "epochs": epochs, "l2": l2},
    )


def predict(model: SentimentModel, tokens: Iterable[str]) -> Prediction:
    """Class scores (normalized to sum 1) and the argmax label.

    Out-of-vocabulary tokens are ignored; if nothing remains the prediction
    falls back to the prior/bias argmax and is flagged. Score ties resolve to
    the earlier class in model.classes.
    """
    x = np.zeros(len(model.vocabulary))
    known = 0
    for token in tokens:
        j = model.vocabulary.get(token)
        if j is not None:
            x[j] += 1.0
            known += 1
    fallback = known == 0
    logits = model.class_log_prior + (model.feature_weights @ x)
    scores = _softmax(logits)
    label = model.classes[int(np.argmax(scores))]
    return Prediction(label=label, scores=scores, fallback=fallback)


def evaluate(model: SentimentModel, data: Sequence[LabeledExample]) -> EvalReport:
    """Accuracy and confusion matrix of the model on a labeled dataset."""
    if not data:
        raise DataValidationError("evaluation data is empty")
    class_index = {label: i for i, label in enumerate(model.classes)}
    confusion = np.zeros((model.n_classes, model.n_classes), dtype=int)
    for example in data:
        true_i = class_index.get(example.label)
        if true_i is None:
            raise DataValidationError(f"evaluation label '{example.label.value}' unknown to the model")
        pred = predict(model, example.tokens)
        confusion[true_i, class_index[pred.label]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy=accuracy, confusion=confusion, classes=model.classes)


def train_test_split(
    data: Sequence[LabeledExample],
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Seeded shuffle split; deterministic for a given (data, seed)."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    indices = list(range(len(data)))
    random.Random(seed).shuffle(indices)
    n_test = max(1, int(round(len(data) * test_fraction)))
    train_split = [data[i] for i in indices[n_test:]]
    test_split = [data[i] for i in indices[:n_test]]
    if not train_split:
        raise ValueError("split leaves no training data")
    return train_split, test_split


def pseudo_label(
    model: SentimentModel,
    pool: Sequence[Sequence[str]],
    *,
    min_confidence: float | None = None,
) -> list[LabeledExample]:
    """Predict the unlabeled pool and keep decided positives/negatives.

    Items the model cannot decide (all-unknown-token fallback) are excluded,
    as are neutral predictions from a 3-class model. `min_confidence` is an
    optional extra gate on the winning score, off by default.
    """
    out: list[LabeledExample] = []
    for tokens in pool:
        if not tokens:
            continue
        pred = predict(model, tokens)
        if pred.fallback:
            continue
        if pred.label is SentimentLabel.NEUTRAL:
            continue
        if min_confidence is not None and float(pred.scores.max()) < min_confidence:
            continue
        out.append(LabeledExample(tokens=tuple(tokens), label=pred.label))
    return out


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def load_labeled_csv(path: str | Path) -> list[tuple[str, SentimentLabel, str]]:
    """Training data CSV `id,label,text`; labels negative|neutral|positive."""
    path = Path(path)
    rows: list[tuple[str, SentimentLabel, str]] = []
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for line_no, row in enumerate(reader, 2):
            try:
                label = SentimentLabel.parse(row["label"])
            except (KeyError, DataValidationError) as exc:
                raise DataValidationError(f"{path}:{line_no}: {exc}") from None
            if not row.get("id") or row.get("text") is None:
                raise DataValidationError(f"{path}:{line_no}: missing id or text")
            rows.append((row["id"], label, row["text"]))
    return rows


def import_external_predictions(path: str | Path) -> dict[str, SentimentLabel]:
    """Predictions CSV `id,label` from a third-party model.

    Unknown label strings and duplicate ids are fatal, with the line number.
    """
    path = Path(path)
    out: dict[str, SentimentLabel] = {}
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise DataValidationError(f"{path}: expected header with id,label")
        for line_no, row in enumerate(reader, 2):
            label_raw = row.get("label") or ""
            if label_raw.strip().lower() not in ("negative", "neutral", "positive"):
                raise DataValidationError(f"{path}:{line_no}: unknown label {label_raw!r}")
            post_id = row["id"]
            if post_id in out:
                raise DataValidationError(f"{path}:{line_no}: duplicate id {post_id!r}")
            out[post_id] = SentimentLabel.parse(label_raw)
    return out


def match_predictions(
    predictions: Mapping[str, SentimentLabel],
    known_ids: Iterable[str],
) -> tuple[dict[str, SentimentLabel], int]:
    """Restrict imported predictions to known post ids.

    Returns (matched, n_unknown); ids absent from the corpus are rejected and
    counted rather than silently kept.
    """
    known = set(known_ids)
    matched = {post_id: label for post_id, label in predictions.items() if post_id in known}
    return matched, len(predictions) - len(matched)


# ---------------------------------------------------------------------------
# Persistence (versioned JSON, exact round-trip)
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def save_model(model: SentimentModel, path: str | Path) -> None:
    doc = {
        "format_version": _FORMAT_VERSION,
        "kind": model.kind,
        "classes": [c.value for c in model.classes],
        "vocabulary": model.vocabulary,
        "class_log_prior": [float(v) for v in model.class_log_prior],
        "feature_weights": [[float(v) for v in row] for row in model.feature_weights],
        "smoothing": model.smoothing,
        "metadata": model.metadata,
    }
    Path(path).write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> SentimentModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise DataValidationError(f"unsupported model format version {version!r}")
    classes = tuple(SentimentLabel.parse(c) for c in doc["classes"])
    model = SentimentModel(
        kind=doc["kind"],
        classes=classes,
        vocabulary={str(k): int(v) for k, v in doc["vocabulary"].items()},
        class_log_prior=np.array(doc["class_log_prior"], dtype=float),
        feature_weights=np.array(doc["feature_weights"], dtype=float).reshape(len(classes), -1),
        smoothing=float(doc["smoothing"]),
        metadata=dict(doc.get("metadata", {})),
    )
    if model.feature_weights.shape != (len(classes), len(model.vocabulary)):
        raise DataValidationError("model parameter shapes do not match the vocabulary")
    if model.kind == "naive_bayes":
        row_sums = np.exp(model.feature_weights).sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-8):
            raise DataValidationError("class-conditional probabilities do not sum to 1")
    if not np.all(np.isfinite(model.feature_weights)):
        raise DataValidationError("model weights are not finite")
    return model
