"""Sentiment classifiers over bag-of-words tokens, plus pseudo-labeling.

Two trainable kinds share one model container: a multinomial naive Bayes
(Laplace-smoothed) and a softmax logistic classifier trained by full-batch
gradient descent on cross-entropy with L2. Both are deterministic given the
training data (vocabulary is sorted, initialization is zero). Logistic
training stops with NumericalError naming `classifier.learning_rate` as soon
as the loss or the weights stop being finite, and naming it and
`classifier.l2` when the last epoch's loss is not below the first's.
Third-party model outputs can be imported from CSV instead of training locally.

Training and scoring share one encoding: `encode` turns documents into the
vocabulary columns of their known tokens (`TokenCounts`, one entry per token,
repeats kept). Naive Bayes counts it per class with one `np.bincount`; logistic
training and `predict_batch`, the one scorer (`predict` is a batch of one), multiply
it with the weights: time and memory grow with the tokens, never documents x
vocabulary. The product is class-major, so the softmax reduces whole class
columns, not a short row per document, adding terms in the same order.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, NumericalError, open_input, read_records
from .regional import SentimentLabel

__all__ = [
    "EvalReport",
    "LabeledExample",
    "Prediction",
    "SentimentLabel",
    "SentimentModel",
    "TokenCounts",
    "encode",
    "evaluate",
    "import_external_predictions",
    "load_labeled_csv",
    "load_model",
    "logistic_loss_and_grad",
    "predict",
    "predict_batch",
    "pseudo_label",
    "save_model",
    "train",
    "train_test_split",
]


#: Canonical class order used for model class lists and tie-breaking.
CLASS_ORDER = (SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE)


@dataclass(frozen=True)
class LabeledExample:
    tokens: tuple[str, ...]
    label: SentimentLabel


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


class Prediction(NamedTuple):
    label: SentimentLabel
    scores: np.ndarray  # aligned with model.classes; sums to 1
    fallback: bool      # True when no token was in the vocabulary


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus a K x K confusion matrix over model.classes (rows true, columns predicted)."""

    accuracy: float
    confusion: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


class TokenCounts:
    """Sparse n x V token-count matrix: each document's known tokens as vocabulary columns.

    Row i holds one entry per known token of document i, in document order and
    with repeats kept, at the columns `indices[indptr[i]:indptr[i + 1]]`; a
    column listed twice adds twice. Only the two products the classifiers need
    are defined, `X @ dense` (class-major: F-ordered), which scores, and
    `dense @ X`, which only the logistic gradient takes, each one `np.bincount`
    per class; numpy ufuncs defer to them (`__array_ufunc__ = None`).
    """

    __array_ufunc__ = None

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n_words: int):
        self.indptr, self.indices = indptr, indices
        self.shape = (len(indptr) - 1, n_words)
        self._rows = np.repeat(np.arange(self.shape[0]), indptr[1:] - indptr[:-1])

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """(n, V) @ (V, K) -> (n, K), class-major."""
        other = np.asarray(other)
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        return np.stack([np.bincount(self._rows, weights=col[self.indices], minlength=self.shape[0]) for col in other.T]).T

    def __rmatmul__(self, other: np.ndarray) -> np.ndarray:
        """(K, n) @ (n, V) -> (K, V)."""
        other = np.asarray(other)
        if other.shape[1] != self.shape[0]:
            raise ValueError(f"matmul shape mismatch: {other.shape} @ {self.shape}")
        return np.stack([np.bincount(self.indices, weights=row[self._rows], minlength=self.shape[1]) for row in other])


def encode(docs: Iterable[Iterable[str]], vocabulary: Mapping[str, int]) -> TokenCounts:
    """The vocabulary columns of each document's tokens, in order and with repeats; unknown tokens are dropped."""
    columns, indptr = array("q"), array("q", [0])
    for doc in docs:
        columns.extend([j for j in map(vocabulary.get, doc) if j is not None])
        indptr.append(len(columns))
    return TokenCounts(np.asarray(indptr), np.asarray(columns), len(vocabulary))


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray | TokenCounts,
    y_idx: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy with L2 on weights (bias unpenalized).

    Returns (loss, grad_weights, grad_bias); kept separate from the training
    loop so the gradient can be checked against finite differences. `X` is a
    dense n x V count matrix or the same matrix as `TokenCounts`.
    """
    n = X.shape[0]
    logits = X @ weights.T + bias
    probs = _softmax(logits)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), y_idx] + eps).sum() / n)
    loss += 0.5 * l2 * float((weights * weights).sum())
    delta = probs.copy()
    delta[np.arange(n), y_idx] -= 1.0
    delta *= 1.0 / n
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
    X = encode((ex.tokens for ex in data), vocabulary)
    K, V = len(model_classes), len(vocabulary)

    if kind == "naive_bayes":
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        word_counts = np.bincount(y_idx[X._rows] * V + X.indices, minlength=K * V).reshape(K, V)  # exact integers
        bias = np.log(np.bincount(y_idx, minlength=K) / len(data))
        weights = np.log((word_counts + smoothing) / (word_counts.sum(axis=1, keepdims=True) + smoothing * V))
        metadata = {}
    else:
        weights = np.zeros((K, V))
        bias = np.zeros(K)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(1, epochs + 1):
                loss, grad_w, grad_b = logistic_loss_and_grad(weights, bias, X, y_idx, l2)
                if epoch == 1:
                    first_loss = loss  # at zero weights: ln K
                weights -= learning_rate * grad_w
                bias -= learning_rate * grad_b
                if not (np.isfinite(loss) and np.isfinite(weights).all() and np.isfinite(bias).all()):
                    raise NumericalError(
                        f"logistic training diverged at epoch {epoch} (loss or weights not finite); "
                        f"lower classifier.learning_rate (now {learning_rate!r})"
                    )
        if epochs > 1 and not loss < first_loss:  # finite, but the steps overshoot: the fit got no better
            raise NumericalError(f"logistic training ended at loss {loss:.4g}, not below its first {first_loss:.4g}; "
                                 f"lower classifier.learning_rate (now {learning_rate!r}) or classifier.l2 (now {l2!r})")
        smoothing = 0.0
        metadata = {"learning_rate": learning_rate, "epochs": epochs, "l2": l2}
    return SentimentModel(
        kind=kind,
        classes=model_classes,
        vocabulary=vocabulary,
        class_log_prior=bias,
        feature_weights=weights,
        smoothing=smoothing,
        metadata=metadata,
    )


def predict_batch(model: SentimentModel, docs: Iterable[Iterable[str]]) -> list[Prediction]:
    """The prediction of each document: class scores (normalized to sum 1) and the argmax label.

    The documents are encoded as training encodes them (`encode`) and scored with one
    product against the weights, so the cost grows with the tokens, not the vocabulary.
    Unknown tokens are ignored; a document with none left is a flagged fallback, scored
    on the prior/bias alone. Ties resolve to the earlier model class.
    """
    X = encode(docs, model.vocabulary)
    scores = _softmax(X @ model.feature_weights.T + model.class_log_prior)
    fallback = (X.indptr[1:] == X.indptr[:-1]).tolist()  # the empty rows
    return [Prediction(model.classes[i], row, flag)
            for i, row, flag in zip(scores.argmax(axis=1).tolist(), scores, fallback)]


def predict(model: SentimentModel, tokens: Iterable[str]) -> Prediction:
    """`predict_batch` of the one document `tokens`."""
    return predict_batch(model, [tokens])[0]


def evaluate(model: SentimentModel, data: Sequence[LabeledExample]) -> EvalReport:
    """Accuracy and confusion matrix of the model on a labeled dataset."""
    if not data:
        raise DataValidationError("evaluation data is empty")
    class_index = {label: i for i, label in enumerate(model.classes)}
    confusion = np.zeros((len(model.classes), len(model.classes)), dtype=int)
    for example in data:
        true_i = class_index.get(example.label)
        if true_i is None:
            raise DataValidationError(f"evaluation label '{example.label.value}' unknown to the model")
        pred = predict(model, example.tokens)
        confusion[true_i, class_index[pred.label]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy=accuracy, confusion=confusion)


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
        raise DataValidationError("split leaves no training data")
    return train_split, test_split


def pseudo_label(
    model: SentimentModel,
    pool: Sequence[Sequence[str]],
    *,
    min_confidence: float | None = None,
) -> list[LabeledExample]:
    """Predict the unlabeled pool and keep decided positives/negatives.

    Items the model cannot decide (all-unknown-token fallback, an empty one too) are excluded,
    as are neutral predictions from a 3-class model. `min_confidence` is an
    optional extra gate on the winning score, off by default.
    """
    out: list[LabeledExample] = []
    for tokens in pool:
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
    """Training data CSV `id,label,text`; labels negative|neutral|positive, each id once."""

    def to_row(row: dict[str, str]) -> tuple[str, SentimentLabel, str]:
        label = SentimentLabel.parse(row["label"])
        if not row["id"]:
            raise ValueError("missing id")
        return row["id"], label, row["text"]

    return read_records(path, "csv", to_row, columns=("id", "label", "text"), key=("id", itemgetter(0)))


def import_external_predictions(path: str | Path) -> dict[str, SentimentLabel]:
    """Predictions CSV `id,label` from a third-party model.

    Unknown label strings and duplicate ids are fatal, with the line number.
    """
    return dict(read_records(path, "csv", lambda row: (row["id"], SentimentLabel.parse(row["label"])),
                             columns=("id", "label"), key=("id", itemgetter(0))))


# ---------------------------------------------------------------------------
# Persistence (versioned JSON, exact round-trip)
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1
_MODEL_KEYS = ("kind", "classes", "vocabulary", "class_log_prior", "feature_weights", "smoothing")


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
    """Read a saved model, rejecting any document `save_model` could not have written."""
    try:
        with open_input(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"model file is not valid JSON: {exc}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != _FORMAT_VERSION:
        raise DataValidationError(f"unsupported model format version {version!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise DataValidationError(f"model file lacks {', '.join(missing)}")
    if doc["kind"] not in ("naive_bayes", "logistic"):
        raise DataValidationError(f"unknown model kind {doc['kind']!r}")
    if not isinstance(doc["classes"], list) or not all(isinstance(c, str) for c in doc["classes"]):
        raise DataValidationError("model classes must be a list of label names")
    classes = tuple(SentimentLabel.parse(c) for c in doc["classes"])
    if len(set(classes)) != len(classes) or len(classes) < 2:
        raise DataValidationError("model classes must be at least two distinct labels")
    if not isinstance(doc["vocabulary"], dict):
        raise DataValidationError("model vocabulary must be an object of word -> column")
    columns = list(doc["vocabulary"].values())
    if any(type(j) is not int for j in columns) or sorted(columns) != list(range(len(columns))):
        raise DataValidationError("model vocabulary indices are not a permutation of 0..V-1")
    if type(doc["smoothing"]) not in (int, float):
        raise DataValidationError("model smoothing must be a number")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataValidationError("model metadata must be an object")
    try:
        class_log_prior = np.array(doc["class_log_prior"], dtype=float)
        feature_weights = np.array(doc["feature_weights"], dtype=float)
        smoothing = float(doc["smoothing"])
    except (TypeError, ValueError, OverflowError):
        raise DataValidationError("model parameters are not numeric or exceed double range") from None
    if class_log_prior.shape != (len(classes),) or feature_weights.shape != (len(classes), len(columns)):
        raise DataValidationError("model parameter shapes do not match the classes and vocabulary")
    if not np.isfinite(class_log_prior).all():
        raise DataValidationError("model class log-priors are not finite")
    model = SentimentModel(
        kind=doc["kind"],
        classes=classes,
        vocabulary=doc["vocabulary"],
        class_log_prior=class_log_prior,
        feature_weights=feature_weights,
        smoothing=smoothing,
        metadata=metadata,
    )
    if not np.all(np.isfinite(model.feature_weights)):
        raise DataValidationError("model weights are not finite")
    if model.kind == "naive_bayes":
        row_sums = np.exp(model.feature_weights).sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-8):
            raise DataValidationError("class-conditional probabilities do not sum to 1")
    return model
