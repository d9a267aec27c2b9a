"""Classifier training, prediction, evaluation, pseudo-labeling, and the CSV
interfaces."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generative_corpus
from regsent.errors import DataValidationError, NumericalError
from regsent.sentiment import (
    LabeledExample,
    SentimentLabel,
    SentimentModel,
    encode,
    evaluate,
    import_external_predictions,
    load_model,
    logistic_loss_and_grad,
    predict,
    predict_batch,
    pseudo_label,
    save_model,
    train,
)

NEG, NEU, POS = SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE


def ex(tokens, label):
    return LabeledExample(tokens=tuple(tokens), label=label)


TWO_DOCS = [ex(["good"], POS), ex(["bad"], NEG)]


class TestNaiveBayes:
    def test_hand_computed_laplace_posterior(self):
        # two docs, smoothing 1, vocabulary {bad, good}:
        # P(good|pos) = (1+1)/(1+2) = 2/3, P(good|neg) = (0+1)/(1+2) = 1/3,
        # equal priors => P(pos | "good") = 2/3
        model = train(TWO_DOCS, "naive_bayes", smoothing=1.0)
        pred = predict(model, ["good"])
        assert pred.label is POS
        assert abs(float(pred.scores[model.classes.index(POS)]) - 2 / 3) < 1e-12
        assert abs(float(pred.scores[model.classes.index(NEG)]) - 1 / 3) < 1e-12

    def test_empty_document_counts_in_the_class_prior_only(self):
        model = train(TWO_DOCS + [ex([], POS)], "naive_bayes", smoothing=1.0)
        # priors 2/3 and 1/3; the word likelihoods are those of TWO_DOCS alone
        assert np.allclose(np.exp(model.class_log_prior), [1 / 3, 2 / 3])
        assert np.array_equal(model.feature_weights, train(TWO_DOCS, "naive_bayes", smoothing=1.0).feature_weights)

    def test_training_is_deterministic(self):
        data = generative_corpus(80, seed=1)
        a = train(data, "naive_bayes")
        b = train(data, "naive_bayes")
        assert np.array_equal(a.class_log_prior, b.class_log_prior)
        assert np.array_equal(a.feature_weights, b.feature_weights)
        assert a.vocabulary == b.vocabulary

    def test_class_conditionals_sum_to_one(self):
        model = train(generative_corpus(60, seed=2), "naive_bayes")
        assert np.allclose(np.exp(model.feature_weights).sum(axis=1), 1.0, atol=1e-12)

    def test_missing_class_fatal_with_name(self):
        data = [ex(["good"], POS), ex(["fine"], POS)]
        with pytest.raises(DataValidationError, match="negative"):
            train(data, "naive_bayes", classes=(NEG, POS))

    def test_count_scaling_invariance(self):
        # multiplying every document's token counts by m leaves the decision
        # rule exactly unchanged when the smoothing scales along (the model is
        # a function of count ratios); with smoothing held fixed, each token's
        # log-conditional can move by at most ln(m), so the argmax still
        # cannot flip when the decision margin beats 2 * n_tokens * ln(m)
        data = generative_corpus(60, seed=3)
        queries = [generative_corpus(1, seed=100 + i)[0].tokens for i in range(40)]
        base = train(data, "naive_bayes", smoothing=1.0)
        for m in (2, 3, 5):
            scaled_data = [ex(list(e.tokens) * m, e.label) for e in data]
            rescaled = train(scaled_data, "naive_bayes", smoothing=float(m))
            assert np.allclose(rescaled.feature_weights, base.feature_weights, atol=1e-12)
            assert np.allclose(rescaled.class_log_prior, base.class_log_prior, atol=1e-12)

            fixed = train(scaled_data, "naive_bayes", smoothing=1.0)
            assert np.allclose(fixed.class_log_prior, base.class_log_prior, atol=1e-12)
            bound = 2 * 6 * math.log(m)  # queries have six tokens
            for tokens in queries:
                p_base = predict(base, tokens)
                logit = np.sort(np.log(p_base.scores + 1e-300))
                margin = float(logit[-1] - logit[-2])
                assert predict(rescaled, tokens).label is p_base.label
                if margin > bound:
                    assert predict(fixed, tokens).label is p_base.label


class TestLogistic:
    def test_separable_corpus_trains_to_high_accuracy(self):
        rng = random.Random(8)
        data = []
        for i in range(200):
            if i % 2:
                data.append(ex([rng.choice(["fine", "nice", "sunny"]) for _ in range(4)], POS))
            else:
                data.append(ex([rng.choice(["bleak", "rough", "rainy"]) for _ in range(4)], NEG))
        model = train(data, "logistic")
        assert evaluate(model, data).accuracy >= 0.99

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(5, 15))
            v = int(rng.integers(2, 8))
            k = int(rng.integers(2, 4))
            X = rng.integers(0, 4, size=(n, v)).astype(float)
            y = rng.integers(0, k, size=n)
            w = rng.normal(0, 0.5, size=(k, v))
            b = rng.normal(0, 0.5, size=k)
            l2 = 0.01
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2)
            eps = 1e-6
            num_w = np.zeros_like(w)
            for i in range(k):
                for j in range(v):
                    up, down = w.copy(), w.copy()
                    up[i, j] += eps
                    down[i, j] -= eps
                    num_w[i, j] = (
                        logistic_loss_and_grad(up, b, X, y, l2)[0]
                        - logistic_loss_and_grad(down, b, X, y, l2)[0]
                    ) / (2 * eps)
            num_b = np.zeros_like(b)
            for i in range(k):
                up, down = b.copy(), b.copy()
                up[i] += eps
                down[i] -= eps
                num_b[i] = (
                    logistic_loss_and_grad(w, up, X, y, l2)[0]
                    - logistic_loss_and_grad(w, down, X, y, l2)[0]
                ) / (2 * eps)
            denom = max(1.0, float(np.linalg.norm(num_w)))
            assert np.linalg.norm(grad_w - num_w) / denom < 1e-5
            assert np.linalg.norm(grad_b - num_b) / max(1.0, float(np.linalg.norm(num_b))) < 1e-5

    @pytest.mark.parametrize("setting, pattern", [
        ({"learning_rate": 1e6}, r"classifier\.learning_rate \(now 1000000\.0\)"),  # weights stop being finite
        ({"l2": 25.0}, r"classifier\.l2 \(now 25\.0\)"),  # each step scales the weights by 1 - 0.1 * 25: finite, worse
    ], ids=["learning_rate", "l2"])
    def test_divergence_raises_naming_the_setting(self, recwarn, setting, pattern):
        data = generative_corpus(60, seed=35)
        with pytest.raises(NumericalError, match=pattern):
            train(data, "logistic", **setting)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# The dense bag-of-words path the sparse core replaced, kept here as the
# reference the sparse encoding and the sparse prediction must reproduce.

def _dense_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def _dense_counts(docs, vocabulary):
    X = np.zeros((len(docs), len(vocabulary)))
    for i, tokens in enumerate(docs):
        for token in tokens:
            j = vocabulary.get(token)
            if j is not None:
                X[i, j] += 1.0
    return X


def _dense_predict(model, tokens):
    x = np.zeros(len(model.vocabulary))
    known = 0
    for token in tokens:
        j = model.vocabulary.get(token)
        if j is not None:
            x[j] += 1.0
            known += 1
    scores = _dense_softmax(model.class_log_prior + (model.feature_weights @ x))
    return model.classes[int(np.argmax(scores))], scores, known == 0


_KNOWN_WORDS = [f"w{i}" for i in range(12)]
_WORDS = _KNOWN_WORDS + ["unk0", "unk1", "unk2"]
_DOCS = st.lists(st.lists(st.sampled_from(_WORDS), max_size=8), min_size=1, max_size=25)


@st.composite
def _random_model(draw):
    words = draw(st.lists(st.sampled_from(_KNOWN_WORDS), min_size=1, max_size=len(_KNOWN_WORDS), unique=True))
    columns = draw(st.permutations(range(len(words))))
    classes = (NEG, NEU, POS) if draw(st.booleans()) else (NEG, POS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SentimentModel(
        kind="logistic", classes=classes, vocabulary=dict(zip(words, columns)),
        class_log_prior=rng.normal(0, 1, len(classes)),
        feature_weights=rng.normal(0, 2, (len(classes), len(words))), smoothing=0.0,
    )


class TestSparseEquivalence:
    """Sparse encoding and sparse prediction against the dense reference above."""

    @settings(max_examples=200, deadline=None)
    @given(model=_random_model(), docs=_DOCS)
    def test_predict_matches_dense_reference(self, model, docs):
        # an empty, an all-unknown and a repeated-token document in every batch
        docs = [*docs, [], ["unk0", "unk1", "unk0"], [next(iter(model.vocabulary))] * 3]
        batch = predict_batch(model, (iter(tokens) for tokens in docs))
        assert len(batch) == len(docs)
        for tokens, pred in zip(docs, batch):
            label, scores, fallback = _dense_predict(model, tokens)
            assert pred.label is label
            assert pred.fallback == fallback
            assert np.abs(pred.scores - scores).max() <= 1e-12
            alone = predict(model, iter(tokens))  # a batch of one: the row does not depend on its batch
            assert (alone.label, alone.fallback) == (pred.label, pred.fallback)
            assert np.array_equal(alone.scores, pred.scores)

    @settings(max_examples=200, deadline=None)
    @given(model=_random_model(), docs=_DOCS, data=st.data())
    def test_loss_and_grad_on_encoding_equal_dense(self, model, docs, data):
        X = encode(docs, model.vocabulary)
        dense = _dense_counts(docs, model.vocabulary)
        assert X.shape == dense.shape
        K = len(model.classes)
        y = np.array(data.draw(st.lists(st.integers(0, K - 1), min_size=len(docs), max_size=len(docs))))
        sparse_out = logistic_loss_and_grad(model.feature_weights, model.class_log_prior, X, y, 0.01)
        dense_out = logistic_loss_and_grad(model.feature_weights, model.class_log_prior, dense, y, 0.01)
        assert abs(sparse_out[0] - dense_out[0]) <= 1e-12
        assert np.abs(sparse_out[1] - dense_out[1]).max() <= 1e-12
        assert np.abs(sparse_out[2] - dense_out[2]).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(_KNOWN_WORDS[:6]), max_size=8), min_size=1, max_size=25),
           data=st.data())
    def test_naive_bayes_equals_dense_counts_exactly(self, docs, data):
        """Three classes, repeated tokens, empty documents and words one class alone uses, against np.add.at."""
        labels = data.draw(st.lists(st.sampled_from([NEG, NEU, POS]), min_size=len(docs), max_size=len(docs)))
        examples = [ex(d, label) for d, label in zip(docs, labels)]
        examples += [ex([], NEU), ex(["only_neg", "only_neg"], NEG), ex(["w0", "w0", "only_pos"], POS), ex([], POS)]
        smoothing = data.draw(st.sampled_from([0.5, 1.0, 2]))
        model = train(examples, "naive_bayes", smoothing=smoothing)
        assert model.classes == (NEG, NEU, POS)
        cells = [(model.classes.index(e.label), model.vocabulary[t]) for e in examples for t in e.tokens]
        counts = np.zeros(model.feature_weights.shape)
        np.add.at(counts, tuple(np.array(cells).T), 1.0)
        V = len(model.vocabulary)
        expected = np.log((counts + smoothing) / (counts.sum(axis=1, keepdims=True) + smoothing * V))
        assert np.array_equal(model.feature_weights, expected)
        docs_per_class = np.array([sum(e.label is c for e in examples) for c in model.classes])
        assert np.array_equal(model.class_log_prior, np.log(docs_per_class / docs_per_class.sum()))

    def test_gradient_on_encoding_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        vocabulary = {w: i for i, w in enumerate(_KNOWN_WORDS[:7])}
        for _ in range(20):
            n, k = int(rng.integers(5, 15)), int(rng.integers(2, 4))
            docs = [list(rng.choice(_WORDS, size=int(rng.integers(0, 6)))) for _ in range(n)]
            X = encode(docs, vocabulary)
            y = rng.integers(0, k, size=n)
            w = rng.normal(0, 0.5, size=(k, len(vocabulary)))
            b = rng.normal(0, 0.5, size=k)
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, 0.01)
            eps = 1e-6
            num_w = np.zeros_like(w)
            for idx in np.ndindex(*w.shape):
                up, down = w.copy(), w.copy()
                up[idx] += eps
                down[idx] -= eps
                num_w[idx] = (logistic_loss_and_grad(up, b, X, y, 0.01)[0]
                              - logistic_loss_and_grad(down, b, X, y, 0.01)[0]) / (2 * eps)
            num_b = np.zeros_like(b)
            for i in range(k):
                up, down = b.copy(), b.copy()
                up[i] += eps
                down[i] -= eps
                num_b[i] = (logistic_loss_and_grad(w, up, X, y, 0.01)[0]
                            - logistic_loss_and_grad(w, down, X, y, 0.01)[0]) / (2 * eps)
            assert np.linalg.norm(grad_w - num_w) / max(1.0, float(np.linalg.norm(num_w))) < 1e-5
            assert np.linalg.norm(grad_b - num_b) / max(1.0, float(np.linalg.norm(num_b))) < 1e-5

    def test_encoding_layout(self):
        # one entry per known token, in document order, repeats kept
        X = encode([["b", "a", "b", "zzz"], [], ["zzz"], ["a"]], {"a": 0, "b": 1})
        assert X.shape == (4, 2)
        assert X.indptr.tolist() == [0, 3, 3, 3, 4]
        assert X.indices.tolist() == [1, 0, 1, 0]


# Row-major arithmetic: the product stacked one row per document, and the loss,
# gradient and training loop on it. The class-major product must give the same
# bits, so these are compared with ==, never with a tolerance.

def _row_major_product(X, weights):
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return np.stack([np.bincount(rows, weights=w[X.indices], minlength=X.shape[0]) for w in weights], axis=1)


def _row_major_loss_and_grad(weights, bias, X, y_idx, l2):
    n = X.shape[0]
    rows = np.repeat(np.arange(n), np.diff(X.indptr))
    probs = _dense_softmax(_row_major_product(X, weights) + bias)
    assert probs.flags.c_contiguous
    loss = float(-np.log(probs[np.arange(n), y_idx] + 1e-12).sum() / n)
    loss += 0.5 * l2 * float((weights * weights).sum())
    delta = probs.copy()
    delta[np.arange(n), y_idx] -= 1.0
    delta *= 1.0 / n
    grad_w = np.stack([np.bincount(X.indices, weights=d[rows], minlength=X.shape[1]) for d in delta.T]) + l2 * weights
    return loss, grad_w, delta.sum(axis=0)


class TestClassMajorBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(model=_random_model(), docs=_DOCS, data=st.data())
    def test_loss_and_grad_equal_row_major(self, model, docs, data):
        X = encode(docs, model.vocabulary)
        y = np.array(data.draw(st.lists(st.integers(0, len(model.classes) - 1), min_size=len(docs), max_size=len(docs))))
        loss, grad_w, grad_b = logistic_loss_and_grad(model.feature_weights, model.class_log_prior, X, y, 0.01)
        ref_loss, ref_grad_w, ref_grad_b = _row_major_loss_and_grad(
            model.feature_weights, model.class_log_prior, X, y, 0.01)
        assert loss == ref_loss
        assert np.array_equal(grad_w, ref_grad_w) and np.array_equal(grad_b, ref_grad_b)

    @settings(max_examples=200, deadline=None)
    @given(model=_random_model(), docs=_DOCS)
    def test_predict_batch_scores_equal_row_major(self, model, docs):
        # ties: a document with no known token against equal biases, and repeats of one document
        model = dataclasses.replace(model, class_log_prior=np.round(model.class_log_prior))
        docs = [*docs, [], docs[0], docs[0]]
        X = encode(docs, model.vocabulary)
        expected = _dense_softmax(_row_major_product(X, model.feature_weights) + model.class_log_prior)
        batch = predict_batch(model, docs)
        assert np.array_equal(np.array([pred.scores for pred in batch]), expected)
        assert [pred.label for pred in batch] == [model.classes[i] for i in expected.argmax(axis=1)]

    @settings(max_examples=50, deadline=None)
    @given(model=_random_model(), docs=_DOCS, data=st.data())
    def test_training_equals_row_major_loop(self, model, docs, data):
        labels = [data.draw(st.sampled_from(model.classes)) for _ in docs]
        examples = [ex(d, label) for d, label in zip(docs, labels) if d]
        # every class present, each with a word of its own, so the first step moves the loss
        examples += [ex([f"only{i}"], label) for i, label in enumerate(model.classes)]
        trained = train(examples, "logistic", epochs=20, learning_rate=0.01)
        X = encode((e.tokens for e in examples), trained.vocabulary)
        y = np.array([model.classes.index(e.label) for e in examples])
        weights, bias = np.zeros(trained.feature_weights.shape), np.zeros(len(model.classes))
        for _ in range(20):
            _, grad_w, grad_b = _row_major_loss_and_grad(weights, bias, X, y, 1e-4)
            weights -= 0.01 * grad_w
            bias -= 0.01 * grad_b
        assert trained.classes == model.classes
        assert np.array_equal(trained.feature_weights, weights) and np.array_equal(trained.class_log_prior, bias)


class TestMemoryBound:
    def test_training_memory_scales_with_tokens(self):
        # 20 000 docs over a 50 000-word vocabulary: a dense count matrix
        # would take 20 000 x 50 000 x 8 B, about 7.5 GiB
        n_docs, n_words = 20_000, 50_000
        words = [f"w{j}" for j in range(n_words)]
        rng = random.Random(3)
        data = []
        for i in range(n_docs):
            tokens = [words[(i * 10 + j) % n_words] for j in range(10)] + [rng.choice(words) for _ in range(2)]
            data.append(ex(tokens, POS if i % 2 else NEG))
        tracemalloc.start()
        try:
            nb = train(data, "naive_bayes")
            logistic = train(data, "logistic", epochs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(nb.vocabulary) == len(logistic.vocabulary) == n_words
        assert peak <= 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestPredict:
    def test_empty_batch(self):
        assert predict_batch(train(TWO_DOCS, "naive_bayes"), []) == []

    def test_scores_sum_to_one(self):
        model = train(generative_corpus(50, seed=5), "naive_bayes")
        rng = random.Random(6)
        for _ in range(50):
            tokens = generative_corpus(1, seed=rng.randint(0, 10**6))[0].tokens
            pred = predict(model, tokens)
            assert abs(float(pred.scores.sum()) - 1.0) < 1e-9

    def test_empty_tokens_prior_fallback_flagged(self):
        data = [ex(["good"], POS)] * 3 + [ex(["bad"], NEG)]
        model = train(data, "naive_bayes")
        pred = predict(model, [])
        assert pred.fallback
        assert pred.label is POS  # majority prior
        assert abs(float(pred.scores[model.classes.index(POS)]) - 0.75) < 1e-9

    def test_all_oov_prior_fallback(self):
        model = train(TWO_DOCS, "naive_bayes")
        pred = predict(model, ["zzz", "qqq"])
        assert pred.fallback
        assert pred.label is NEG  # equal priors, tie resolves to first class

    def test_tie_breaks_by_class_order(self):
        model = train(TWO_DOCS, "naive_bayes")
        pred = predict(model, ["good", "bad"])  # symmetric evidence
        assert abs(pred.scores[0] - pred.scores[1]) < 1e-12
        assert pred.label is NEG


class TestEvaluate:
    def test_perfect_model_diagonal(self):
        data = generative_corpus(40, seed=9)
        model = train(data, "naive_bayes")
        report = evaluate(model, data)
        if report.accuracy == 1.0:
            assert report.confusion.sum() == np.trace(report.confusion)
        # memorization is near perfect on this corpus either way
        assert report.accuracy > 0.9

    def test_constant_model_on_balanced_set_is_half(self):
        model = SentimentModel(
            kind="naive_bayes", classes=(NEG, POS), vocabulary={},
            class_log_prior=np.log(np.array([0.7, 0.3])),
            feature_weights=np.zeros((2, 0)), smoothing=1.0,
        )
        data = [ex(["x"], POS), ex(["y"], NEG)] * 10
        report = evaluate(model, data)
        assert report.accuracy == 0.5

    def test_three_class_random_labels_near_chance_and_recount(self):
        rng = random.Random(12)
        vocab = [f"w{i}" for i in range(30)]
        def rand_set(n):
            return [
                ex([rng.choice(vocab) for _ in range(6)], rng.choice([NEG, NEU, POS]))
                for _ in range(n)
            ]
        train_set, eval_set = rand_set(300), rand_set(300)
        model = train(train_set, "naive_bayes")
        report = evaluate(model, eval_set)
        assert 0.25 <= report.accuracy <= 0.42
        recount = sum(
            predict(model, e.tokens).label is e.label for e in eval_set
        ) / len(eval_set)
        assert abs(report.accuracy - recount) < 1e-12
        assert report.confusion.sum() == 300


class TestPseudoLabel:
    def test_empty_pool(self):
        model = train(TWO_DOCS, "naive_bayes")
        assert pseudo_label(model, []) == []

    def test_memorized_document_labeled_positive(self):
        model = train(TWO_DOCS, "naive_bayes")
        out = pseudo_label(model, [("good",)])
        assert len(out) == 1 and out[0].label is POS

    def test_fallback_items_excluded(self):
        model = train(TWO_DOCS, "naive_bayes")
        out = pseudo_label(model, [("zzz",), ("good",)])
        assert [e.tokens for e in out] == [("good",)]

    def test_empty_document_is_a_fallback_and_excluded(self):
        model = train(TWO_DOCS, "naive_bayes")
        assert predict(model, ()).fallback
        assert pseudo_label(model, [()]) == []

    def test_confidence_gate(self):
        model = train(TWO_DOCS, "naive_bayes")
        # P(pos | good^k) = 2^k / (2^k + 1): 2/3, then 8/9, then 16/17 > 0.9
        assert pseudo_label(model, [("good",)], min_confidence=0.9) == []
        assert len(pseudo_label(model, [("good",) * 4], min_confidence=0.9)) == 1

    def test_original_examples_untouched(self):
        originals = generative_corpus(30, seed=14)
        snapshot = [(e.tokens, e.label) for e in originals]
        model = train(originals, "naive_bayes")
        pseudo = pseudo_label(model, [e.tokens for e in generative_corpus(40, seed=15)])
        combined = originals + pseudo
        assert combined[: len(originals)] == originals
        assert all(combined[i] is originals[i] for i in range(len(originals)))
        assert [(e.tokens, e.label) for e in originals] == snapshot

    def test_agreement_close_to_heldout_accuracy(self):
        labeled = generative_corpus(300, seed=21)
        heldout = generative_corpus(200, seed=22)
        pool_truth = generative_corpus(500, seed=23)
        model = train(labeled, "naive_bayes")
        heldout_acc = evaluate(model, heldout).accuracy
        truth = {tuple(e.tokens): e.label for e in pool_truth}
        pseudo = pseudo_label(model, [e.tokens for e in pool_truth])
        agreement = sum(e.label is truth[e.tokens] for e in pseudo) / len(pseudo)
        assert agreement >= heldout_acc - 0.05


class TestExternalPredictions:
    def test_three_valid_rows(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("id,label\na,positive\nb,negative\nc,neutral\n", encoding="utf-8")
        out = import_external_predictions(path)
        assert out == {"a": POS, "b": NEG, "c": NEU}

    def test_unknown_label_fatal_with_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("id,label\na,positive\nb,meh\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=r":3:"):
            import_external_predictions(path)

    def test_duplicate_id_fatal(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("id,label\na,positive\na,negative\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=r":3: duplicate id 'a', first used at line 2$"):
            import_external_predictions(path)

    def test_thousand_row_roundtrip(self, tmp_path):
        rng = random.Random(31)
        rows = [(f"post{i:04d}", rng.choice(["negative", "neutral", "positive"])) for i in range(1000)]
        path = tmp_path / "preds.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "label"])
            writer.writerows(rows)
        out = import_external_predictions(path)
        assert len(out) == 1000
        for post_id, label in rows:
            assert out[post_id].value == label


class TestPersistence:
    @pytest.mark.parametrize("kind", ["naive_bayes", "logistic"])
    def test_exact_roundtrip(self, tmp_path, kind):
        model = train(generative_corpus(60, seed=33), kind, epochs=40)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.classes == model.classes
        assert loaded.vocabulary == model.vocabulary
        assert np.array_equal(loaded.class_log_prior, model.class_log_prior)
        assert np.array_equal(loaded.feature_weights, model.feature_weights)
        tokens = generative_corpus(1, seed=34)[0].tokens
        assert predict(loaded, tokens).label is predict(model, tokens).label

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(DataValidationError, match="version"):
            load_model(path)


def _saved_model(tmp_path):
    path = tmp_path / "model.json"
    save_model(train(generative_corpus(60, seed=36), "naive_bayes"), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def _vocab_index(value):
    def probe(doc):
        doc["vocabulary"][next(iter(doc["vocabulary"]))] = value
    return probe


def _duplicate_column(doc):
    first, second = list(doc["vocabulary"])[:2]
    doc["vocabulary"][second] = doc["vocabulary"][first]


def _set(key, value):
    def probe(doc):
        doc[key] = value
    return probe


def _nan_prior(doc):
    doc["class_log_prior"][0] = float("nan")


def _feature_weight(kind, value):
    def probe(doc):
        doc["kind"] = kind  # a naive-Bayes model's weights are valid logistic weights
        doc["feature_weights"][0][0] = value
    return probe


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    for text in ('{"format_version": 1', "[]"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataValidationError):
            load_model(path)


@pytest.mark.parametrize("probe, message", [
    pytest.param(_vocab_index(-1), "permutation", id="vocabulary-index-minus-one"),
    pytest.param(_duplicate_column, "permutation", id="vocabulary-duplicate-column"),
    pytest.param(_vocab_index(10**6), "permutation", id="vocabulary-index-beyond-V"),
    pytest.param(_vocab_index(1.5), "permutation", id="vocabulary-index-not-integer"),
    pytest.param(_set("kind", "svm"), "kind", id="kind-svm"),
    pytest.param(_set("classes", ["negative", "negative"]), "distinct", id="classes-repeated"),
    pytest.param(_set("classes", ["negative"]), "distinct", id="classes-single"),
    pytest.param(_nan_prior, "not finite", id="class-log-prior-nan"),
    pytest.param(_set("class_log_prior", [0.0, 0.0, 0.0]), "shapes", id="class-log-prior-shape"),
    pytest.param(_set("feature_weights", "x"), "numeric|shapes", id="feature-weights-not-an-array"),
    pytest.param(lambda doc: doc.pop("kind"), "lacks kind", id="missing-key"),
    pytest.param(_set("vocabulary", ["a", "b"]), "vocabulary must be an object", id="vocabulary-not-an-object"),
    pytest.param(_set("classes", "negative"), "list of label names", id="classes-not-a-list"),
    pytest.param(_set("classes", [0, "positive"]), "list of label names", id="classes-entry-not-a-string"),
    pytest.param(_set("smoothing", "x"), "smoothing", id="smoothing-string"),
    pytest.param(_set("smoothing", True), "smoothing", id="smoothing-bool"),
    pytest.param(_set("smoothing", 10**400), "double range", id="smoothing-beyond-double"),
    pytest.param(_set("metadata", []), "metadata", id="metadata-not-an-object"),
    *(pytest.param(_feature_weight(kind, value), "weights are not finite", id=f"feature-weights-{name}-{kind}")
      for kind in ("naive_bayes", "logistic") for name, value in (("nan", float("nan")), ("inf", float("inf")))),
])
def test_load_model_rejects_malformed(tmp_path, probe, message):
    path, doc = _saved_model(tmp_path)
    probe(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataValidationError, match=message):
        load_model(path)
