"""Review-text processing: TF-IDF feature selection over word ids.

Reproduces the paper's KG preprocessing step: "Feature entities from review
data are preprocessed using TF-IDF to eliminate less meaningful words,
retaining words with a frequency between 10 and 1,000 and a TF-IDF score
> 0.1". The frequency window is configurable because our synthetic corpora
are smaller than Amazon's.

A corpus is two parallel arrays, the review id and the word id of each
token, plus the number of reviews: that covers reviews of any length,
empty ones included (they still count in the IDF's N). Every statistic is
an array pass over the tokens and their distinct (review, word) pairs; no
reviews x vocabulary matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TfidfResult:
    """Outcome of TF-IDF feature-word selection."""

    selected_words: list[str]         # in string order
    word_scores: dict[str, float]
    # (n, 2) int64 (item, index into selected_words) pairs, one per token
    # of a selected word, in token order with repeats (build_knowledge_graph
    # deduplicates them with the rest of the KG's triplets)
    item_words: np.ndarray


def tfidf_scores(reviews: np.ndarray, words: np.ndarray, num_reviews: int,
                 vocab_size: int) -> np.ndarray:
    """Max-over-reviews TF-IDF score per word id (0 for unseen words).

    ``reviews`` and ``words`` hold the review id and word id of each
    token. TF is the within-review relative frequency; IDF is the
    standard ``log(N / df)`` with ``N = num_reviews``. Taking the max over
    reviews gives a per-word score suitable for the paper's "> 0.1"
    threshold semantics; the score of a (review, word) pair is evaluated
    as ``(count / length) * log(N / df)``.
    """
    reviews = np.asarray(reviews, dtype=np.int64)
    codes, counts = np.unique(reviews * vocab_size + words,
                              return_counts=True)
    review, word = np.divmod(codes, vocab_size)
    lengths = np.bincount(reviews, minlength=num_reviews)
    df = np.bincount(word, minlength=vocab_size)
    scores = np.zeros(vocab_size)
    np.maximum.at(scores, word, (counts / lengths[review])
                  * np.log(num_reviews / df[word]))
    return scores


def select_feature_words(reviews: np.ndarray, words: np.ndarray,
                         items: np.ndarray, vocabulary: list[str],
                         min_frequency: int = 10,
                         max_frequency: int = 1000,
                         min_score: float = 0.1) -> TfidfResult:
    """Select KG Feature entities from reviews, per the paper's recipe.

    Parameters
    ----------
    reviews, words:
        Review id and word id of each token (a corpus as described in
        the module docstring).
    items:
        The item each review is about; ``len(items)`` is the number of
        reviews.
    vocabulary:
        Distinct words, indexed by word id. Selected words are ordered
        by these strings, not by id.
    min_frequency, max_frequency:
        Corpus frequency window (paper: [10, 1000]).
    min_score:
        TF-IDF threshold (paper: 0.1).
    """
    reviews = np.asarray(reviews, dtype=np.int64)
    words = np.asarray(words, dtype=np.int64)
    vocab_size = len(vocabulary)
    frequency = np.bincount(words, minlength=vocab_size)
    scores = tfidf_scores(reviews, words, len(items), vocab_size)
    # a word that never occurs is no candidate, even for a window from 0
    keep = np.flatnonzero((frequency >= max(min_frequency, 1))
                          & (frequency <= max_frequency)
                          & (scores > min_score))
    selected = sorted(keep.tolist(), key=vocabulary.__getitem__)

    feature = np.full(vocab_size, -1, dtype=np.int64)
    feature[selected] = np.arange(len(selected))
    hits = feature[words] >= 0
    return TfidfResult(
        selected_words=[vocabulary[w] for w in selected],
        word_scores={vocabulary[w]: float(scores[w]) for w in selected},
        item_words=np.column_stack([
            np.asarray(items, dtype=np.int64)[reviews[hits]],
            feature[words[hits]]]),
    )
