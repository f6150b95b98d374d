"""Tests for the TF-IDF feature-word selection pipeline.

Selection runs on word-id arrays. The string-corpus ``Counter`` pipeline
it replaced is kept in ``text_reference.py``: on every corpus here the
array form must give the same scores (compared with ``==``), the same
selected words in the same string order and the same (item, word)
pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import text_reference as reference
from repro.data.amazon import beauty_config
from repro.data.text import select_feature_words, tfidf_scores
from repro.data.weixin import weixin_config
from repro.data.world import WorldConfig, generate_world

VOCABULARY = ["brush", "clean", "color", "great", "hair", "lipstick", "red",
              "shampoo", "soft"]


@pytest.fixture()
def corpus():
    return [
        (0, 0, ["shampoo", "hair", "great"]),
        (1, 0, ["shampoo", "clean"]),
        (2, 1, ["lipstick", "red", "great"]),
        (3, 1, ["lipstick", "color"]),
        (4, 2, ["brush", "soft", "great"]),
    ]


def select(reviews, vocabulary=VOCABULARY, **thresholds):
    return select_feature_words(*reference.encode(reviews, vocabulary),
                                vocabulary, **thresholds)


def item_word_pairs(result) -> set:
    return {(int(item), result.selected_words[feature])
            for item, feature in result.item_words}


def assert_equals_reference(reviews, vocabulary, **thresholds):
    review_ids, word_ids, items = reference.encode(reviews, vocabulary)
    scores = tfidf_scores(review_ids, word_ids, len(reviews),
                          len(vocabulary))
    want_scores = reference.tfidf_scores([words for _, _, words in reviews])
    assert {vocabulary[w]: scores[w]
            for w in np.unique(word_ids)} == want_scores
    unseen = np.setdiff1d(np.arange(len(vocabulary)), word_ids)
    assert not scores[unseen].any()

    got = select_feature_words(review_ids, word_ids, items, vocabulary,
                               **thresholds)
    want = reference.select_feature_words(reviews, **thresholds)
    assert got.selected_words == want.selected_words
    assert got.word_scores == want.word_scores
    assert got.item_words.dtype == np.int64
    assert got.item_words.shape == (len(got.item_words), 2)
    assert item_word_pairs(got) == {
        (item, word) for item, words in want.item_words.items()
        for word in words}


class TestFrequencies:
    def test_term_counts(self):
        """The window reads raw corpus counts, repeats within a review
        included: "a" occurs three times in two reviews."""
        reviews = [(0, 0, ["a", "a", "b"]), (1, 1, ["a"])]
        result = select(reviews, vocabulary=["a", "b"], min_frequency=3,
                        max_frequency=3, min_score=-1.0)
        assert result.selected_words == ["a"]

    def test_document_frequencies_dedupe_within_doc(self):
        """Reviews [a, a, b], [b], [c]: "a" twice in one review has df 1,
        not 2, so its score is (2/3) * log(3/1), not (2/3) * log(3/2)."""
        scores = tfidf_scores(np.array([0, 0, 0, 1, 2]),
                              np.array([0, 0, 1, 1, 2]), 3, 3)
        assert scores[0] == (2 / 3) * np.log(3 / 1)
        assert scores[1] == (1 / 1) * np.log(3 / 2)


class TestTfidf:
    def test_ubiquitous_word_scores_zero(self):
        # word 0 in all three reviews, words 1-3 in one each
        scores = tfidf_scores(np.array([0, 0, 1, 1, 2, 2]),
                              np.array([0, 1, 0, 2, 0, 3]), 3, 4)
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_rare_focused_word_scores_high(self):
        # review 0 is word 0 alone; reviews 1 and 2 are words 1, 2, 3
        scores = tfidf_scores(np.array([0, 1, 1, 1, 2, 2, 2]),
                              np.array([0, 1, 2, 3, 1, 2, 3]), 3, 4)
        assert scores[0] > scores[1]

    def test_empty_corpus(self):
        scores = tfidf_scores(np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64), 0, 3)
        assert scores.shape == (3,)
        assert not scores.any()

    def test_empty_reviews_count_in_n(self):
        scores = tfidf_scores(np.array([0]), np.array([0]), 3, 1)
        assert scores[0] == 1.0 * np.log(3 / 1)


class TestSelection:
    def test_frequency_window_applied(self, corpus):
        result = select(corpus, min_frequency=2, max_frequency=2,
                        min_score=0.0)
        assert "shampoo" in result.selected_words
        assert "great" not in result.selected_words    # freq 3 > max 2
        assert "red" not in result.selected_words      # freq 1 < min 2

    def test_item_words_mapping(self, corpus):
        result = select(corpus, min_frequency=1, max_frequency=10,
                        min_score=0.0)
        pairs = item_word_pairs(result)
        assert (0, "shampoo") in pairs
        assert (1, "lipstick") in pairs
        assert (1, "shampoo") not in pairs

    def test_score_threshold_filters(self, corpus):
        strict = select(corpus, min_frequency=1, max_frequency=10,
                        min_score=10.0)
        assert strict.selected_words == []
        assert strict.item_words.shape == (0, 2)

    def test_selected_words_sorted_and_unique(self, corpus):
        result = select(corpus, min_frequency=1, max_frequency=10,
                        min_score=0.0)
        assert result.selected_words == sorted(set(result.selected_words))

    def test_synthetic_world_selects_topical_words(self):
        world = generate_world(WorldConfig(
            num_users=60, num_items=40, vocab_size=100,
            cluster_vocab_size=10, seed=5))
        result = select_feature_words(
            *reference.encode(reference.world_reviews(world),
                              world.vocabulary),
            world.vocabulary, min_frequency=10, max_frequency=1000,
            min_score=0.02)
        assert len(result.selected_words) > 0

    def test_string_order_past_ten_thousand_words(self):
        """"word10000" sorts before "word1001": the selection keeps the
        vocabulary's string order, not its id order."""
        vocabulary = [f"word{idx:04d}" for idx in range(12000)]
        reviews = [(0, 0, ["word1001", "word10000"]),
                   (1, 1, ["word0005"])]
        result = select(reviews, vocabulary=vocabulary, min_frequency=1,
                        min_score=0.0)
        assert result.selected_words == ["word0005", "word10000",
                                         "word1001"]


# ---------------------------------------------------------------------------
# the array form against the Counter reference
# ---------------------------------------------------------------------------

LARGE_VOCABULARY = reference.LARGE_VOCABULARY_WORLD.vocab_size
# ids on both sides of 10000, where "word1001" > "word10000"
LARGE_POOL = [0, 7, 999, 1000, 1001, 5000, 9999, 10000, 10001, 10010, 11999]
VOCABULARIES = {size: [f"word{idx:04d}" for idx in range(size)]
                for size in (3, 40, LARGE_VOCABULARY)}


@st.composite
def corpora(draw):
    """(vocabulary, string reviews): variable-length and empty reviews,
    repeated words, sometimes one word in every review (idf 0)."""
    vocab_size = draw(st.sampled_from(sorted(VOCABULARIES)))
    pool = (LARGE_POOL if vocab_size == LARGE_VOCABULARY
            else list(range(vocab_size)))
    num_reviews = draw(st.integers(0, 25))
    documents = [draw(st.lists(st.sampled_from(pool), max_size=8))
                 for _ in range(num_reviews)]
    if num_reviews and draw(st.booleans()):
        everywhere = draw(st.sampled_from(pool))
        documents = [words + [everywhere] for words in documents]
    vocabulary = VOCABULARIES[vocab_size]
    reviews = [(user, draw(st.integers(0, 5)),
                [vocabulary[w] for w in words])
               for user, words in enumerate(documents)]
    return vocabulary, reviews


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.integers(0, 3), st.integers(1, 12),
           st.sampled_from([-1.0, 0.0, 0.05, 0.3]))
    def test_random_corpora(self, corpus, min_frequency, max_frequency,
                            min_score):
        vocabulary, reviews = corpus
        assert_equals_reference(reviews, vocabulary,
                                min_frequency=min_frequency,
                                max_frequency=max_frequency,
                                min_score=min_score)

    @pytest.mark.parametrize("make_config, min_frequency", [
        (lambda: reference.CATALOG_WORLD, 10),
        (beauty_config, 10),
        (weixin_config, 10),
        (lambda: reference.LARGE_VOCABULARY_WORLD, 2),
    ], ids=["catalog", "beauty", "weixin", "vocab-12000"])
    def test_world_corpora(self, make_config, min_frequency):
        world = generate_world(make_config())
        assert_equals_reference(reference.world_reviews(world),
                                world.vocabulary,
                                min_frequency=min_frequency,
                                max_frequency=1000, min_score=0.02)
