"""Keyword extraction from POS-tagged transcripts, language-feature
construction, and TF-IDF genre-word analytics with the cross-genre
exclusion mechanism.

Keywords are the top-k most frequent noun/pronoun/adjective tokens; the
TF-IDF variant is raw count times smoothed idf, ln((1+n)/(1+df)) + 1.
"""

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KEYWORD_POS",
    "TfidfTable",
    "extract_keywords",
    "language_feature",
    "tfidf_scores",
    "ranked_words",
    "exclusion_filter",
    "build_genre_tables",
    "filtered_genre_rankings",
    "write_ranked_csv",
]

# POS tags that carry descriptive content; the rest of the transcript is
# ignored by both keyword extraction and TF-IDF (flag-controllable below).
KEYWORD_POS = ("NOUN", "PRON", "ADJ")


def extract_keywords(transcript, k: int = 20) -> list:
    """Top-k eligible tokens by (frequency desc, text asc); deterministic and
    order-independent over the transcript."""
    if k < 0:
        raise ValueError("k must be >= 0")
    counts = Counter(t.text for t in transcript if t.pos in KEYWORD_POS)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [word for word, _ in ordered[:k]]


def language_feature(keywords, table) -> tuple:
    """Mean embedding of the keywords present in the table -> (vector, flag).

    Out-of-vocabulary keywords are skipped; an empty list or all-OOV input
    yields a zero vector with the flag set.
    """
    acc = np.zeros(table.dim, dtype=np.float64)
    used = 0
    for word in keywords:
        if word in table:
            acc += table[word].astype(np.float64)
            used += 1
    if used == 0:
        return np.zeros(table.dim, dtype=np.float32), True
    return (acc / used).astype(np.float32), False


@dataclass
class TfidfTable:
    """Per-genre n x m term-score matrix; scores[j] is the exact column sum."""

    genre: str
    movie_ids: list
    vocabulary: list
    matrix: np.ndarray  # (n_movies, n_words) float64
    scores: np.ndarray  # (n_words,) float64


def tfidf_scores(genre: str, corpus, eligible_only: bool = True) -> TfidfTable:
    """TF-IDF table for one genre.

    ``corpus`` is a sequence of (movie_id, transcript) pairs. tf is the raw
    count of the word in the movie; idf = ln((1+n)/(1+df)) + 1 where df
    counts the movies containing the word. Scores are accumulated over
    movies in ascending index order so a brute-force recount matches
    exactly.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError(f"genre {genre!r}: empty corpus")
    per_movie = []
    for _, transcript in corpus:
        if eligible_only:
            per_movie.append(Counter(t.text for t in transcript if t.pos in KEYWORD_POS))
        else:
            per_movie.append(Counter(t.text for t in transcript))
    vocabulary = sorted(set().union(*per_movie)) if per_movie else []
    n = len(corpus)
    m = len(vocabulary)
    col = {w: j for j, w in enumerate(vocabulary)}
    tf = np.zeros((n, m), dtype=np.float64)
    for i, counts in enumerate(per_movie):
        for word, c in counts.items():
            tf[i, col[word]] = c
    df = (tf > 0).sum(axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    matrix = tf * idf
    scores = np.zeros(m, dtype=np.float64)
    for i in range(n):
        scores += matrix[i]
    return TfidfTable(genre=genre, movie_ids=[mid for mid, _ in corpus],
                      vocabulary=vocabulary, matrix=matrix, scores=scores)


def ranked_words(table: TfidfTable) -> list:
    """(word, score) pairs sorted by score desc, word asc."""
    pairs = list(zip(table.vocabulary, table.scores.tolist()))
    return sorted(pairs, key=lambda ws: (-ws[1], ws[0]))


def exclusion_filter(ranked_lists: dict, top_n: int = 20, max_genres: int = 5) -> dict:
    """Drop words that crowd the top of too many genres.

    Concatenate each genre's top ``top_n`` words; a word occurring more than
    ``max_genres`` times in that combined list is removed from every genre's
    ranking. Remaining order is preserved.
    """
    occurrences = Counter()
    for ranking in ranked_lists.values():
        for word, _ in ranking[:top_n]:
            occurrences[word] += 1
    excluded = {w for w, c in occurrences.items() if c > max_genres}
    return {
        genre: [(w, s) for w, s in ranking if w not in excluded]
        for genre, ranking in ranked_lists.items()
    }


def build_genre_tables(records, taxonomy, eligible_only: bool = True) -> dict:
    """One TfidfTable per genre that has at least one record.

    A record belongs to every genre it is labeled with, so multi-genre movies
    contribute to several corpora.
    """
    corpora = {genre: [] for genre in taxonomy.names}
    for rec in records:
        for genre in rec.genres:
            corpora[genre].append((rec.id, rec.transcript))
    return {g: tfidf_scores(g, corpora[g], eligible_only) for g in taxonomy.names if corpora[g]}


def filtered_genre_rankings(tables: dict, top_n: int = 20, max_genres: int = 5) -> tuple:
    """(raw rankings, exclusion-filtered rankings) per genre."""
    raw = {genre: ranked_words(t) for genre, t in tables.items()}
    return raw, exclusion_filter(raw, top_n=top_n, max_genres=max_genres)


def write_ranked_csv(rankings: dict, path, limit: int = None) -> None:
    """Emit (genre, rank, word, score) rows; the data behind per-genre
    wordclouds, without the rendering."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["genre", "rank", "word", "score"])
        for genre in sorted(rankings):
            ranking = rankings[genre] if limit is None else rankings[genre][:limit]
            for rank, (word, score) in enumerate(ranking, start=1):
                writer.writerow([genre, rank, word, repr(score)])
