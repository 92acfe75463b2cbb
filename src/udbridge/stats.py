"""Descriptive corpus statistics: genre distribution, tag frequencies,
frequent tokens per tag, and lemma co-occurrence edges for graph views.

Counting conventions: tokens = all surface tokens; words = tokens that are
not PUNCT. Genre percentages are integers rounded half away from zero.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .conllu import Document
from .errors import DataError
from .util import percentage, tsv


@dataclass
class GenreRow:
    genre: str
    tokens: int
    words: int
    sentences: int
    tokens_pct: int = 0
    words_pct: int = 0
    sentences_pct: int = 0


@dataclass
class GenreTable:
    rows: list[GenreRow] = field(default_factory=list)
    total_tokens: int = 0
    total_words: int = 0
    total_sentences: int = 0

    def to_tsv(self) -> str:
        return tsv([
            ("genre", "tokens", "tokens_pct", "words", "words_pct", "sentences", "sentences_pct"),
            *((r.genre, r.tokens, r.tokens_pct, r.words, r.words_pct, r.sentences, r.sentences_pct)
              for r in self.rows),
            ("total", self.total_tokens, 100, self.total_words, 100, self.total_sentences, 100),
        ])


def genre_table_from_counts(rows: list[tuple[str, int, int, int]]) -> GenreTable:
    """Build the distribution table from raw (genre, tokens, words,
    sentences) counts."""
    if not rows:
        raise DataError("no genre rows")
    table = GenreTable()
    table.total_tokens = sum(r[1] for r in rows)
    table.total_words = sum(r[2] for r in rows)
    table.total_sentences = sum(r[3] for r in rows)
    if min(table.total_tokens, table.total_words, table.total_sentences) <= 0:
        raise DataError("genre totals must be positive")
    for genre, tokens, words, sentences in rows:
        table.rows.append(
            GenreRow(
                genre=genre,
                tokens=tokens,
                words=words,
                sentences=sentences,
                tokens_pct=int(percentage(tokens, table.total_tokens, 0)),
                words_pct=int(percentage(words, table.total_words, 0)),
                sentences_pct=int(percentage(sentences, table.total_sentences, 0)),
            )
        )
    return table


def genre_distribution(docs: list[tuple[str, Document]]) -> GenreTable:
    """Count tokens/words/sentences per genre; words exclude PUNCT."""
    counted: dict[str, list[int]] = {}
    for genre, doc in docs:
        if genre not in counted:
            counted[genre] = [0, 0, 0]
        bucket = counted[genre]
        for sent in doc.sentences:
            bucket[2] += 1
            for tok in sent.tokens:
                bucket[0] += 1
                if tok.upos != "PUNCT":
                    bucket[1] += 1
    return genre_table_from_counts([(g, *counts) for g, counts in counted.items()])


def split_by_genre(doc: Document, default: str = "all") -> list[tuple[str, Document]]:
    """Group sentences by their genre comment (document order preserved)."""
    grouped: dict[str, Document] = {}
    for sent in doc.sentences:
        genre = sent.genre or default
        if genre not in grouped:
            grouped[genre] = Document()
        grouped[genre].sentences.append(sent)
    return list(grouped.items())


def upos_frequencies(doc: Document) -> list[tuple[str, int]]:
    """Tag counts, most frequent first, ties alphabetical. Untagged tokens
    are skipped."""
    counts = Counter(tok.upos for tok in doc.tokens() if tok.upos is not None)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def top_tokens_per_upos(doc: Document, n: int = 10) -> dict[str, list[tuple[str, int]]]:
    """The n most frequent forms for every tag, same ordering rule."""
    if n < 1:
        raise DataError("n must be >= 1")
    per_tag: dict[str, Counter] = {}
    for tok in doc.tokens():
        if tok.upos is not None:
            per_tag.setdefault(tok.upos, Counter())[tok.form] += 1
    return {
        tag: sorted(bucket.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        for tag, bucket in sorted(per_tag.items())
    }


@dataclass(frozen=True)
class CoocEdge:
    lemma_a: str
    lemma_b: str
    weight: int


def lemma_sets(doc: Document, upos: str) -> list[set[str]]:
    """Per sentence, the lemmas of its tokens tagged `upos`."""
    return [{t.lemma for t in s.tokens if t.upos == upos and t.lemma is not None}
            for s in doc.sentences]


def cooccurrence(doc: Document, upos_filter: str, min_weight: int = 1) -> list[CoocEdge]:
    """Sentence-level co-occurrence of lemmas with the given tag.

    Each unordered lemma pair counts at most once per sentence, pairs are
    stored with lemma_a < lemma_b, self-loops are impossible, and edges
    below min_weight are dropped. Sorted by weight desc, then lemmas.
    """
    if min_weight < 1:
        raise DataError("min_weight must be >= 1")
    weights: Counter = Counter()
    for lemmas in map(sorted, lemma_sets(doc, upos_filter)):
        for a, b in combinations(lemmas, 2):
            weights[(a, b)] += 1
    edges = [CoocEdge(a, b, w) for (a, b), w in weights.items() if w >= min_weight]
    edges.sort(key=lambda e: (-e.weight, e.lemma_a, e.lemma_b))
    return edges


# report name -> the columns of its rows
REPORT_COLUMNS = {
    "upos": ("upos", "count"),
    "top": ("upos", "rank", "form", "count"),
    "cooc": ("lemma_a", "lemma_b", "weight"),
}


def report_rows(doc: Document, report: str, top_n: int = 10, upos_filter: str | None = None,
                min_weight: int = 1) -> list[list]:
    """The rows of a report in REPORT_COLUMNS, one list of values per row."""
    if report == "upos":
        return [[tag, count] for tag, count in upos_frequencies(doc)]
    if report == "top":
        return [
            [tag, rank, form, count]
            for tag, items in top_tokens_per_upos(doc, top_n).items()
            for rank, (form, count) in enumerate(items, start=1)
        ]
    return [[e.lemma_a, e.lemma_b, e.weight] for e in cooccurrence(doc, upos_filter, min_weight)]


def report_tsv(doc: Document, report: str, **options) -> str:
    """A report as TSV, its column names first; `options` go to report_rows."""
    return tsv([REPORT_COLUMNS[report], *report_rows(doc, report, **options)])
