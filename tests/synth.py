"""Deterministic synthetic corpora for tests.

Two generators live here. The grammar corpus produces fully annotated,
unambiguous sentences from a small closed vocabulary and fixed tree
templates, so a freshly trained pipeline can be expected to score near
100% on held-out cuts. The random-document generator produces valid but
otherwise arbitrary CoNLL-U structure (multiword ranges, stray comments,
unset fields) for round-trip checks, plus a set of malformed inputs.
"""

import random
from dataclasses import dataclass

from udbridge.conllu import Document, MultiwordRange, Sentence, Token

# ---------------------------------------------------------------- grammar

XPOS_BY_UPOS = {
    "DET": "lw",
    "NOUN": "n",
    "VERB": "ww",
    "ADP": "vz",
    "ADV": "bw",
    "PRON": "vnw",
    "PROPN": "spec",
    "PUNCT": "let",
}


@dataclass(frozen=True)
class Word:
    form: str
    lemma: str
    upos: str
    feats: tuple[tuple[str, str], ...] = ()


def _verb(form: str) -> Word:
    # closed conjugation: 3sg form ends in t, lemma swaps it for e
    assert form.endswith("t")
    return Word(form, form[:-1] + "e", "VERB", (("Number", "Sing"), ("Person", "3")))


VOCAB: dict[str, list[Word]] = {
    "DET": [
        Word("de", "de", "DET", (("Definite", "Def"),)),
        Word("it", "it", "DET", (("Definite", "Def"),)),
        Word("in", "in", "DET", (("Definite", "Ind"),)),
        Word("dizze", "dizze", "DET", (("Definite", "Def"),)),
    ],
    "NOUN": [
        Word(f, f, "NOUN", (("Number", "Sing"),))
        for f in ["man", "frou", "bern", "hûn", "kat", "boek", "hûs", "beam", "stêd", "auto"]
    ],
    "VERB": [
        _verb(f)
        for f in [
            "sjocht", "heart", "fynt", "lêst", "skriuwt",
            "rint", "sliept", "wurket", "iepenet", "fangt",
        ]
    ],
    "ADP": [Word(f, f, "ADP") for f in ["yn", "op", "mei", "fan", "nei", "oan"]],
    "ADV": [Word(f, f, "ADV") for f in ["hjoed", "gau", "faak", "no", "hjir"]],
    "PRON": [
        Word("hy", "hy", "PRON", (("Person", "3"),)),
        Word("sy", "sy", "PRON", (("Person", "3"),)),
        Word("ik", "ik", "PRON", (("Person", "1"),)),
        Word("do", "do", "PRON", (("Person", "2"),)),
        Word("wy", "wy", "PRON", (("Person", "1"),)),
    ],
    "PROPN": [
        Word(f, f, "PROPN", (("Number", "Sing"),))
        for f in ["Anna", "Jelle", "Douwe", "Sita", "Pier"]
    ],
    "PUNCT": [Word(".", ".", "PUNCT")],
}


@dataclass(frozen=True)
class Template:
    slots: tuple[str, ...]     # UPOS per position; final slot is PUNCT
    heads: tuple[int, ...]     # 1-based, 0 = root
    deprels: tuple[str, ...]


TEMPLATES: list[Template] = [
    Template(("DET", "NOUN", "VERB", "PUNCT"),
             (2, 3, 0, 3), ("det", "nsubj", "root", "punct")),
    Template(("DET", "NOUN", "VERB", "DET", "NOUN", "PUNCT"),
             (2, 3, 0, 5, 3, 3), ("det", "nsubj", "root", "det", "obj", "punct")),
    Template(("PROPN", "VERB", "PUNCT"),
             (2, 0, 2), ("nsubj", "root", "punct")),
    Template(("PROPN", "VERB", "DET", "NOUN", "PUNCT"),
             (2, 0, 4, 2, 2), ("nsubj", "root", "det", "obj", "punct")),
    Template(("DET", "NOUN", "VERB", "ADP", "DET", "NOUN", "PUNCT"),
             (2, 3, 0, 6, 6, 3, 3),
             ("det", "nsubj", "root", "case", "det", "obl", "punct")),
    Template(("PRON", "VERB", "PUNCT"),
             (2, 0, 2), ("nsubj", "root", "punct")),
    Template(("PRON", "VERB", "ADV", "PUNCT"),
             (2, 0, 2, 2), ("nsubj", "root", "advmod", "punct")),
    Template(("ADV", "VERB", "DET", "NOUN", "PUNCT"),
             (2, 0, 4, 2, 2), ("advmod", "root", "det", "nsubj", "punct")),
    Template(("DET", "NOUN", "ADP", "DET", "NOUN", "VERB", "PUNCT"),
             (2, 6, 5, 5, 2, 0, 6),
             ("det", "nsubj", "case", "det", "nmod", "root", "punct")),
    Template(("PROPN", "VERB", "ADP", "PROPN", "PUNCT"),
             (2, 0, 4, 2, 2), ("nsubj", "root", "case", "obl", "punct")),
    Template(("PRON", "VERB", "DET", "NOUN", "ADV", "PUNCT"),
             (2, 0, 4, 2, 2, 2), ("nsubj", "root", "det", "obj", "advmod", "punct")),
    Template(("DET", "NOUN", "VERB", "ADV", "PUNCT"),
             (2, 3, 0, 3, 3), ("det", "nsubj", "root", "advmod", "punct")),
    Template(("PROPN", "VERB", "ADV", "ADP", "DET", "NOUN", "PUNCT"),
             (2, 0, 2, 6, 6, 2, 2),
             ("nsubj", "root", "advmod", "case", "det", "obl", "punct")),
    Template(("DET", "NOUN", "VERB", "PROPN", "PUNCT"),
             (2, 3, 0, 3, 3), ("det", "nsubj", "root", "obj", "punct")),
    Template(("PRON", "VERB", "ADP", "DET", "NOUN", "PUNCT"),
             (2, 0, 5, 5, 2, 2), ("nsubj", "root", "case", "det", "obl", "punct")),
    Template(("ADV", "VERB", "PRON", "DET", "NOUN", "PUNCT"),
             (2, 0, 2, 5, 2, 2), ("advmod", "root", "nsubj", "det", "obj", "punct")),
    Template(("DET", "NOUN", "VERB", "DET", "NOUN", "ADP", "DET", "NOUN", "PUNCT"),
             (2, 3, 0, 5, 3, 8, 8, 5, 3),
             ("det", "nsubj", "root", "det", "obj", "case", "det", "nmod", "punct")),
    Template(("PROPN", "VERB", "DET", "NOUN", "ADP", "DET", "NOUN", "PUNCT"),
             (2, 0, 4, 2, 7, 7, 4, 2),
             ("nsubj", "root", "det", "obj", "case", "det", "nmod", "punct")),
    Template(("PRON", "VERB", "PROPN", "PUNCT"),
             (2, 0, 2, 2), ("nsubj", "root", "obj", "punct")),
    Template(("ADV", "VERB", "PROPN", "PUNCT"),
             (2, 0, 2, 2), ("advmod", "root", "nsubj", "punct")),
]

GENRES = ("news", "fiction", "science")


def make_sentence(rng: random.Random, sent_id: str, genre: str | None = None) -> Sentence:
    template = rng.choice(TEMPLATES)
    tokens: list[Token] = []
    for pos, (slot, head, deprel) in enumerate(
        zip(template.slots, template.heads, template.deprels)
    ):
        word = rng.choice(VOCAB[slot])
        form = word.form
        if pos == 0 and slot != "PROPN":
            form = form[0].upper() + form[1:]
        misc = "_"
        # the final token is sentence punctuation glued to the word before it
        if pos == len(template.slots) - 2:
            misc = "SpaceAfter=No"
        tokens.append(
            Token(
                id=pos + 1,
                form=form,
                lemma=word.lemma,
                upos=word.upos,
                xpos=XPOS_BY_UPOS[word.upos],
                feats=dict(word.feats),
                head=head,
                deprel=deprel,
                misc=misc,
            )
        )
    sent = Sentence(tokens=tokens)
    sent.sent_id = sent_id
    if genre is not None:
        sent.genre = genre
    sent._set_comment("text", sent.text())
    return sent


def make_corpus(n: int, seed: int = 0, genres: tuple[str, ...] | None = None) -> Document:
    rng = random.Random(seed)
    doc = Document()
    for i in range(n):
        genre = genres[i % len(genres)] if genres else None
        doc.sentences.append(make_sentence(rng, f"synth-{i + 1}", genre))
    return doc


def _crossing_corpus(n: int, seed: int) -> Document:
    """make_corpus with every third sentence re-attached as a random tree,
    so that arcs cross and some projectivized trees have several roots
    (which is where the parser's right:root weights come from)."""
    doc = make_corpus(n, seed=seed)
    rng = random.Random(seed)
    for sent in doc.sentences[::3]:
        order = [t.id for t in sent.tokens]
        rng.shuffle(order)
        heads = {order[0]: 0}
        for i, node in enumerate(order[1:], 1):
            heads[node] = rng.choice(order[:i])
        for tok in sent.tokens:
            tok.head = heads[tok.id]
            tok.deprel = "root" if tok.head == 0 else tok.deprel if tok.deprel != "root" else "dep"
    return doc


def long_crossing_corpus(n_tokens: int, seed: int) -> Document:
    """One sentence of n_tokens grammar-corpus tokens, each after the first
    attached to one of the five tokens before it, so that short arcs cross
    all along it. Token 1 is the root."""
    rng = random.Random(seed)
    tokens: list[Token] = []
    while len(tokens) < n_tokens:
        tokens += make_sentence(rng, "").tokens
    del tokens[n_tokens:]
    for i, tok in enumerate(tokens, 1):
        tok.id = i
        tok.head = rng.randint(max(1, i - 5), i - 1) if i > 1 else 0
        tok.deprel = "root" if i == 1 else "dep" if tok.deprel == "root" else tok.deprel
    sent = Sentence(tokens=tokens)
    sent.sent_id = f"long-{seed}"
    return Document([sent])


def corpus_text(doc: Document) -> str:
    return "\n".join(sent.text() for sent in doc.sentences)


def strip_annotations(doc: Document) -> Document:
    """Tokenized-only copy: forms and spacing survive, everything else unset."""
    bare = doc.copy()
    for sent in bare.sentences:
        for tok in sent.tokens:
            tok.lemma = None
            tok.upos = None
            tok.xpos = None
            tok.feats = {}
            tok.head = None
            tok.deprel = None
    return bare


def pivot_lexicon() -> dict[str, str]:
    """Injective word map into a pretend pivot language, both casings."""
    lex: dict[str, str] = {}
    for words in VOCAB.values():
        for word in words:
            for form in (word.form, word.form[0].upper() + word.form[1:]):
                lex[form] = form if form == "." else "nl_" + form.lower()
    return lex


def make_bitext(doc: Document) -> list[tuple[list[str], list[str]]]:
    """Word-for-word parallel corpus: grammar sentence vs pivot rendering."""
    lex = pivot_lexicon()
    return [
        ([t.form for t in sent.tokens], [lex[t.form] for t in sent.tokens])
        for sent in doc.sentences
    ]


# ------------------------------------------------- random valid documents

_FORM_ALPHABET = "abcdefghijklmnopqrstuvwxyzâêûüáé"
_UPOS_CHOICES = sorted(
    ["NOUN", "VERB", "DET", "ADP", "ADV", "PRON", "PROPN", "ADJ", "NUM", "X", "PUNCT"]
)


def _random_form(rng: random.Random) -> str:
    return "".join(rng.choice(_FORM_ALPHABET) for _ in range(rng.randint(1, 9)))


def random_sentence(rng: random.Random, sent_id: str) -> Sentence:
    n = rng.randint(1, 12)
    tokens: list[Token] = []
    for i in range(1, n + 1):
        feats = {}
        for _ in range(rng.randint(0, 2)):
            feats[rng.choice(["Case", "Number", "Tense", "Mood"])] = rng.choice(
                ["A", "B", "Nom", "Sing", "Past"]
            )
        head: int | None = None
        if rng.random() < 0.8:
            head = rng.choice([h for h in range(0, n + 1) if h != i])
        tokens.append(
            Token(
                id=i,
                form=_random_form(rng),
                lemma=_random_form(rng) if rng.random() < 0.7 else None,
                upos=rng.choice(_UPOS_CHOICES) if rng.random() < 0.8 else None,
                xpos=rng.choice(["n", "ww", "vz", None]),
                feats=feats,
                head=head,
                deprel=rng.choice(["dep", "nsubj", "obj"]) if head is not None else None,
                misc="SpaceAfter=No" if rng.random() < 0.2 else "_",
            )
        )
    ranges: list[MultiwordRange] = []
    pos = 1
    while pos < n:
        if rng.random() < 0.15:
            end = min(n, pos + rng.randint(1, 2))
            ranges.append(MultiwordRange(pos, end, _random_form(rng)))
            pos = end + 1
        else:
            pos += 1
    sent = Sentence(tokens=tokens, ranges=ranges)
    sent.sent_id = sent_id
    if rng.random() < 0.3:
        sent.genre = rng.choice(list(GENRES))
    if rng.random() < 0.3:
        sent.comments.append((None, "# source = synthetic"))
    sent._set_comment("text", sent.text())
    return sent


def random_document(rng: random.Random, tag: str) -> Document:
    return Document(
        sentences=[
            random_sentence(rng, f"{tag}-{i + 1}") for i in range(rng.randint(1, 6))
        ]
    )


# ------------------------------------------------------- malformed inputs

_VALID_BLOCK = (
    "# sent_id = ok-1\n"
    "# text = De man sjocht.\n"
    "1\tDe\tde\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\tman\tman\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tsjocht\tsjen\tVERB\t_\t_\t0\troot\t_\tSpaceAfter=No\n"
    "4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_\n"
)


def _block(rows: list[str], comments: list[str] | None = None) -> str:
    lines = list(comments or [])
    lines += rows
    return "\n".join(lines) + "\n"


def _row(tok_id, form="wurd", upos="NOUN", head="0", deprel="root", feats="_"):
    return f"{tok_id}\t{form}\t_\t{upos}\t_\t{feats}\t{head}\t{deprel}\t_\t_"


def malformed_fixtures() -> list[tuple[str, str]]:
    """(name, conllu text) pairs that must each raise a diagnostic."""
    base: list[tuple[str, str]] = [
        ("nine_columns", "1\twurd\t_\tNOUN\t_\t_\t0\troot\t_\n"),
        ("eleven_columns", "1\twurd\t_\tNOUN\t_\t_\t0\troot\t_\t_\textra\n"),
        ("empty_form", _block([_row(1, form="")])),
        ("id_zero", _block([_row(0)])),
        ("id_gap", _block([_row(1, head="0"), _row(3, head="1", deprel="dep")])),
        ("id_duplicate", _block([_row(1, head="0"), _row(1, head="0")])),
        ("id_alpha", _block([_row("x")])),
        ("empty_node_id", _block([_row("1.1")])),
        ("head_self", _block([_row(1, head="1", deprel="dep")])),
        ("head_out_of_range", _block([_row(1, head="9", deprel="dep")])),
        ("head_negative", _block([_row(1, head="-1", deprel="dep")])),
        ("head_alpha", _block([_row(1, head="x", deprel="dep")])),
        ("bad_upos", _block([_row(1, upos="NOUNX")])),
        ("lowercase_upos", _block([_row(1, upos="noun")])),
        ("range_reversed", _block(
            ["3-2\tfoo\t_\t_\t_\t_\t_\t_\t_\t_", _row(1), _row(2, head="1", deprel="dep"),
             _row(3, head="1", deprel="dep")])),
        ("range_out_of_bounds", _block(
            ["1-9\tfoo\t_\t_\t_\t_\t_\t_\t_\t_", _row(1)])),
        ("range_overlap", _block(
            ["1-2\tfoo\t_\t_\t_\t_\t_\t_\t_\t_",
             _row(1), "2-3\tbar\t_\t_\t_\t_\t_\t_\t_\t_",
             _row(2, head="1", deprel="dep"), _row(3, head="1", deprel="dep")])),
        ("range_with_upos", _block(
            ["1-2\tfoo\t_\tNOUN\t_\t_\t_\t_\t_\t_", _row(1),
             _row(2, head="1", deprel="dep")])),
        ("range_with_head", _block(
            ["1-2\tfoo\t_\t_\t_\t_\t1\t_\t_\t_", _row(1),
             _row(2, head="1", deprel="dep")])),
        ("range_alpha_bound", _block(
            ["1-x\tfoo\t_\t_\t_\t_\t_\t_\t_\t_", _row(1)])),
        ("range_equal_bounds", _block(
            ["1-1\tfoo\t_\t_\t_\t_\t_\t_\t_\t_", _row(1)])),
        ("comment_after_tokens", _block([_row(1), "# text = nope"])),
        ("comment_only_block", "# sent_id = lonely\n"),
        ("duplicate_sent_id", _VALID_BLOCK + "\n" + _VALID_BLOCK),
        ("duplicate_text_comment", _block(
            [_row(1)], ["# text = a", "# text = b"])),
        ("duplicate_genre_comment", _block(
            [_row(1)], ["# genre = news", "# genre = fiction"])),
        ("feats_duplicate_key", _block([_row(1, feats="A=1|A=2")])),
        ("feats_missing_value", _block([_row(1, feats="Abbr")])),
        ("feats_empty_key", _block([_row(1, feats="=x")])),
    ]
    fixtures: list[tuple[str, str]] = []
    for name, text in base:
        fixtures.append((name, text))
        # same defect, offset into the file after a valid sentence
        if name != "duplicate_sent_id":
            fixtures.append((name + "_after_valid", _VALID_BLOCK + "\n" + text))
    return fixtures
