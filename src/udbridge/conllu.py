"""CoNLL-U (UD v2) reading, writing and validation.

Supported surface: ten-column token lines with integer ids, multiword range
lines ("1-2"), comment lines, and the SpaceAfter=No convention in MISC.
Enhanced dependencies and empty nodes ("1.1") are out of scope and rejected
with a parse error.

Reading is lenient about comment spacing but strict about structure: every
malformed input raises ConlluParseError or ValidationError with a line
number, never a bare IndexError/ValueError. The reader fills each
sentence's header (`Sentence.fill_header`); `tokenize` writes its own.
Writing normalizes whitespace, sorts FEATS keys, and still reconstructs the
`text` comment from token forms plus SpaceAfter, so serialize(parse(x)) is
a fixpoint after one pass.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import ConlluParseError, ValidationError
from .util import tsv

UPOS_TAGS = frozenset(
    "ADJ ADP ADV AUX CCONJ DET INTJ NOUN NUM PART PRON PROPN PUNCT SCONJ SYM VERB X".split()
)

_COLUMNS = ("ID", "FORM", "LEMMA", "UPOS", "XPOS", "FEATS", "HEAD", "DEPREL", "DEPS", "MISC")

# Comment keys that are parsed into key/value form; anything else is kept verbatim.
_KNOWN_COMMENT_KEYS = ("sent_id", "text", "genre")


@dataclass(slots=True)
class Token:
    """One syntactic word. Unset annotation fields are None (written as "_")."""

    id: int
    form: str
    lemma: str | None = None
    upos: str | None = None
    xpos: str | None = None
    feats: dict[str, str] = field(default_factory=dict)
    head: int | None = None
    deprel: str | None = None
    deps: str = "_"
    misc: str = "_"

    def feats_string(self) -> str:
        if not self.feats:
            return "_"
        return "|".join([f"{k}={v}" for k, v in sorted(self.feats.items())])

    def space_after(self) -> bool:
        return self.misc == "_" or "SpaceAfter=No" not in self.misc.split("|")

    def columns(self) -> tuple[str, ...]:
        """The ten columns of the token line as written, "_" when unset."""
        return (
            str(self.id),
            self.form,
            self.lemma if self.lemma is not None else "_",
            self.upos if self.upos is not None else "_",
            self.xpos if self.xpos is not None else "_",
            self.feats_string(),
            str(self.head) if self.head is not None else "_",
            self.deprel if self.deprel is not None else "_",
            self.deps,
            self.misc,
        )

    def copy(self) -> "Token":
        return Token(
            id=self.id,
            form=self.form,
            lemma=self.lemma,
            upos=self.upos,
            xpos=self.xpos,
            feats=dict(self.feats),
            head=self.head,
            deprel=self.deprel,
            deps=self.deps,
            misc=self.misc,
        )


@dataclass(slots=True)
class MultiwordRange:
    """Surface token covering the syntactic words start..end inclusive."""

    start: int
    end: int
    surface_form: str
    misc: str = "_"

    space_after = Token.space_after


@dataclass(slots=True)
class Sentence:
    tokens: list[Token]
    ranges: list[MultiwordRange] = field(default_factory=list)
    # (key, value) for sent_id/text/genre; (None, raw_line) for anything else.
    comments: list[tuple[str | None, str]] = field(default_factory=list)

    def _comment_value(self, key: str) -> str | None:
        for k, v in self.comments:
            if k == key:
                return v
        return None

    def _set_comment(self, key: str, value: str) -> None:
        for i, (k, _) in enumerate(self.comments):
            if k == key:
                self.comments[i] = (key, value)
                return
        # sent_id leads; text goes right after sent_id; others append.
        if key == "sent_id":
            self.comments.insert(0, (key, value))
        elif key == "text":
            pos = 1 if self.comments and self.comments[0][0] == "sent_id" else 0
            self.comments.insert(pos, (key, value))
        else:
            self.comments.append((key, value))

    def fill_header(self, position: int) -> None:
        """Default the sent_id to the 1-based `position` in the document and
        rebuild the `text` comment from the forms and SpaceAfter."""
        if self.sent_id is None:
            self.sent_id = str(position)
        self._set_comment("text", self.text())

    @property
    def sent_id(self) -> str | None:
        return self._comment_value("sent_id")

    @sent_id.setter
    def sent_id(self, value: str) -> None:
        self._set_comment("sent_id", value)

    @property
    def genre(self) -> str | None:
        return self._comment_value("genre")

    @genre.setter
    def genre(self, value: str) -> None:
        self._set_comment("genre", value)

    def surface_units(self) -> Iterator[tuple[str, int, bool]]:
        """The surface tokens in order, as (surface form, number of words
        covered, SpaceAfter); a multiword range is one unit."""
        range_at = {r.start: r for r in self.ranges}
        toks = self.tokens
        i = 0
        while i < len(toks):
            rng = range_at.get(toks[i].id)
            if rng is not None:
                covered = rng.end - rng.start + 1
                yield rng.surface_form, covered, rng.space_after()
            else:
                covered = 1
                yield toks[i].form, covered, toks[i].space_after()
            i += covered

    def text(self) -> str:
        """The sentence text, rebuilt from the surface forms and SpaceAfter."""
        parts: list[str] = []
        if self.ranges:
            for form, _, space_after in self.surface_units():
                parts += (form, " " if space_after else "")
        else:
            for tok in self.tokens:
                parts += (tok.form, " " if tok.space_after() else "")
        return "".join(parts[:-1])

    def copy(self) -> "Sentence":
        return Sentence(
            tokens=[t.copy() for t in self.tokens],
            ranges=[
                MultiwordRange(r.start, r.end, r.surface_form, r.misc) for r in self.ranges
            ],
            comments=list(self.comments),
        )


@dataclass
class Document:
    """An ordered list of sentences. metadata is caller-owned bookkeeping
    (source path, corpus label) and does not take part in equality."""

    sentences: list[Sentence] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict, compare=False)

    def tokens(self):
        for sent in self.sentences:
            yield from sent.tokens

    def copy(self) -> "Document":
        return Document(
            sentences=[s.copy() for s in self.sentences], metadata=dict(self.metadata)
        )


def parse_feats(text: str, line_no: int | None = None) -> dict[str, str]:
    """A FEATS column as a dict; the inverse of `Token.feats_string`.
    Raises ConlluParseError or ValidationError on a malformed column."""
    if text == "_":
        return {}
    feats: dict[str, str] = {}
    for item in text.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConlluParseError(f"malformed FEATS item {item!r}", line_no)
        if key in feats:
            raise ValidationError(f"duplicate FEATS key {key!r}", line_no)
        feats[key] = value
    return feats


def fits_column(column: str, value: str) -> bool:
    """Whether `value` in the column named `column` reads back as itself: it is
    non-empty without tab or line break (files are read with universal newlines,
    so "\\r" ends a line), a UD tag in UPOS and well-formed in FEATS. "_" is unset."""
    if not value or "\t" in value or "\n" in value or "\r" in value:
        return False
    if column == "FEATS":
        try:
            parse_feats(value)
        except (ConlluParseError, ValidationError):
            return False
    return column != "UPOS" or value in UPOS_TAGS


def _opt(column: str) -> str | None:
    return None if column == "_" else column


def parse_conllu(text: str) -> Document:
    """Parse CoNLL-U text into a Document.

    Raises ConlluParseError / ValidationError (both carry the offending line
    number) on structural problems: wrong column counts, non-integer ids,
    duplicate or non-consecutive ids, dangling heads, overlapping ranges,
    bad UPOS values, duplicate sent_ids.
    """
    doc = Document()
    block: list[tuple[int, str]] = []
    # a blank line after the last one closes the final block
    for line_no, raw in enumerate([*text.split("\n"), ""], start=1):
        line = raw.rstrip("\r")
        if line.strip():
            block.append((line_no, line))
        elif block:
            doc.sentences.append(_parse_block(block))
            block = []
    _check_document(doc)
    for position, sent in enumerate(doc.sentences, start=1):
        sent.fill_header(position)
    return doc


def _parse_block(block: list[tuple[int, str]]) -> Sentence:
    """One sentence from the (line number, line) pairs of a block of
    non-blank lines; each error names the first bad line in file order."""
    tokens: list[Token] = []
    ranges: list[MultiwordRange] = []
    comments: list[tuple[str | None, str]] = []
    token_lines: list[int] = []
    range_lines: list[int] = []
    for line_no, line in block:
        # a file is read with universal newlines, where "\r" ends a line
        if "\r" in line:
            raise ConlluParseError("carriage return inside the line", line_no)
        if line.startswith("#"):
            if tokens:
                raise ConlluParseError("comment after token lines", line_no)
            key, sep, value = line[1:].partition("=")
            known = sep and key.strip() in _KNOWN_COMMENT_KEYS
            comments.append((key.strip(), value.strip()) if known else (None, line))
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", line_no
            )
        if "" in cols:
            raise ConlluParseError(f"empty {_COLUMNS[cols.index('')]} column", line_no)
        tok_id, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
        if "-" in tok_id:
            lo, _, hi = tok_id.partition("-")
            if not lo.isdigit() or not hi.isdigit():
                raise ConlluParseError(f"malformed range id {tok_id!r}", line_no)
            for name, col in zip(_COLUMNS[2:9], cols[2:9]):
                if col != "_":
                    raise ValidationError(
                        f"range line must leave {name} unset, got {col!r}", line_no
                    )
            ranges.append(MultiwordRange(int(lo), int(hi), form, misc))
            range_lines.append(line_no)
            continue
        if not tok_id.isdigit():
            raise ConlluParseError(f"malformed token id {tok_id!r}", line_no)
        if upos != "_" and not fits_column("UPOS", upos):
            raise ValidationError(f"unknown UPOS tag {upos!r}", line_no)
        if head != "_" and not head.isdigit():
            raise ConlluParseError(f"malformed HEAD {head!r}", line_no)
        tokens.append(
            Token(
                id=int(tok_id),
                form=form,
                lemma=_opt(lemma),
                upos=_opt(upos),
                xpos=_opt(xpos),
                feats=parse_feats(feats, line_no),
                head=None if head == "_" else int(head),
                deprel=_opt(deprel),
                deps=deps,
                misc=misc,
            )
        )
        token_lines.append(line_no)
    first_line = block[0][0]
    if not tokens:
        raise ConlluParseError("comment block without token lines", first_line)
    sent = Sentence(tokens=tokens, ranges=ranges, comments=comments)
    _check_sentence(sent, first_line, token_lines, range_lines)
    return sent


def _check_sentence(
    sent: Sentence,
    line_no: int | None,
    token_lines: list[int] | None = None,
    range_lines: list[int] | None = None,
) -> None:
    n = len(sent.tokens)
    if n == 0:
        raise ValidationError("sentence without tokens", line_no)

    def tline(idx: int) -> int | None:
        return token_lines[idx] if token_lines else line_no

    for pos, tok in enumerate(sent.tokens):
        expect = pos + 1
        if tok.id == expect:
            continue
        if any(t.id == tok.id for t in sent.tokens[:pos]):
            raise ValidationError(f"duplicate token id {tok.id}", tline(pos))
        raise ValidationError(
            f"token ids must be consecutive from 1, got {tok.id} at position {expect}",
            tline(pos),
        )
    for pos, tok in enumerate(sent.tokens):
        if tok.head is None:
            continue
        if tok.head == tok.id:
            raise ValidationError(f"token {tok.id} is its own head", tline(pos))
        if not 0 <= tok.head <= n:
            raise ValidationError(
                f"token {tok.id} has head {tok.head} outside 0..{n}", tline(pos)
            )
    prev_end = 0
    indexed = sorted(enumerate(sent.ranges), key=lambda item: item[1].start)
    for idx, rng in indexed:
        rline = range_lines[idx] if range_lines else line_no
        if rng.start >= rng.end:
            raise ValidationError(
                f"range {rng.start}-{rng.end} must satisfy start < end", rline
            )
        if rng.start < 1 or rng.end > n:
            raise ValidationError(
                f"range {rng.start}-{rng.end} outside token ids 1..{n}", rline
            )
        if rng.start <= prev_end:
            raise ValidationError(
                f"range {rng.start}-{rng.end} overlaps a previous range", rline
            )
        prev_end = rng.end
    for key in _KNOWN_COMMENT_KEYS:
        if sum(1 for k, _ in sent.comments if k == key) > 1:
            raise ValidationError(f"duplicate {key} comment", line_no)


def _check_document(doc: Document) -> None:
    """Each sentence's sent_id, or the 1-based position that `fill_header`
    gives a sentence without one, must be unique."""
    given = [sent.sent_id for sent in doc.sentences]
    seen: dict[str, int] = {}
    for idx, sid in enumerate(given, start=1):
        key = str(idx) if sid is None else sid
        first = seen.setdefault(key, idx)
        if first == idx:
            continue
        if sid is None or given[first - 1] is None:
            bare, other = (idx, first) if sid is None else (first, idx)
            raise ValidationError(
                f"sentence {bare} has no sent_id, and its default {key!r}"
                f" is the sent_id of sentence {other}"
            )
        raise ValidationError(f"sent_id {key!r} used by sentences {first} and {idx}")


def validate_document(doc: Document) -> None:
    """Check structural invariants of an in-memory document."""
    for sent in doc.sentences:
        label = sent.sent_id or "?"
        try:
            _check_sentence(sent, None)
        except ValidationError as err:
            raise ValidationError(f"sentence {label}: {err}") from None
    _check_document(doc)


def serialize_conllu(doc: Document) -> str:
    """Write a document back to CoNLL-U text.

    The `text` comment is recomputed from forms + SpaceAfter, FEATS keys are
    sorted, and a sent_id comment is guaranteed. Refuses invalid documents.
    """
    validate_document(doc)
    blocks: list[str] = []
    for idx, sent in enumerate(doc.sentences, start=1):
        lines: list[str] = []
        # the sentence is not changed: its header is filled on a stand-in
        head = Sentence(sent.tokens, sent.ranges, list(sent.comments))
        head.fill_header(idx)
        for key, value in head.comments:
            lines.append(value if key is None else f"# {key} = {value}")
        range_at = {r.start: r for r in sent.ranges}
        for tok in sent.tokens:
            rng = range_at.get(tok.id)
            if rng is not None:
                lines.append(
                    "\t".join(
                        [
                            f"{rng.start}-{rng.end}",
                            rng.surface_form,
                            "_", "_", "_", "_", "_", "_", "_",
                            rng.misc,
                        ]
                    )
                )
            lines.append("\t".join(tok.columns()))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


TSV_HEADER = (
    "doc_id",
    "sent_id",
    "token_id",
    "form",
    "lemma",
    "upos",
    "xpos",
    "feats",
    "head",
    "deprel",
)


def serialize_tsv(doc: Document) -> str:
    """Flat one-row-per-token spreadsheet export (range lines are not rows);
    the doc_id column holds doc.metadata["doc_id"], or nothing."""
    validate_document(doc)
    doc_id = doc.metadata.get("doc_id", "")
    rows = [TSV_HEADER]
    for sent in doc.sentences:
        sid = sent.sent_id or ""
        rows += [(doc_id, sid, *tok.columns()[:8]) for tok in sent.tokens]
    return tsv(rows)
