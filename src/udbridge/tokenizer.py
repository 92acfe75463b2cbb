"""Rule-based tokenizer and sentence splitter.

Whitespace separates chunks; configured punctuation is peeled off chunk
edges; interior punctuation (hyphens, apostrophes) stays inside the token.
Every token but the last one of its chunk is followed by no space
(SpaceAfter=No). A sentence ends after a chunk whose last token is a
terminator (./!/?/ellipsis) when the next chunk starts with an uppercase
letter, and at the end of the input. Listed abbreviations keep their
trailing period and never end a sentence.

Every non-whitespace character of the input lands in exactly one token.
A chunk with no configured punctuation at either end is one token as it
is. The tokenizer writes each sentence's header itself: the sent_id is
its 1-based position, and the `text` comment is its chunks joined by one
space, which is what `Sentence.text()` rebuilds from the forms and
SpaceAfter (the writer still rebuilds it).
"""

from dataclasses import dataclass, field

from .conllu import Document, Sentence, Token
from .errors import DataError
from .util import read_text

# Split characters: common punctuation, quotes and brackets. Hyphen is
# deliberately absent so hyphenated words stay single tokens.
DEFAULT_PUNCTUATION = set(".,;:!?()[]{}\"'«»„“”‘’…/")

SENTENCE_TERMINATORS = {".", "!", "?"}


@dataclass
class TokenizerConfig:
    """Abbreviation entries must end with "." (they are matched against the
    whole chunk, case-sensitively). Terminator and punctuation sets are
    overridable for unusual scripts."""

    abbreviations: set[str] = field(default_factory=set)
    punctuation: set[str] = field(default_factory=lambda: set(DEFAULT_PUNCTUATION))
    terminators: set[str] = field(default_factory=lambda: set(SENTENCE_TERMINATORS))

    def __post_init__(self):
        for abbr in self.abbreviations:
            if not abbr.endswith("."):
                raise DataError(f"abbreviation {abbr!r} must end with '.'")


def load_abbreviations(path: str) -> set[str]:
    """One abbreviation per line; blank lines and #-comments ignored."""
    entries = (line.strip() for line in read_text(path).split("\n"))
    return {e for e in entries if e and not e.startswith("#")}


def _is_terminator(token: str, cfg: TokenizerConfig) -> bool:
    if token in cfg.terminators or token == "…":
        return True
    # A run of periods ("...", "..") acts like a single terminator.
    return len(token) >= 2 and set(token) == {"."}


def _split_chunk(chunk: str, cfg: TokenizerConfig) -> list[str]:
    """Split one whitespace-free chunk into its token strings."""
    out: list[str] = []

    # Peel leading punctuation.
    while len(chunk) > 1 and chunk[0] in cfg.punctuation and chunk[0] != ".":
        out.append(chunk[0])
        chunk = chunk[1:]

    # Peel trailing punctuation, collected in reverse; a trailing period run
    # stays one ellipsis-like token.
    tail: list[str] = []
    while len(chunk) > 1 and chunk not in cfg.abbreviations:
        last = chunk[-1]
        if last not in cfg.punctuation:
            break
        run = len(chunk) - len(chunk.rstrip(".")) if last == "." else 1
        if run >= len(chunk):
            break
        tail.append(chunk[-run:])
        chunk = chunk[:-run]

    out.append(chunk)
    out.extend(reversed(tail))
    return out


def tokenize(text: str, cfg: TokenizerConfig | None = None) -> Document:
    """Tokenize raw text into an unannotated Document.

    Sentences get sequential sent_ids and their `text`; every token but the
    last one of its whitespace chunk carries SpaceAfter=No.
    """
    if cfg is None:
        cfg = TokenizerConfig()
    punctuation = cfg.punctuation
    doc = Document()
    tokens: list[Token] = []
    words: list[str] = []
    chunks = text.split()
    for chunk, nxt in zip(chunks, [*chunks[1:], ""]):
        words.append(chunk)
        last = chunk
        if chunk[0] in punctuation or chunk[-1] in punctuation:
            *peeled, last = _split_chunk(chunk, cfg)
            for form in peeled:
                tokens.append(Token(len(tokens) + 1, form, misc="SpaceAfter=No"))
        tokens.append(Token(len(tokens) + 1, last))
        if not nxt or (nxt[0].isupper() and _is_terminator(last, cfg)
                       and last not in cfg.abbreviations):
            header = [("sent_id", str(len(doc.sentences) + 1)), ("text", " ".join(words))]
            doc.sentences.append(Sentence(tokens, comments=header))
            tokens = []
            words = []
    return doc
