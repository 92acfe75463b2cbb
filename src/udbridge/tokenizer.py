"""Rule-based tokenizer and sentence splitter.

Whitespace separates chunks; configured punctuation is peeled off chunk
edges; interior punctuation (hyphens, apostrophes) stays inside the token.
A sentence ends after a terminator token (./!/?/ellipsis) that is followed
by whitespace plus an uppercase letter, or by end of input. Listed
abbreviations keep their trailing period and never end a sentence.

Every non-whitespace character of the input lands in exactly one token.
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


def _split_chunk(chunk: str, start: int, cfg: TokenizerConfig) -> list[tuple[str, int, int]]:
    """Split one whitespace-free chunk into (text, begin, end) tokens."""
    out: list[tuple[str, int, int]] = []
    end = start + len(chunk)

    # Peel leading punctuation.
    while len(chunk) > 1 and chunk[0] in cfg.punctuation and chunk[0] != ".":
        out.append((chunk[0], start, start + 1))
        chunk = chunk[1:]
        start += 1

    # Peel trailing punctuation, collected in reverse.
    tail: list[tuple[str, int, int]] = []
    while len(chunk) > 1:
        if chunk in cfg.abbreviations:
            break
        last = chunk[-1]
        if last not in cfg.punctuation:
            break
        if last == ".":
            # Group a trailing period run into one ellipsis-like token.
            run = len(chunk) - len(chunk.rstrip("."))
            if run >= len(chunk):
                break
            tail.append((chunk[-run:], end - run, end))
            chunk = chunk[:-run]
            end -= run
        else:
            tail.append((last, end - 1, end))
            chunk = chunk[:-1]
            end -= 1

    if chunk:
        out.append((chunk, start, end))
    out.extend(reversed(tail))
    return out


def tokenize(text: str, cfg: TokenizerConfig | None = None) -> Document:
    """Tokenize raw text into an unannotated Document.

    Sentences get sequential sent_ids; tokens carry SpaceAfter=No where the
    next token starts immediately.
    """
    if cfg is None:
        cfg = TokenizerConfig()
    doc = Document()
    pieces: list[tuple[str, int, int]] = []

    def close_sentence() -> None:
        if not pieces:
            return
        tokens = []
        for idx, (form, _, end) in enumerate(pieces, start=1):
            nxt = pieces[idx] if idx < len(pieces) else None
            misc = "SpaceAfter=No" if nxt is not None and nxt[1] == end else "_"
            tokens.append(Token(id=idx, form=form, misc=misc))
        sent = Sentence(tokens=tokens)
        sent.fill_header(len(doc.sentences) + 1)
        doc.sentences.append(sent)
        pieces.clear()

    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        chunk = text[i:j]
        parts = _split_chunk(chunk, i, cfg)
        for k, (form, begin, end) in enumerate(parts):
            pieces.append((form, begin, end))
            is_last_in_chunk = k == len(parts) - 1
            if not is_last_in_chunk or not _is_terminator(form, cfg):
                continue
            if form in cfg.abbreviations:
                continue
            # Boundary: terminator then whitespace + uppercase, or end of input.
            nxt = j
            while nxt < n and text[nxt].isspace():
                nxt += 1
            if nxt >= n or (nxt > j and text[nxt].isupper()):
                close_sentence()
        i = j
    close_sentence()
    return doc
