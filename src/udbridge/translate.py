"""Word-for-word pivot translation with pluggable backends.

A TranslatorClient turns words of the low-resource language into words of
the related pivot language, one word at a time, so sentence length is
always preserved. Backends: a remote HTTP service, a static lexicon, or
identity (for tests and for graceful degradation). Some remote engines only
translate faithfully when the word is sent inside quotes, so the client can
wrap requests in single or double quotes and strips them from responses.

A backend answers None for a word it cannot translate, and only backend
errors are retried. Nothing raises: a miss, a blank answer or an error past
the retries makes the word fall back to itself, and the fallback is counted.
Successful translations go through a persistent TSV cache keyed
case-sensitively by the source word. A client also remembers, for its own
lifetime, the words its backend answered with no translation, and does not
ask for them again; the cache file never holds them, and a word whose
attempts all failed is asked for again next time. Once DEAD_AFTER words in
a row have used up all their attempts on errors, the client takes its
backend for dead and stops calling it: every later word not in the cache
falls back at once.
"""

import json
import os
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from enum import Enum

from .errors import DataError
from .util import read_text, tsv, write_atomically


# Words in a row whose attempts all failed before a client stops calling
# its backend. A translation or a miss resets the count.
DEAD_AFTER = 3


class Quoting(Enum):
    NONE = "none"
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def char(self) -> str:
        return {"none": "", "single": "'", "double": '"'}[self.value]


class LexiconCache:
    """Word -> translation cache with hit/miss counters.

    Persistence is a two-column TSV (source<TAB>target). Reads are lock-free
    on the underlying dict; writes are serialized.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        # a cache file that does not exist yet starts empty
        exists = path is not None and os.path.exists(path)
        self._data: dict[str, str] = load_lexicon(path) if exists else {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, word: str) -> str | None:
        value = self._data.get(word)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, word: str, translation: str) -> None:
        with self._lock:
            self._data[word] = translation

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if path is None:
            raise DataError("cache has no file path")
        with self._lock:
            rows = sorted(self._data.items())
        write_atomically(path, tsv(rows))

    def __len__(self) -> int:
        return len(self._data)


def load_lexicon(path: str) -> dict[str, str]:
    """Read a source<TAB>target TSV into a plain dict."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"lexicon line {line_no}: expected source<TAB>target")
        src, _, tgt = line.partition("\t")
        out[src] = tgt
    return out


@dataclass
class PivotSentence:
    """Length-preserving word-for-word translation of one sentence."""

    source_tokens: list[str]
    pivot_tokens: list[str]
    fallbacks: list[bool] | None = None  # True where the word fell back to itself

    def __post_init__(self):
        if len(self.source_tokens) != len(self.pivot_tokens):
            raise DataError(
                f"pivot sentence length mismatch: {len(self.source_tokens)} source"
                f" vs {len(self.pivot_tokens)} pivot tokens"
            )
        if self.fallbacks is not None and len(self.fallbacks) != len(self.source_tokens):
            raise DataError("fallback flags must align with the tokens")


class Backend:
    def translate(self, word: str) -> str | None:
        """The translation of `word`, or None when there is none. Raise
        only when the backend itself fails; the client retries that."""
        raise NotImplementedError


class IdentityBackend(Backend):
    def translate(self, word: str) -> str:
        return word


class StaticLexiconBackend(Backend):
    """Dictionary lookup; a missing word has no translation."""

    def __init__(self, lexicon: dict[str, str]):
        self.lexicon = dict(lexicon)

    def translate(self, word: str) -> str | None:
        return self.lexicon.get(word)


class RemoteServiceBackend(Backend):
    """POSTs {"text": ..., "direction": ...} and reads {"translation": ...}."""

    def __init__(self, endpoint: str, direction: str = "src-pivot", timeout: float = 10.0):
        self.endpoint = endpoint
        self.direction = direction
        self.timeout = timeout

    def translate(self, word: str) -> str | None:
        payload = json.dumps({"text": word, "direction": self.direction}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            with err:  # a non-2xx reply: the error holds the open response
                raise
        translation = body["translation"]
        if translation is None:
            return None
        translation = str(translation)
        translation.encode("utf-8")  # a lone surrogate raises: a failed attempt
        return translation


class TranslatorClient:
    def __init__(
        self,
        backend: Backend,
        quoting: Quoting = Quoting.NONE,
        cache: LexiconCache | None = None,
        max_retries: int = 2,
    ):
        if max_retries < 0:
            raise DataError(f"max_retries must be >= 0, got {max_retries}")
        self.backend = backend
        self.quoting = quoting
        self.cache = cache
        self.max_retries = max_retries
        self.fallback_count = 0
        self.remote_calls = 0
        self._untranslatable: set[str] = set()
        self._failed_in_a_row = 0

    def _strip_quotes(self, text: str) -> str:
        q = self.quoting.char
        if not q:
            return text
        while text.startswith(q) and len(text) > 1:
            text = text[1:]
        while text.endswith(q) and len(text) > 1:
            text = text[:-1]
        return text

    def translate_word(self, word: str) -> str:
        """Translate one word. Never raises on backend trouble: a miss, a
        blank answer, max_retries+1 failed attempts or a dead backend
        return the word unchanged and count a fallback. Multi-word answers
        collapse to their first item."""
        if word == "" or any(ch.isspace() for ch in word):
            raise DataError(f"translate_word needs a single non-empty word, got {word!r}")
        if self.cache is not None:
            cached = self.cache.lookup(word)
            if cached is not None:
                return cached
        if word not in self._untranslatable and self._failed_in_a_row < DEAD_AFTER:
            request = self.quoting.char + word + self.quoting.char
            for _ in range(self.max_retries + 1):
                self.remote_calls += 1
                try:
                    answer = self.backend.translate(request)
                except Exception:  # noqa: BLE001 - degrade, never crash
                    continue
                self._failed_in_a_row = 0
                words = [] if answer is None else self._strip_quotes(answer.strip()).split()
                if words:
                    if self.cache is not None:
                        self.cache.store(word, words[0])
                    return words[0]
                self._untranslatable.add(word)
                break
            else:
                self._failed_in_a_row += 1
        self.fallback_count += 1
        return word

    def translate_sentence(self, tokens: list[str]) -> PivotSentence:
        pivots = []
        fallbacks = []
        for tok in tokens:
            before = self.fallback_count
            pivots.append(self.translate_word(tok))
            fallbacks.append(self.fallback_count > before)
        return PivotSentence(
            source_tokens=list(tokens), pivot_tokens=pivots, fallbacks=fallbacks
        )
