"""Suffix-rule lemmatizer.

Each (form, lemma) pair is compressed into an EditScript: optionally adjust
casing, strip N characters from the end, append a suffix. Scripts are
indexed under the form's final 1..4 characters plus the UPOS tag. At
prediction time the longest matching suffix key wins; within a key,
higher training frequency wins, then lexicographic script order. Unseen
(suffix, upos) combinations fall back to the identity lemma.

LemmaRules remembers the lemma of every (form, upos) it predicts, as the
tagger remembers forms, through util.remember, and add() empties that
memo, since a new script can outrank an old one under any of the suffixes
it is counted for.
"""

from dataclasses import dataclass, field

from .conllu import Document
from .errors import DataError
from .util import remember

CASING_OPS = ("keep", "lower_first", "lower_all")
MAX_SUFFIX = 4


@dataclass(frozen=True, order=True)
class EditScript:
    strip_suffix_len: int
    append_suffix: str
    casing_op: str = "keep"

    def apply(self, form: str) -> str | None:
        """None when the script does not fit the form or would empty it."""
        base = _recase(form, self.casing_op)
        if self.strip_suffix_len > len(base):
            return None
        stem = base[: len(base) - self.strip_suffix_len] if self.strip_suffix_len else base
        return stem + self.append_suffix or None


def _recase(form: str, casing_op: str) -> str:
    """`form` under one of CASING_OPS."""
    if casing_op == "lower_first":
        return form[:1].lower() + form[1:]
    if casing_op == "lower_all":
        return form.lower()
    return form


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def derive_script(form: str, lemma: str) -> EditScript:
    """Smallest script (fewest stripped, then shortest appended, then the
    mildest casing op) that maps form to lemma. Always succeeds."""
    best: tuple[tuple[int, int, int], EditScript] | None = None
    for rank, op in enumerate(CASING_OPS):
        base = _recase(form, op)
        k = _common_prefix_len(base, lemma)
        script = EditScript(len(base) - k, lemma[k:], op)
        key = (script.strip_suffix_len, len(script.append_suffix), rank)
        if best is None or key < best[0]:
            best = (key, script)
    return best[1]


@dataclass
class LemmaRules:
    """The scripts seen per (suffix, upos). `rules` is filled by add(), or
    in full before the first predict(): predict() ranks the buckets of a
    (form, upos) it has not met and keeps the lemma it gives until the next
    add()."""

    # (suffix, upos) -> {script: frequency}
    rules: dict[tuple[str, str], dict[EditScript, int]] = field(default_factory=dict)
    # (form, upos) -> its lemma; filled by util.remember, cleared by add(),
    # never saved.
    _lemmas: dict[tuple[str, str], str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add(self, form: str, upos: str, lemma: str, count: int = 1) -> None:
        """Count the script of (form, lemma) `count` more times under each
        of the form's suffix keys."""
        script = derive_script(form, lemma)
        for length in range(1, min(MAX_SUFFIX, len(form)) + 1):
            key = (form[-length:], upos)
            bucket = self.rules.setdefault(key, {})
            bucket[script] = bucket.get(script, 0) + count
        self._lemmas.clear()

    def predict(self, form: str, upos: str | None) -> str:
        if upos is None:
            return form
        key = (form, upos)
        lemma = self._lemmas.get(key)
        if lemma is None:
            lemma = remember(self._lemmas, key, self._lemma(form, upos))
        return lemma

    def _lemma(self, form: str, upos: str) -> str:
        for length in range(min(MAX_SUFFIX, len(form)), 0, -1):
            bucket = self.rules.get((form[-length:], upos), {})
            for _freq, script in sorted((-freq, script) for script, freq in bucket.items()):
                result = script.apply(form)
                if result is not None:
                    return result
        return form


def train_lemmatizer(train: Document) -> LemmaRules:
    """The rules of every gold (form, UPOS, lemma) in `train`. Each
    distinct triple is added once with its frequency, in order of first
    occurrence, which gives the rules that adding every token would."""
    counts: dict[tuple[str, str, str], int] = {}
    for sent in train.sentences:
        for tok in sent.tokens:
            if tok.lemma is None:
                raise DataError(
                    f"sentence {sent.sent_id}: token {tok.id} ({tok.form!r}) has no gold lemma"
                )
            if tok.upos is None:
                raise DataError(
                    f"sentence {sent.sent_id}: token {tok.id} ({tok.form!r}) has no gold upos"
                )
            triple = (tok.form, tok.upos, tok.lemma)
            counts[triple] = counts.get(triple, 0) + 1
    rules = LemmaRules()
    for (form, upos, lemma), count in counts.items():
        rules.add(form, upos, lemma, count)
    return rules
