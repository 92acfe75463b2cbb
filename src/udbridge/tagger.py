"""Greedy left-to-right averaged-perceptron tagger.

Three independent classifiers share one feature template: UPOS, XPOS, and
the FEATS bundle (the canonical sorted "k=v|k=v" string as an atomic
label). Features per token: the word form, its lowercase, prefixes and
suffixes of 1..4 characters, the neighbouring word forms, the previous two
predicted labels, and digit/capitalization flags.
"""

import random
from dataclasses import dataclass, field

from .conllu import Document
from .errors import DataError
from .perceptron import AveragedPerceptron, Rows, best_index, compile_rows

ATTRIBUTES = ("upos", "xpos", "feats")

_PAD = "<s>"
_UNSET = "_"

# A token's history-independent features: those token_features() lists
# before the two previous-label features, and those it lists after them.
Context = tuple[list[str], list[str]]


def _context_features(forms: list[str], i: int) -> Context:
    w = forms[i]
    lw = w.lower()
    head = ["bias", "w=" + w, "lw=" + lw]
    for k in (1, 2, 3, 4):
        head.append(f"pre{k}={lw[:k]}")
        head.append(f"suf{k}={lw[-k:]}")
    head.append("pw=" + (forms[i - 1].lower() if i > 0 else _PAD))
    head.append("nw=" + (forms[i + 1].lower() if i + 1 < len(forms) else _PAD))
    tail = []
    if any(ch.isdigit() for ch in w):
        tail.append("hasdigit")
    if w[:1].isupper():
        tail.append("cap")
    return head, tail


def _contexts(forms: list[str]) -> list[Context]:
    return [_context_features(forms, i) for i in range(len(forms))]


def _with_history(context: Context, prev: str, prev2: str) -> list[str]:
    head, tail = context
    return head + ["pt=" + prev, "ppt=" + prev2 + "+" + prev] + tail


def token_features(forms: list[str], i: int, prev: str, prev2: str) -> list[str]:
    return _with_history(_context_features(forms, i), prev, prev2)


def _greedy(contexts: list[Context], rows: Rows, classes: list[str]) -> list[str]:
    n_classes = len(classes)
    prev, prev2 = _PAD, _PAD
    out = []
    for context in contexts:
        guess = classes[best_index(rows, _with_history(context, prev, prev2), n_classes)]
        out.append(guess)
        prev2, prev = prev, guess
    return out


@dataclass
class TaggerModel:
    weights: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        # attribute -> its weights frozen over its classes; never saved
        self._rows = {
            attr: compile_rows(self.weights.get(attr, {}), classes)
            for attr, classes in self.classes.items()
        }

    def predict_attribute(self, forms: list[str], attribute: str) -> list[str]:
        return _greedy(_contexts(forms), self._rows[attribute], self.classes[attribute])

    def predict(self, forms: list[str]) -> dict[str, list[str]]:
        contexts = _contexts(forms)
        return {
            attr: _greedy(contexts, self._rows[attr], self.classes[attr])
            for attr in ATTRIBUTES
        }


def _gold_labels(doc: Document) -> list[tuple[list[str], dict[str, list[str]]]]:
    data = []
    for sent in doc.sentences:
        forms = [t.form for t in sent.tokens]
        labels: dict[str, list[str]] = {"upos": [], "xpos": [], "feats": []}
        for tok in sent.tokens:
            if tok.upos is None:
                raise DataError(
                    f"sentence {sent.sent_id}: token {tok.id} ({tok.form!r}) has no gold upos"
                )
            labels["upos"].append(tok.upos)
            labels["xpos"].append(tok.xpos if tok.xpos is not None else _UNSET)
            labels["feats"].append(tok.feats_string())
        data.append((forms, labels))
    return data


def train_tagger(
    train: Document,
    dev: Document | None = None,
    epochs: int = 5,
    seed: int = 13,
) -> TaggerModel:
    """Train the three attribute classifiers.

    Sentence order is reshuffled every epoch from `seed`. When a dev
    document is given, the averaged snapshot of the epoch with the best dev
    UPOS accuracy is returned (earliest epoch wins ties); otherwise the
    final epoch's snapshot.
    """
    if epochs < 1:
        raise DataError("epochs must be >= 1")
    data = _gold_labels(train)
    if not data:
        raise DataError("empty training document")
    dev_data = _gold_labels(dev) if dev is not None and dev.sentences else None

    classes = {
        attr: sorted({lab for _, labels in data for lab in labels[attr]})
        for attr in ATTRIBUTES
    }
    models = {attr: AveragedPerceptron(classes[attr]) for attr in ATTRIBUTES}
    every = {attr: list(range(len(classes[attr]))) for attr in ATTRIBUTES}
    # attribute -> gold label indices per sentence
    gold = {
        attr: [[models[attr].index(lab) for lab in labels[attr]] for _, labels in data]
        for attr in ATTRIBUTES
    }
    rng = random.Random(seed)
    order = list(range(len(data)))

    best_acc = -1.0
    best_weights: dict | None = None
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            contexts = _contexts(data[idx][0])
            for attr in ATTRIBUTES:
                model = models[attr]
                names, candidates = classes[attr], every[attr]
                prev, prev2 = _PAD, _PAD
                for context, truth in zip(contexts, gold[attr][idx]):
                    feats = _with_history(context, prev, prev2)
                    guess = model.predict(feats, candidates)
                    model.update(truth, guess, feats)
                    prev2, prev = prev, names[guess]
        if dev_data is not None:
            snapshot = compile_rows(models["upos"].averaged(), classes["upos"])
            correct = total = 0
            for forms, labels in dev_data:
                got_tags = _greedy(_contexts(forms), snapshot, classes["upos"])
                for got, want in zip(got_tags, labels["upos"]):
                    correct += got == want
                    total += 1
            acc = correct / total
            if acc > best_acc:
                best_acc = acc
                best_weights = {attr: models[attr].averaged() for attr in ATTRIBUTES}
    if best_weights is None:
        best_weights = {attr: models[attr].averaged() for attr in ATTRIBUTES}
    return TaggerModel(weights=best_weights, classes=classes)
