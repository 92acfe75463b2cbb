"""Greedy left-to-right averaged-perceptron tagger.

Three independent classifiers share one feature template: UPOS, XPOS, and
the FEATS bundle (the canonical sorted "k=v|k=v" string as an atomic
label). Features per token: the word form, its lowercase, prefixes and
suffixes of 1..4 characters, the neighbouring word forms, the previous two
predicted labels, and digit/capitalization flags.

The first 11 features of a token (bias, w=, lw=, pre1..4 and suf1..4)
depend on its form alone, and scores are summed in feature order. So a
TaggerModel remembers, per form, each class's score after those 11
features (perceptron.add_rows, the float reference), and a decision only
adds the rest to a copy. The sums are the same float additions in the
same order as add_rows over every feature, so the tags are the same.
Those 11 features must stay first, or the memo gives different tags. A
TaggerModel fills its memo as forms come, with every form, known to the
model or not: in cross-lingual use most forms are unseen, and they recur.
It stores through util.remember, which bounds it.

The two previous-label features (pt= and ppt=) depend on the model and on
the two classes just chosen. So each attribute also has a history table,
built once per model: per (prev2, prev) class index, with the pad at
index n, the pt= pairs and then the ppt= pairs. A decision adds that entry
where it added the two rows, and the decoder carries class indices,
naming them once per sentence.

With dev data, train_tagger scores a TaggerModel of each epoch's averages
on dev UPOS and returns the best one as it is, as train_parser does.
"""

import random
from dataclasses import dataclass, field
from itertools import repeat

from .conllu import Document
from .errors import DataError
from .perceptron import AveragedPerceptron, Rows, add_rows, compile_rows
from .util import remember

ATTRIBUTES = ("upos", "xpos", "feats")

_PAD = "<s>"
_UNSET = "_"

# A token's history-independent features: those token_features() lists
# before the two previous-label features, and those it lists after them.
Context = tuple[list[str], list[str]]


def _form_features(w: str) -> list[str]:
    lw = w.lower()
    feats = ["bias", "w=" + w, "lw=" + lw]
    for k in (1, 2, 3, 4):
        feats.append(f"pre{k}={lw[:k]}")
        feats.append(f"suf{k}={lw[-k:]}")
    return feats


def _tail(w: str) -> list[str]:
    tail = []
    if any(map(str.isdigit, w)):
        tail.append("hasdigit")
    if w[:1].isupper():
        tail.append("cap")
    return tail


def _context_features(forms: list[str], i: int) -> Context:
    head = _form_features(forms[i])
    head.append("pw=" + (forms[i - 1].lower() if i > 0 else _PAD))
    head.append("nw=" + (forms[i + 1].lower() if i + 1 < len(forms) else _PAD))
    return head, _tail(forms[i])


def _with_history(context: Context, prev: str, prev2: str) -> list[str]:
    head, tail = context
    return head + ["pt=" + prev, "ppt=" + prev2 + "+" + prev] + tail


def token_features(forms: list[str], i: int, prev: str, prev2: str) -> list[str]:
    return _with_history(_context_features(forms, i), prev, prev2)


# per (prev2, prev) class index, the pt= and ppt= pairs of that history
History = list[list[tuple[tuple[int, float], ...]]]
# (frozen weights, class names, history table) of one attribute
Table = tuple[Rows, list[str], History]


def _table(weights: dict[str, dict[str, float]], classes: list[str]) -> Table:
    """The decoding table of one attribute's weights. Its history entries
    are built from class names, the pad _PAD at index len(classes), so a
    class spelled _PAD reads the same rows as the pad."""
    rows = compile_rows(weights, classes)
    names = classes + [_PAD]
    history = [
        [rows.get("pt=" + prev, ()) + rows.get("ppt=" + prev2 + "+" + prev, ()) for prev in names]
        for prev2 in names
    ]
    return rows, classes, history


@dataclass
class TaggerModel:
    weights: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        # each attribute's decoding table (_table), in ATTRIBUTES order
        self._tables = [
            _table(self.weights.get(attr, {}), self.classes.get(attr, []))
            for attr in ATTRIBUTES
        ]
        # form -> per table, the class scores after its form features, then
        # its tail features; filled by util.remember, never saved.
        self._memo: dict[str, tuple] = {}

    def predict_attribute(self, forms: list[str], attribute: str) -> list[str]:
        return self.predict(forms)[attribute]

    def predict(self, forms: list[str]) -> dict[str, list[str]]:
        """Greedy left-to-right tags of `forms` per attribute."""
        tables, memo = self._tables, self._memo
        entries = []
        for w in forms:
            entry = memo.get(w)
            if entry is None:
                feats = _form_features(w)
                entry = remember(memo, w, tuple(
                    tuple(add_rows(rows, feats, len(classes)))
                    for rows, classes, _ in tables
                ) + (tuple(_tail(w)),))
            entries.append(entry)
        lowered = [w.lower() for w in forms]
        pws = ["pw=" + _PAD] + ["pw=" + lw for lw in lowered[:-1]]
        nws = ["nw=" + lw for lw in lowered[1:]] + ["nw=" + _PAD]
        empty = repeat(())
        out = {}
        for k, (rows, classes, history) in enumerate(tables):
            get = rows.get
            prev = prev2 = len(classes)  # the pad
            tags = []
            for entry, pw, nw in zip(entries, map(get, pws, empty), map(get, nws, empty)):
                # the loop of perceptron.add_rows, inlined: this is the hot path
                scores = list(entry[k])
                for pairs in (pw, nw, history[prev2][prev]):
                    for i, w in pairs:
                        scores[i] += w
                for feat in entry[-1]:
                    row = get(feat)
                    if row is not None:
                        for i, w in row:
                            scores[i] += w
                prev2, prev = prev, scores.index(max(scores))
                tags.append(prev)
            out[ATTRIBUTES[k]] = [classes[i] for i in tags]
        return out


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
    if dev_data is not None and not any(forms for forms, _ in dev_data):
        raise DataError("dev document has no tokens")

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
    best = None
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            forms = data[idx][0]
            contexts = [_context_features(forms, i) for i in range(len(forms))]
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
            snapshot = TaggerModel({attr: models[attr].averaged() for attr in ATTRIBUTES}, classes)
            correct = total = 0
            for forms, labels in dev_data:
                for got, want in zip(snapshot.predict(forms)["upos"], labels["upos"]):
                    correct += got == want
                    total += 1
            acc = correct / total
            if acc > best_acc:
                best_acc = acc
                best = snapshot
    if best is None:
        best = TaggerModel({attr: models[attr].averaged() for attr in ATTRIBUTES}, classes)
    return best
