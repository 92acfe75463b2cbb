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

A TaggerModel compiles its weights into these tables when it is built
and keeps the tables only: its `weights` are rebuilt from the rows,
for PipelineModel.save and for tests, and give the same saved bytes.
It tags only the attributes it has classes for. With dev data,
train_tagger scores each epoch on dev UPOS alone, with a TaggerModel of
the UPOS averages; XPOS and FEATS are averaged only at an epoch that
becomes the best (the earliest wins ties). The TaggerModel it returns
takes the UPOS table of the best epoch's scorer and compiles the XPOS
and FEATS tables once, at the end.

In training, the 11 form features and the tail of each distinct form are
built once and kept in a memo through util.remember, so it grows with the
vocabulary and stays bounded; a token copies them and adds its pw= and
nw= features. The pt= and ppt= features are built once per (prev2, prev)
class index pair that training meets, not for every pair.
"""

import random
from itertools import repeat

from .conllu import Document
from .errors import DataError
from .perceptron import AveragedPerceptron, Rows, add_rows, compile_rows
from .util import remember

ATTRIBUTES = ("upos", "xpos", "feats")

_PAD = "<s>"
_UNSET = "_"

# A token's history-independent features: its form features with pw= and
# nw=, which come before the two previous-label features, and its tail
# (hasdigit, cap), which comes after them.
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


def _neighbours(forms: list[str]) -> tuple[list[str], list[str]]:
    """The pw= and the nw= feature of each token of `forms`."""
    lowered = [w.lower() for w in forms]
    pws = ["pw=" + _PAD] + ["pw=" + lw for lw in lowered[:-1]]
    nws = ["nw=" + lw for lw in lowered[1:]] + ["nw=" + _PAD]
    return pws, nws


def _contexts(forms: list[str], memo: dict[str, Context]) -> list[Context]:
    """Each token's Context. `memo` maps a form to its form features and
    its tail, stored through util.remember; the first list is copied
    before the pw= and nw= features join it."""
    contexts = []
    for w, pw, nw in zip(forms, *_neighbours(forms)):
        entry = memo.get(w)
        if entry is None:
            entry = remember(memo, w, (_form_features(w), _tail(w)))
        contexts.append((entry[0] + [pw, nw], entry[1]))
    return contexts


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


class TaggerModel:
    """The decoding tables of a tagger. It compiles `weights`, feature ->
    class -> weight dicts per attribute, when it is built and keeps only
    the tables; `weights` rebuilds the dicts from them."""

    def __init__(
        self,
        weights: dict[str, dict[str, dict[str, float]]] | None = None,
        classes: dict[str, list[str]] | None = None,
        tables: dict[str, Table] | None = None,
    ):
        weights, tables = weights or {}, tables or {}
        self.classes = classes or {}
        # the decoding table (_table) of each attribute with classes, in
        # ATTRIBUTES order, taken from `tables` or built from `weights`;
        # predict() tags those attributes only
        self._tables = {
            attr: tables.get(attr) or _table(weights.get(attr, {}), self.classes[attr])
            for attr in ATTRIBUTES if self.classes.get(attr)
        }
        # form -> per table, the class scores after its form features, then
        # its tail features; filled by util.remember, never saved.
        self._memo: dict[str, tuple] = {}

    @property
    def weights(self) -> dict[str, dict[str, dict[str, float]]]:
        """Feature -> class -> weight per attribute, rebuilt from the
        tables; {} for an attribute without classes."""
        weights: dict[str, dict[str, dict[str, float]]] = {attr: {} for attr in ATTRIBUTES}
        for attr, (rows, classes, _) in self._tables.items():
            weights[attr] = {feat: {classes[i]: w for i, w in pairs} for feat, pairs in rows.items()}
        return weights

    def predict_attribute(self, forms: list[str], attribute: str) -> list[str]:
        return self.predict(forms)[attribute]

    def predict(self, forms: list[str]) -> dict[str, list[str]]:
        """Greedy left-to-right tags of `forms` per attribute that the
        model has classes for."""
        tables, memo = self._tables, self._memo
        entries = []
        for w in forms:
            entry = memo.get(w)
            if entry is None:
                feats = _form_features(w)
                entry = remember(memo, w, tuple(
                    tuple(add_rows(rows, feats, len(classes)))
                    for rows, classes, _ in tables.values()
                ) + (tuple(_tail(w)),))
            entries.append(entry)
        pws, nws = _neighbours(forms)
        empty = repeat(())
        out = {}
        for k, (attr, (rows, classes, history)) in enumerate(tables.items()):
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
            out[attr] = [classes[i] for i in tags]
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
    document is given, the averaged weights of the epoch with the best dev
    UPOS accuracy are returned (earliest epoch wins ties); otherwise the
    final epoch's. Dev is tagged by a TaggerModel of the UPOS averages
    alone; XPOS and FEATS are averaged only at an epoch that becomes the
    best. The returned TaggerModel takes that epoch's UPOS table from its
    scorer and compiles the other two once, at the end.
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
    # attribute -> gold label indices per sentence
    gold = {
        attr: [[models[attr].index(lab) for lab in labels[attr]] for _, labels in data]
        for attr in ATTRIBUTES
    }
    # form -> its form features and its tail (see _contexts)
    form_memo: dict[str, Context] = {}
    # per attribute, (prev2, prev) class index, the pad at the class count
    # -> the pt= and ppt= features; only the pairs met are built
    histories: dict[str, dict[tuple[int, int], list[str]]] = {attr: {} for attr in ATTRIBUTES}
    rng = random.Random(seed)
    order = list(range(len(data)))

    best_acc = -1.0
    # the dev-best epoch's UPOS table, which its scorer built, and its
    # XPOS and FEATS averages
    best = None
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            contexts = _contexts(data[idx][0], form_memo)
            for attr in ATTRIBUTES:
                model, history = models[attr], histories[attr]
                names = classes[attr] + [_PAD]
                n = prev = prev2 = len(classes[attr])  # the class count, the pad's index
                for (head, tail), truth in zip(contexts, gold[attr][idx]):
                    pair = history.get((prev2, prev))
                    if pair is None:
                        pair = history[prev2, prev] = [
                            "pt=" + names[prev], "ppt=" + names[prev2] + "+" + names[prev]
                        ]
                    feats = head + pair + tail
                    guess = model.predict(feats, n)
                    model.update(truth, guess, feats)
                    prev2, prev = prev, guess
        if dev_data is not None:
            upos = models["upos"].averaged()
            scorer = TaggerModel({"upos": upos}, {"upos": classes["upos"]})
            correct = total = 0
            for forms, labels in dev_data:
                for got, want in zip(scorer.predict(forms)["upos"], labels["upos"]):
                    correct += got == want
                    total += 1
            acc = correct / total
            if acc > best_acc:
                best_acc = acc
                best = scorer._tables, {"xpos": models["xpos"].averaged(),
                                        "feats": models["feats"].averaged()}
    if best is None:
        return TaggerModel({attr: models[attr].averaged() for attr in ATTRIBUTES}, classes)
    tables, weights = best
    return TaggerModel(weights, classes, tables)
