"""Averaged multiclass perceptron over sparse binary features.

Training keeps its live weights in rows keyed by class index:
feature -> {class index: weight}. predict() sums a decision's scores into
a flat list and update() moves the rows; the class names come back only
in averaged(), which returns the usual feature -> {class: weight} table.

The tick counter advances once per training decision (update() call), also
when the guess was correct. averaged() returns, for every feature/class,
the mean of the post-update weight snapshots over all ticks so far. It is
computed in closed form (Daume III 2006): a weight w moved by deltas d_t
at ticks t has, after T ticks, the snapshot sum (T + 1) * w - u with
u = sum of t * d_t. update() keeps w and u as Python ints in two parallel
rows per feature, so that numerator is exact for any run length, and
averaged() divides it by T once, a correctly rounded true division. So
each average is the float that summing every snapshot gives whenever that
sum is exact (below 2**53), and the exact mean rounded once beyond it.

Trained models score through frozen tables: compile_rows() turns a
feature -> {class: weight} table into class-indexed rows once. The tagger
and the parser sum those rows in their own decoders, which start from
remembered per-form or per-token scores. predict_with() is the reference
for predict() and both decoders on the dict form: all of them sum each
class's score in feature order and give ties to the earliest class. The
decoders and predict_with() start from 0.0; predict() starts from 0, so it
adds the int rows of training exactly, and float rows (set by hand) with
the same additions as predict_with().
"""

from itertools import chain

from .errors import DataError

# feature -> ((class index, weight), ...)
Rows = dict[str, tuple[tuple[int, float], ...]]

_NUMBERS = {int, float}


class AveragedPerceptron:
    def __init__(self, classes: list[str]):
        self.classes = list(classes)
        self._index = {cls: i for i, cls in enumerate(self.classes)}
        # feature -> {class index: weight}; ints while training
        self.weights: dict[str, dict[int, int | float]] = {}
        # feature -> {class index: sum of tick * delta}, the rows of
        # `weights` with the same keys in the same order
        self._sums: dict[str, dict[int, int]] = {}
        self.ticks = 0

    def index(self, cls: str) -> int:
        """The index of `cls`; a class not seen before gets the next one."""
        i = self._index.get(cls)
        if i is None:
            i = self._index[cls] = len(self.classes)
            self.classes.append(cls)
        return i

    def predict(self, features: list[str], candidates: list[int]) -> int:
        """The highest-scoring of `candidates` (ascending indices); ties go
        to the earliest. Sums like predict_with()."""
        if len(candidates) == 1:
            return candidates[0]
        scores = [0] * len(self.classes)
        get = self.weights.get
        for feat in features:
            row = get(feat)
            if row is not None:
                for i, w in row.items():
                    scores[i] += w
        return max(candidates, key=scores.__getitem__)

    def update(self, truth: int, guess: int, features: list[str]) -> None:
        self.ticks += 1
        if truth == guess:
            return
        tick = self.ticks
        weights, sums = self.weights, self._sums
        get = weights.get
        for feat in features:
            row = get(feat)
            if row is None:
                weights[feat] = {truth: 1, guess: -1}
                sums[feat] = {truth: tick, guess: -tick}
                continue
            usum = sums[feat]
            row[truth] = row.get(truth, 0) + 1
            usum[truth] = usum.get(truth, 0) + tick
            row[guess] = row.get(guess, 0) - 1
            usum[guess] = usum.get(guess, 0) - tick

    def averaged(self) -> dict[str, dict[str, float]]:
        """Mean of per-tick post-update weight snapshots (non-destructive),
        keyed by class name."""
        classes = self.classes
        ticks = self.ticks
        if ticks == 0:
            return {
                f: {classes[i]: w for i, w in row.items()} for f, row in self.weights.items()
            }
        after = ticks + 1
        out: dict[str, dict[str, float]] = {}
        for feat, row in self.weights.items():
            usum = self._sums[feat]
            arow = {
                classes[i]: total / ticks
                for i, w in row.items()
                if (total := after * w - usum[i])
            }
            if arow:
                out[feat] = arow
        return out


def score_with(weights: dict[str, dict[str, float]], features: list[str]) -> dict[str, float]:
    scores: dict[str, float] = {}
    for feat in features:
        row = weights.get(feat)
        if not row:
            continue
        for cls, w in row.items():
            scores[cls] = scores.get(cls, 0.0) + w
    return scores


def predict_with(weights: dict[str, dict[str, float]], features: list[str], classes: list[str]) -> str:
    """Argmax over a weight table in dict form: the first of `classes`
    with the highest score."""
    scores = score_with(weights, features)
    best = classes[0]
    best_score = scores.get(best, 0.0)
    for cls in classes[1:]:
        s = scores.get(cls, 0.0)
        if s > best_score:
            best, best_score = cls, s
    return best


def compile_rows(weights: dict[str, dict[str, float]], classes: list[str]) -> Rows:
    """Freeze a weight table into rows of (index into `classes`, weight).

    Weights for classes outside `classes` are dropped (no prediction over
    `classes` reads them), as are rows left empty. Rows with the same
    classes and weights share one frozen row. A row that is not a dict or
    a weight that is not a number raises DataError.
    """
    row_kinds = set(map(type, weights.values()))
    if not row_kinds <= {dict}:
        raise DataError(f"weight rows must be mappings, found {_names(row_kinds - {dict})}")
    weight_kinds = set(map(type, chain.from_iterable(map(dict.values, weights.values()))))
    if not weight_kinds <= _NUMBERS:
        raise DataError(f"weights must be numbers, found {_names(weight_kinds - _NUMBERS)}")
    index = {cls: i for i, cls in enumerate(classes)}
    position = index.__getitem__
    frozen: dict[tuple, tuple[tuple[int, float], ...]] = {}
    rows: Rows = {}
    for feat, row in weights.items():
        key = (*row, *row.values())  # the classes, then their weights
        pairs = frozen.get(key)
        if pairs is None:
            try:
                pairs = tuple(zip(map(position, row), row.values()))
            except KeyError:
                pairs = tuple((index[cls], w) for cls, w in row.items() if cls in index)
            frozen[key] = pairs
        if pairs:
            rows[feat] = pairs
    return rows


def _names(kinds: set[type]) -> str:
    return ", ".join(sorted(kind.__name__ for kind in kinds))
