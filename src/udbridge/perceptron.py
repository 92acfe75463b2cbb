"""Averaged multiclass perceptron over sparse binary features.

Training packs each feature's live weights into one Python int, with a
64-bit lane per class index: weights w_c are held as sum(w_c << 64 * c).
update() moves a row with one int add of (1 << 64 * truth) -
(1 << 64 * guess). predict() adds up a decision's rows with one C-level
sum() and adds a bias of 2**63 to every lane, so that class c's lane holds
its score plus 2**63. While every score s obeys -2**63 <= s < 2**63, no lane
borrows from or carries into its neighbour, and unpack() reads the lanes
as unsigned 64-bit integers; it is the one reader of lanes, for predict()
and for ParserModel.parse. predict(features, k) keeps the highest-scoring
of the first k classes, the earliest on ties: the tagger passes every
class, and the parser every move or only the arc moves, which sort before
shift. A weight moves by one per update, so a score is at most the number
of updates times the number of features in a decision, far below 2**63
for any training run. The bias has one lane per class, so index()
recomputes it when it adds a class. predict() scores int rows only:
packed rows cannot hold fractions, and the sums are exact, so how sum()
rounds floats (which changed in Python 3.12) does not matter.

The tick counter advances once per training decision (update() call), also
when the guess was correct. averaged() returns, for every feature/class,
the mean of the post-update weight snapshots over all ticks so far. It is
computed in closed form (Daume III 2006): a weight w moved by deltas d_t
at ticks t has, after T ticks, the snapshot sum (T + 1) * w - u with
u = sum of t * d_t. update() keeps u in a dict row per feature, keyed by
class index in the order that the classes were first updated. Those rows
stay dicts of Python ints: u grows with the tick count and passes 2**64 on
long runs, so it would not fit a lane, and the keys give averaged() the
lanes to read (by shift and mask of the biased row) and the order in which
to write them. So the numerator is exact for any run length, and averaged()
divides it by T once, a correctly rounded true division. Each average is
the float that summing every snapshot gives whenever that sum is exact
(below 2**53), and the exact mean rounded once beyond it.

Trained models score through frozen tables: compile_rows() turns a
feature -> {class: weight} table into class-indexed rows once, and refuses
NaN and infinite weights. add_rows() is the float reference on those rows:
it adds each feature's row in feature order from 0.0, as predict_with()
adds a table in dict form. The tagger fills its per-form memo with
add_rows() and adds a decision's other rows in the same order in its own
decoder, so their float sums round alike. The parser scales the rows to
fixed-point ints and packs them into lanes (lane_bias() and pack() below),
and calls add_rows() only for a decision whose lanes are too close to tell
(see depparser.py). predict(), predict_with() and both decoders give ties
to the earliest class.
"""

import sys
from collections.abc import Iterable
from itertools import chain
from math import isfinite, ldexp

from .errors import DataError

# feature -> ((class index, weight), ...)
Rows = dict[str, tuple[tuple[int, float], ...]]

_NUMBERS = {int, float}
_LANE = 64  # bits per class in a packed row
_MASK = (1 << _LANE) - 1
_HALF = 1 << (_LANE - 1)  # the bias of every lane


def lane_bias(n: int) -> int:
    """2**63 in each of n lanes."""
    return _HALF * (((1 << _LANE * n) - 1) // _MASK)


def unpack(total: int, n: int) -> list[int]:
    """The n lanes of a packed sum, as unsigned 64-bit integers."""
    return memoryview(total.to_bytes(n * _LANE // 8, sys.byteorder)).cast("Q").tolist()


def pack(pairs: Iterable[tuple[int, float]], shift: int) -> int:
    """(class index, weight) pairs as one int whose lane i holds the
    weights of class i, each times 2**shift rounded to an integer."""
    return sum(round(ldexp(w, shift)) << _LANE * i for i, w in pairs)


class AveragedPerceptron:
    def __init__(self, classes: list[str]):
        self.classes = list(classes)
        self._index = {cls: i for i, cls in enumerate(self.classes)}
        # feature -> sum(weight << 64 * class index)
        self._live: dict[str, int] = {}
        # feature -> {class index: sum of tick * delta}, with a key for each
        # class that the feature's row has held, in first-update order
        self._sums: dict[str, dict[int, int]] = {}
        self.ticks = 0
        self._bias = lane_bias(len(self.classes))

    def index(self, cls: str) -> int:
        """The index of `cls`; a class not seen before gets the next one."""
        i = self._index.get(cls)
        if i is None:
            i = self._index[cls] = len(self.classes)
            self.classes.append(cls)
            self._bias = lane_bias(len(self.classes))
        return i

    def predict(self, features: list[str], k: int) -> int:
        """The highest-scoring of the first k classes; ties go to the
        earliest."""
        if k == 1:
            return 0
        scores = unpack(sum(filter(None, map(self._live.get, features)), self._bias),
                        len(self.classes))
        del scores[k:]
        return scores.index(max(scores))

    def update(self, truth: int, guess: int, features: list[str]) -> None:
        self.ticks += 1
        if truth == guess:
            return
        tick = self.ticks
        delta = (1 << _LANE * truth) - (1 << _LANE * guess)
        live, sums = self._live, self._sums
        get = sums.get
        for feat in features:
            usum = get(feat)
            if usum is None:
                live[feat] = delta
                sums[feat] = {truth: tick, guess: -tick}
                continue
            live[feat] += delta
            usum[truth] = usum.get(truth, 0) + tick
            usum[guess] = usum.get(guess, 0) - tick

    def averaged(self) -> dict[str, dict[str, float]]:
        """Mean of per-tick post-update weight snapshots (non-destructive),
        keyed by class name."""
        classes = self.classes
        ticks = self.ticks
        after = ticks + 1
        bias, live = self._bias, self._live
        out: dict[str, dict[str, float]] = {}
        for feat, usum in self._sums.items():
            row = live[feat] + bias
            arow = {
                classes[i]: total / ticks
                for i, u in usum.items()
                if (total := after * (((row >> _LANE * i) & _MASK) - _HALF) - u)
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


def add_rows(rows: Rows, features: Iterable[str], n: int) -> list[float]:
    """The scores of n classes: each feature's row added with +=, in
    feature order from 0.0, as predict_with adds them. Not sum(): from
    Python 3.12 it rounds float totals differently."""
    scores = [0.0] * n
    get = rows.get
    for feat in features:
        row = get(feat)
        if row is not None:
            for i, w in row:
                scores[i] += w
    return scores


def compile_rows(weights: dict[str, dict[str, float]], classes: list[str]) -> Rows:
    """Freeze a weight table into rows of (index into `classes`, weight).

    Weights for classes outside `classes` are dropped (no prediction over
    `classes` reads them), as are rows left empty. Rows with the same
    classes and weights share one frozen row. A row that is not a dict, a
    weight that is not a number, and a NaN or infinite weight (or an int
    beyond the float range) raise DataError.
    """
    row_kinds = set(map(type, weights.values()))
    if not row_kinds <= {dict}:
        raise DataError(f"weight rows must be mappings, found {_names(row_kinds - {dict})}")
    weight_kinds = set(map(type, chain.from_iterable(map(dict.values, weights.values()))))
    if not weight_kinds <= _NUMBERS:
        raise DataError(f"weights must be numbers, found {_names(weight_kinds - _NUMBERS)}")
    if not _finite(chain.from_iterable(map(dict.values, weights.values()))):
        feat, w = next((feat, w) for feat, row in weights.items()
                       for w in row.values() if not _finite((w,)))
        raise DataError(f"weight {w!r} of feature {feat!r} is not finite")
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


def _finite(weights: Iterable[float]) -> bool:
    """Whether every weight is finite and within the float range."""
    try:
        return all(map(isfinite, weights))
    except OverflowError:  # an int too large for a float
        return False


def _names(kinds: set[type]) -> str:
    return ", ".join(sorted(kind.__name__ for kind in kinds))
