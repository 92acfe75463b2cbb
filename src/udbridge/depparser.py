"""Arc-standard transition-based dependency parser (greedy, averaged
perceptron).

The stack starts with the virtual root node 0; arcs to node 0 are only
allowed once the buffer is empty and exactly two elements remain, which
makes every parse a single-rooted acyclic tree by construction. The final
root attachment always uses the root label and skips scoring entirely, so
a one-token sentence parses without consulting weights.

Training follows the static oracle on a projectivized copy of the gold
trees; evaluation and reporting always use the original trees. An arc
offends when a node strictly inside its span has its head outside the
span. projectivize lifts offending arcs to the grandparent one at a time
(Nivre and Nilsson 2005), the shortest span first, ties to the smaller
dependent. A lift changes one head, so afterwards it checks again only the
lifted arc and the arcs whose span strictly holds the lifted dependent and
whose range check the move flips: those whose span holds exactly one of
its old and its new head.

The reference decoder picks the first of the highest-scoring open moves,
where a move's score is the float sum of the rows of the decision's
_node_feats features, added in feature order from 0.0: perceptron.add_rows,
the float reference. ParserModel.parse picks the same moves from integers:

- Lanes. Each move (class) has a 64-bit lane in one packed int, as in
  perceptron.py. A packed row holds round(w * 2**K) in the lane of each of
  its weights w, and every lane starts from a bias of 2**63, so a
  decision's score is one sum of ints that C adds, exactly and in any
  order. parse reads the lanes through perceptron.unpack, as unsigned
  64-bit integers.
- Scale. M is the largest |weight| of the model, and a decision has at
  most F = 23 features. K is chosen from math.frexp(M) so that
  F * (M * 2**K + 1) < 2**62; so no lane over- or underflows its 64 bits.
- Margin. Let R_c be move c's reference float sum. Rounding the weights
  puts A_c, its lane less the bias, within F / 2 of 2**K times the exact
  sum, and R_c is within gamma * F * M of the exact sum (the standard
  bound for a recursive float sum of F terms, with gamma = (F - 1) * u /
  (1 - (F - 1) * u) and u = 2**-53). So |A_c - 2**K * R_c| <= E =
  ceil(F + 2**K * gamma * F * M). If the best open lane beats every other
  open lane by more than 2 * E, its move is the reference's unique argmax.
- Fallback. Otherwise (ties, near-ties, and every decision of a model
  whose float sums could overflow) parse scores the moves with add_rows
  and takes the first highest score: the reference by definition. Trained
  models seldom need it.

parse remembers, through util.remember, the packed rows each (form, tag)
token adds in the s0, s1, s2, b0 and b1 slots, those of each (s0, s1, b0)
tag triple and of each s0s1w feature with a row, and keeps the arc-label
and distance rows in small tables. A token whose form has no form row
stores its tag's entry itself, so an unseen form costs one dict slot.

A ParserModel checks its moves (check_moves) when it is built and decodes
each once into (kind, label); parse runs arc-standard on plain lists and
dicts, picking moves by class index.
train_parser steps the same plain values (the stack, the next buffer node
and the leftmost / rightmost child labels) along the static oracle, and
builds each decision's features with _node_feats.
"""

import math
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

from .conllu import Document, Sentence, validate_document
from .errors import DataError
from .perceptron import AveragedPerceptron, add_rows, compile_rows, lane_bias, pack, unpack
from .util import remember

SHIFT = "shift"
_NONE = "<none>"
_ROOT = "<root>"
# an arc label: non-empty, no whitespace, and not "_", which CoNLL-U reads
# as an unset DEPREL
_LABEL = re.compile(r"(?!_\Z)\S+")


def head_cycles(heads: list[int]) -> Iterator[list[int]]:
    """Yield each head cycle of the 1-based `heads` (heads[0] ignored, 0 the
    root) in linear time, listed from the node where a walk entered it. The
    walks start from nodes 1..n in turn, and each stops at the root or at a
    node that an earlier walk met."""
    walk = [0] * len(heads)  # per node, the start of the walk that met it
    for start in range(1, len(heads)):
        node = start
        while node and not walk[node]:
            walk[node] = start
            node = heads[node]
        if node and walk[node] == start:
            cycle = [node]
            while heads[cycle[-1]] != node:
                cycle.append(heads[cycle[-1]])
            yield cycle


def validate_tree(sent: Sentence) -> None:
    """Gold trees must be fully attached, pass conllu.validate_document (ids
    1..n, heads in 0..n), and be single-rooted and acyclic."""
    label = sent.sent_id or "?"
    for tok in sent.tokens:
        if tok.head is None:
            raise DataError(f"sentence {label}: token {tok.id} has no head")
    validate_document(Document([sent]))
    heads = [0] + [tok.head for tok in sent.tokens]
    roots = heads.count(0) - 1
    if roots != 1:
        raise DataError(f"sentence {label}: expected exactly one root, found {roots}")
    for cycle in head_cycles(heads):
        raise DataError(f"sentence {label}: head cycle through token {cycle[0]}")


def projectivize(heads: list[int]) -> list[int]:
    """Lift non-projective arcs to the grandparent until projective, in the
    order and with the re-checks of the module docstring. Works on 1-based
    heads (heads[0] ignored) and returns a new list."""
    heads = list(heads)
    bad: set[tuple[int, int]] = set()  # the offending arcs as (span, dependent)

    def check(dep: int) -> None:
        lo, hi = sorted((dep, heads[dep]))
        if lo and not all(lo <= heads[k] <= hi for k in range(lo + 1, hi)):
            bad.add((hi - lo, dep))

    for dep in range(1, len(heads)):
        check(dep)
    while bad:
        key = min(bad)
        bad.remove(key)
        dep = key[1]
        old = heads[dep]
        new = heads[dep] = heads[old]
        check(dep)
        for d, h in enumerate(heads):
            lo, hi = (d, h) if d < h else (h, d)
            if lo < dep < hi and (lo <= old <= hi) != (lo <= new <= hi):
                bad.discard((hi - lo, d))
                check(d)
    return heads


def _padded(values: list[str]) -> list[str]:
    """Node-indexed feature values: the root at 0, the tokens at 1..n, and
    _NONE at n+1 and n+2 for absent nodes and the slots past the buffer."""
    return [_ROOT] + values + [_NONE, _NONE]


def _node_feats(
    s: list[int], b0: int, lc: dict[int, str], rc: dict[int, str],
    forms: list[str], tags: list[str],
) -> list[str]:
    """Features of the state with stack `s`, next buffer node `b0` and the
    child labels `lc` and `rc`; `forms` and `tags` come from _padded()."""
    depth = len(s)
    none = len(forms) - 2
    s0 = s[-1] if depth > 1 else none
    s1 = s[-2] if depth > 2 else none
    s2 = s[-3] if depth > 3 else none
    s0w, s0t = forms[s0], tags[s0]
    s1w, s1t = forms[s1], tags[s1]
    b0w, b0t = forms[b0], tags[b0]
    f = [
        "bias",
        "s0w=" + s0w,
        "s0t=" + s0t,
        "s0wt=" + s0w + "/" + s0t,
        "s1w=" + s1w,
        "s1t=" + s1t,
        "s1wt=" + s1w + "/" + s1t,
        "s2t=" + tags[s2],
        "b0w=" + b0w,
        "b0t=" + b0t,
        "b0wt=" + b0w + "/" + b0t,
        "b1w=" + forms[b0 + 1],
        "b1t=" + tags[b0 + 1],
        "s0s1t=" + s0t + "+" + s1t,
        "s0s1w=" + s0w + "+" + s1w,
        "s0b0t=" + s0t + "+" + b0t,
        "s1b0t=" + s1t + "+" + b0t,
        "s0s1b0t=" + s0t + "+" + s1t + "+" + b0t,
        "s0lc=" + lc.get(s0, _NONE),
        "s0rc=" + rc.get(s0, _NONE),
        "s1lc=" + lc.get(s1, _NONE),
        "s1rc=" + rc.get(s1, _NONE),
    ]
    if depth > 2:
        f.append("dist=" + str(min(s0 - s1, 5)))
    return f


def check_moves(classes: list[str], root_label: str) -> None:
    """Parser classes must be shift and arc moves, left:<label> or right:<label>,
    and labels, the root label among them, non-empty without whitespace.
    So shift sorts after every arc move, which ParserModel.parse relies on."""
    if SHIFT not in classes or len(set(classes)) < 2:
        raise DataError("parser classes need 'shift' and an arc move")
    for move in classes:
        kind, _, label = move.partition(":")
        if move != SHIFT and (kind not in ("left", "right") or not _LABEL.fullmatch(label)):
            raise DataError(f"parser class {move!r} is not shift, left:<label> or right:<label>")
    if not _LABEL.fullmatch(root_label):
        raise DataError(f"parser root_label {root_label!r} is empty or has whitespace")


# The arc-label features in feature order.
_LABEL_SLOTS = ("s0lc=", "s0rc=", "s1lc=", "s1rc=")
# The most features a decision has: those of a state with three stack nodes.
_TERMS = len(_node_feats([0, 1, 2], 3, {}, {}, _padded(["a", "b"]), _padded(["a", "b"])))
_ROUNDOFF = 2.0**-53  # of a float addition, relative


@dataclass
class ParserModel:
    weights: dict[str, dict[str, float]]
    classes: list[str]  # sorted, includes "shift"
    labels: list[str] = field(default_factory=list)
    root_label: str = "root"

    def __post_init__(self):
        check_moves(self.classes, self.root_label)
        # The moves scored (sorted), the weights frozen over them, and each
        # move decoded as (kind, label); never saved. Every move but shift
        # is left:<label> or right:<label>, so shift sorts last.
        self._moves = sorted(self.classes)
        rows = self._rows = compile_rows(self.weights, self._moves)
        self._decoded = [move.partition(":")[::2] for move in self._moves]
        # The fixed-point scale and the lead that certifies a lane argmax
        # (see the module docstring); no lead does if a float sum of
        # _TERMS weights could overflow.
        top = max((abs(w) for pairs in rows.values() for _, w in pairs), default=0.0)
        self._shift = 62 - _TERMS.bit_length() - math.frexp(top)[1]
        gamma = (_TERMS - 1) * _ROUNDOFF / (1 - (_TERMS - 1) * _ROUNDOFF)
        error = math.ceil(_TERMS + gamma * _TERMS * math.ldexp(top, self._shift))
        self._margin = 2 * error if math.isfinite(2.0 * _TERMS * top) else math.inf
        # The packed tables parse() scores from; never saved. Per arc label
        # (and _NONE), the s0lc, s0rc, s1lc and s1rc rows; the dist rows by
        # distance; and four memos filled as tokens come, through
        # util.remember.
        labels = {label for kind, label in self._decoded if kind != SHIFT}
        self._label_rows = {
            label: tuple(self._pack(slot + label) for slot in _LABEL_SLOTS)
            for label in labels | {self.root_label, _NONE}
        }
        self._dist_rows = tuple(self._pack(f"dist={d}") for d in range(6))
        # The lane bias 2**63 and the bias row, which every s0 slot holds.
        self._bias = lane_bias(len(self._moves)) + self._pack("bias")
        # (form, tag) -> the rows of the s0, s1, s2, b0 and b1 slots
        self._tokens: dict[tuple[str, str], tuple[int, ...]] = {}
        # tag -> the same, for a form without form rows
        self._tags: dict[str, tuple[int, ...]] = {}
        # (s0 tag, s1 tag, b0 tag) -> the s0s1t, s0b0t, s1b0t and s0s1b0t rows
        self._triples: dict[tuple[str, str, str], int] = {}
        # an s0s1w feature with a row -> that row
        self._s0s1w: dict[str, int] = {}

    def _pack(self, *feats: str) -> int:
        """The rows of `feats` summed in packed lanes (perceptron.pack)."""
        get = self._rows.get
        return pack(chain.from_iterable(get(feat, ()) for feat in feats), self._shift)

    def _tag(self, tag: str) -> tuple[int, ...]:
        """The slot rows of a token whose form has no form row."""
        return remember(self._tags, tag, (
            self._bias + self._pack("s0t=" + tag),
            self._pack("s1t=" + tag),
            self._pack("s2t=" + tag),
            self._pack("b0t=" + tag),
            self._pack("b1t=" + tag),
        ))

    def _token(self, key: tuple[str, str]) -> tuple[int, ...]:
        """The rows of a (form, tag) token in the s0, s1, s2, b0 and b1
        slots. A form whose seven form rows add nothing stores the entry of
        its tag itself."""
        form, tag = key
        wt = form + "/" + tag
        entry = self._tags.get(tag) or self._tag(tag)
        s0w, s1w, b0w, b1w = words = (
            self._pack("s0w=" + form, "s0wt=" + wt),
            self._pack("s1w=" + form, "s1wt=" + wt),
            self._pack("b0w=" + form, "b0wt=" + wt),
            self._pack("b1w=" + form),
        )
        if any(words):
            s0, s1, s2, b0, b1 = entry
            entry = (s0 + s0w, s1 + s1w, s2, b0 + b0w, b1 + b1w)
        return remember(self._tokens, key, entry)

    def _triple(self, key: tuple[str, str, str]) -> int:
        """The tag-pair and tag-triple rows of (s0, s1, b0) tags."""
        s0t, s1t, b0t = key
        return remember(self._triples, key, self._pack(
            "s0s1t=" + s0t + "+" + s1t, "s0b0t=" + s0t + "+" + b0t,
            "s1b0t=" + s1t + "+" + b0t, "s0s1b0t=" + s0t + "+" + s1t + "+" + b0t))

    def _word_pair(self, feat: str) -> int:
        """The row of an s0s1w feature that has one."""
        return remember(self._s0s1w, feat, self._pack(feat))

    def parse(self, forms: list[str], tags: list[str]) -> tuple[list[int], list[str]]:
        """Greedy parse; returns 1-based heads and deprels per token.

        Runs the transitions of train_parser, with the moves open there,
        and picks each move as summing the rows of _node_feats in order
        from 0.0 would (see the module docstring)."""
        n = len(forms)
        pforms, ptags = _padded(forms), _padded(tags)
        # the root (node 0) never fills a feature slot
        memo, token = self._tokens, self._token
        tokens = [None] + [memo.get(key) or token(key) for key in zip(pforms[1:], ptags[1:])]
        decoded, rows, margin = self._decoded, self._rows, self._margin
        triples, s0s1w = self._triples, self._s0s1w
        label_rows, dist_rows = self._label_rows, self._dist_rows
        heads = [0] * (n + 1)
        deprels = [_NONE] * (n + 1)
        # the label of each node's leftmost / rightmost child: arc-standard
        # attaches a head's new left child left of the ones before it, and
        # its new right child right of them
        lc: dict[int, str] = {}
        rc: dict[int, str] = {}
        stack = [0]
        b0 = 1  # the next buffer node; n + 1 once the buffer is empty
        none = n + 1
        while True:
            depth = len(stack)
            # With fewer than two tokens on the stack no decision is scored:
            # shift while the buffer holds tokens, then attach the last
            # token to the root.
            if depth < 3:
                if b0 <= n:
                    stack.append(b0)
                    b0 += 1
                    continue
                if depth == 2:
                    dep = stack.pop()
                    deprels[dep] = self.root_label
                return heads[1:], deprels[1:]
            s0, s1 = stack[-1], stack[-2]
            s2 = stack[-3] if depth > 3 else none
            key = (ptags[s0], ptags[s1], ptags[b0])
            triple = triples.get(key)
            if triple is None:
                triple = self._triple(key)
            feat = "s0s1w=" + pforms[s0] + "+" + pforms[s1]
            total = (
                tokens[s0][0] + tokens[s1][1] + tokens[s2][2] + tokens[b0][3]
                + tokens[b0 + 1][4] + triple
                + ((s0s1w.get(feat) or self._word_pair(feat)) if feat in rows else 0)
                + label_rows[lc.get(s0, _NONE)][0] + label_rows[rc.get(s0, _NONE)][1]
                + label_rows[lc.get(s1, _NONE)][2] + label_rows[rc.get(s1, _NONE)][3]
                + dist_rows[min(s0 - s1, 5)]
            )
            lanes = unpack(total, len(decoded))
            if b0 > n:
                lanes.pop()  # only the arc moves are open, and shift is last
            best = max(lanes)
            move = lanes.index(best)
            lanes[move] = 0  # below every lane: max(lanes) is the runner-up
            if best - max(lanes) <= margin:
                # not certified: sum the rows in feature order from 0.0
                feats = _node_feats(stack, b0, lc, rc, pforms, ptags)
                scores = add_rows(rows, feats, len(decoded))
                if b0 > n:
                    scores.pop()
                move = scores.index(max(scores))
            kind, label = decoded[move]
            if kind == SHIFT:
                stack.append(b0)
                b0 += 1
            elif kind == "left":
                stack.pop()
                stack[-1] = s0
                heads[s1] = s0
                deprels[s1] = lc[s0] = label
            else:
                stack.pop()
                heads[s0] = s1
                deprels[s0] = rc[s1] = label


def _sentence_arrays(sent: Sentence) -> tuple[list[str], list[str], list[int], list[str]]:
    forms = [t.form for t in sent.tokens]
    tags = []
    for t in sent.tokens:
        if t.upos is None:
            raise DataError(
                f"sentence {sent.sent_id}: token {t.id} ({t.form!r}) has no upos for parsing"
            )
        tags.append(t.upos)
    heads = [0] + [t.head for t in sent.tokens]
    deprels = [_NONE] + [t.deprel if t.deprel is not None else "dep" for t in sent.tokens]
    return forms, tags, heads, deprels


def train_parser(
    train: Document,
    dev: Document | None = None,
    epochs: int = 5,
    seed: int = 13,
) -> ParserModel:
    """Teacher-forced training along the static oracle.

    Gold trees are validated (errors name the sent_id) and projectivized
    for oracle purposes only. With a dev document, the epoch whose averaged
    snapshot scores the best dev UAS is kept.
    """
    if epochs < 1:
        raise DataError("epochs must be >= 1")
    if not train.sentences:
        raise DataError("empty training document")
    for sent in train.sentences:
        validate_tree(sent)
    if dev is not None:
        for sent in dev.sentences:
            validate_tree(sent)

    data = []
    root_counts: dict[str, int] = {}
    label_set: set[str] = set()
    for sent in train.sentences:
        forms, tags, heads, deprels = _sentence_arrays(sent)
        proj_heads = projectivize(heads)
        for dep in range(1, len(heads)):
            if not _LABEL.fullmatch(deprels[dep]):
                raise DataError(
                    f"sentence {sent.sent_id}: token {dep} has DEPREL {deprels[dep]!r},"
                    " which is empty or has whitespace"
                )
            if proj_heads[dep] == 0:
                root_counts[deprels[dep]] = root_counts.get(deprels[dep], 0) + 1
            else:
                label_set.add(deprels[dep])
        data.append((forms, tags, proj_heads, deprels))
    root_label = min(
        root_counts, key=lambda lab: (-root_counts[lab], lab), default="root"
    )
    labels = sorted(label_set) if label_set else ["dep"]
    classes = sorted([SHIFT] + [f"left:{l}" for l in labels] + [f"right:{l}" for l in labels])
    # shift sorts after every arc move (see check_moves): the first `shift`
    # classes are the arc moves
    shift = len(classes) - 1
    dev_data = [_sentence_arrays(sent)[:3] for sent in dev.sentences] if dev is not None else []

    model = AveragedPerceptron(classes)
    rng = random.Random(seed)
    order = list(range(len(data)))
    best_uas = -1.0
    best = None

    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            forms, tags, heads, deprels = data[idx]
            n = len(forms)
            n_children = [0] * (n + 1)
            for d in range(1, n + 1):
                n_children[heads[d]] += 1
            n_attached = [0] * (n + 1)  # children attached so far per node
            pforms, ptags = _padded(forms), _padded(tags)
            lc: dict[int, str] = {}
            rc: dict[int, str] = {}
            stack = [0]
            b0 = 1
            while b0 <= n or len(stack) > 1:
                depth = len(stack)
                s0 = stack[-1]
                s1 = stack[-2] if depth > 1 else 0
                # the static oracle: attach s1 to s0, or s0 to s1 once s0
                # has all its children, else shift
                if s1 and heads[s1] == s0:
                    truth = "left:" + deprels[s1]
                elif depth > 1 and heads[s0] == s1 and n_attached[s0] == n_children[s0]:
                    truth = "right:" + deprels[s0]
                elif b0 <= n:
                    truth = SHIFT
                else:
                    raise DataError("oracle stuck: tree is not projective")
                # Every state but the final attachment to the root is a
                # decision and ticks the perceptron.
                if depth > 2:
                    feats = _node_feats(stack, b0, lc, rc, pforms, ptags)
                    guess = model.predict(feats, shift + 1 if b0 <= n else shift)
                    model.update(model.index(truth), guess, feats)
                elif truth == SHIFT:
                    model.update(shift, shift, ())
                elif b0 <= n:
                    # Only shift is open, yet the oracle attaches s0 to the
                    # root: projectivize can leave several root children.
                    feats = _node_feats(stack, b0, lc, rc, pforms, ptags)
                    model.update(model.index(truth), shift, feats)
                if truth == SHIFT:
                    stack.append(b0)
                    b0 += 1
                elif truth.startswith("left:"):
                    stack.pop()
                    stack[-1] = s0
                    n_attached[s0] += 1
                    lc[s0] = deprels[s1]
                else:
                    stack.pop()
                    n_attached[s1] += 1
                    rc[s1] = deprels[s0]
        if dev_data:
            snapshot = ParserModel(
                weights=model.averaged(), classes=classes, labels=labels, root_label=root_label
            )
            correct = total = 0
            for forms, tags, gold_heads in dev_data:
                got_heads, _ = snapshot.parse(forms, tags)
                for d in range(len(forms)):
                    correct += got_heads[d] == gold_heads[d + 1]
                    total += 1
            uas = correct / total
            if uas > best_uas:
                best_uas = uas
                best = snapshot
    if best is None:
        return ParserModel(
            weights=model.averaged(), classes=classes, labels=labels, root_label=root_label
        )
    # the dev snapshot goes without the memos that scoring dev filled, as
    # a loaded model starts, so that a forked job sends back less
    for memo in (best._tokens, best._tags, best._triples, best._s0s1w):
        memo.clear()
    return best
