"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the underlying definitions
with different data structures than the library (dense tables, exact
rationals, plain token loops) so that agreement between the two is
meaningful evidence rather than the same code run twice. It also holds
helpers that only the tests call (an argmax over compiled weight rows, a
projectivity check, a sentence's character spans, the tagger's feature
template and the setting and reading of a perceptron's packed live
weights), the tokenizer written over character offsets, the tree checks
written with a walk from every token, and the arc-standard state
machine, a _State stepped along oracle_move, that the parser's plain-list
training and parsing are checked against.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from udbridge.conllu import Document, Sentence, Token
from udbridge.depparser import SHIFT, _NONE, _node_feats, _padded, _sentence_arrays
from udbridge.errors import DataError
from udbridge.perceptron import AveragedPerceptron, lane_bias, unpack
from udbridge.tagger import _PAD, _form_features, _tail
from udbridge.tokenizer import TokenizerConfig

# --------------------------------------------------------- Fisher's exact


def fisher_exact_fraction(a: int, b: int, c: int, d: int) -> Fraction:
    """Two-sided Fisher p as an exact rational.

    Enumerates every table with the observed margins and sums the
    hypergeometric probabilities of those no more probable than the
    observed table, comparing exactly.
    """
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    denom = math.comb(n, c1)

    def prob(x: int) -> Fraction | None:
        y = c1 - x
        if x < 0 or x > r1 or y < 0 or y > r2:
            return None
        return Fraction(math.comb(r1, x) * math.comb(r2, y), denom)

    p_obs = prob(a)
    assert p_obs is not None
    total = Fraction(0)
    for x in range(0, min(r1, c1) + 1):
        p = prob(x)
        if p is not None and p <= p_obs:
            total += p
    return min(total, Fraction(1))


# --------------------------------------------------------------- IBM-1 EM


def em_reference(
    pairs: list[tuple[list[str], list[str]]],
    iterations: int,
    lambda_: float,
    null_prob: float,
) -> tuple[dict[tuple[str, str], float], list[float]]:
    """Dense-matrix EM for the same model: returns ((src, tgt) -> prob,
    per-iteration log-likelihood computed before each re-estimation)."""
    src_vocab = sorted({w for s, _ in pairs for w in s} | ({"<null>"} if null_prob > 0 else set()))
    tgt_vocab = sorted({w for _, t in pairs for w in t})
    si = {w: i for i, w in enumerate(src_vocab)}
    ti = {w: i for i, w in enumerate(tgt_vocab)}

    cooc = [[False] * len(tgt_vocab) for _ in src_vocab]
    for source, target in pairs:
        rows = [si[w] for w in source]
        if null_prob > 0:
            rows.append(si["<null>"])
        for w in target:
            for r in rows:
                cooc[r][ti[w]] = True
    t = []
    for r in range(len(src_vocab)):
        k = sum(cooc[r])
        t.append([1.0 / k if cooc[r][col] else 0.0 for col in range(len(tgt_vocab))])

    def priors(n_src: int, n_tgt: int, j: int) -> list[float]:
        if lambda_ == 0.0:
            weights = [1.0] * n_src
        else:
            weights = [
                math.exp(-lambda_ * abs(i / n_src - j / n_tgt)) for i in range(n_src)
            ]
        z = sum(weights)
        return [w * (1.0 - null_prob) / z for w in weights]

    ll_history = []
    for _ in range(iterations):
        counts = [[0.0] * len(tgt_vocab) for _ in src_vocab]
        totals = [0.0] * len(src_vocab)
        ll = 0.0
        for source, target in pairs:
            n_src, n_tgt = len(source), len(target)
            for j, tgt_word in enumerate(target):
                col = ti[tgt_word]
                pri = priors(n_src, n_tgt, j)
                terms = []
                if null_prob > 0:
                    terms.append((si["<null>"], null_prob * t[si["<null>"]][col]))
                for i, src_word in enumerate(source):
                    terms.append((si[src_word], pri[i] * t[si[src_word]][col]))
                z = sum(w for _, w in terms)
                ll += math.log(z)
                for row, w in terms:
                    counts[row][col] += w / z
                    totals[row] += w / z
        for r in range(len(src_vocab)):
            if totals[r] > 0.0:
                t[r] = [c / totals[r] for c in counts[r]]
        ll_history.append(ll)

    table = {}
    for src, r in si.items():
        for tgt, col in ti.items():
            if t[r][col] > 0.0:
                table[(src, tgt)] = t[r][col]
    return table, ll_history


# ---------------------------------------------------- averaged perceptron


class SnapshotPerceptron:
    """The averaged perceptron from its definition, keyed by class name:
    after every update (tick), add the whole weight table into a running
    sum of snapshots; the average is that sum over the number of ticks.
    No lazy timestamps."""

    def __init__(self):
        self.weights: dict[str, dict[str, float]] = {}
        self.sums: dict[tuple[str, str], float] = {}
        self.ticks = 0

    def update(self, truth: str, guess: str, features: list[str]) -> None:
        if truth != guess:
            for feat in features:
                row = self.weights.setdefault(feat, {})
                row[truth] = row.get(truth, 0.0) + 1.0
                row[guess] = row.get(guess, 0.0) - 1.0
        self.ticks += 1
        for feat, row in self.weights.items():
            for cls, w in row.items():
                self.sums[feat, cls] = self.sums.get((feat, cls), 0.0) + w

    def averaged(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for (feat, cls), total in self.sums.items():
            if total != 0.0:
                out.setdefault(feat, {})[cls] = total / self.ticks
        return out


def set_weights(p: AveragedPerceptron, table: dict[str, dict[int, int]]) -> None:
    """Give `p` the live weights feature -> {class index: int weight}, as
    if update() had made them: each row packed exactly as
    sum(w << 64 * i), each running sum 0."""
    p._live = {feat: sum(w << 64 * i for i, w in row.items()) for feat, row in table.items()}
    p._sums = {feat: dict.fromkeys(row, 0) for feat, row in table.items()}


def live_weights(p: AveragedPerceptron) -> dict[str, dict[int, int]]:
    """The live weights of `p`, feature -> {class index: weight}, read
    from its packed rows with unpack(), in the order its running sums
    name the classes."""
    n = len(p.classes)
    out = {}
    for feat, usum in p._sums.items():
        lanes = unpack(p._live[feat] + lane_bias(n), n)
        out[feat] = {i: lanes[i] - 2**63 for i in usum}
    return out


# ------------------------------------------- compiled rows and projectivity


def best_index(
    rows: dict, features: list[str], n_classes: int, candidates: list[int] | None = None
) -> int:
    """Index of the highest-scoring class among `candidates` (ascending
    indices; None means all `n_classes`) over rows compiled by
    perceptron.compile_rows. Ties go to the earliest index.

    Each class's score is summed with += from 0.0 in feature order, like
    predict_with, so the same weights pick the same class. Not sum():
    from Python 3.12 it rounds float totals differently.
    """
    scores = [0.0] * n_classes
    get = rows.get
    for feat in features:
        row = get(feat)
        if row is not None:
            for i, w in row:
                scores[i] += w
    if candidates is None:
        return scores.index(max(scores))
    return max(candidates, key=scores.__getitem__)


def is_projective(heads: list[int]) -> bool:
    """heads[0] unused; token i has head heads[i]."""
    n = len(heads) - 1
    for dep in range(1, n + 1):
        lo, hi = sorted((dep, heads[dep]))
        for k in range(lo + 1, hi):
            if not lo <= heads[k] <= hi:
                return False
    return True


# ------------------------------------------------------------- tree checks
# The parser's tree checks and the alignment projection's cycle breaking,
# written the direct way: a walk to the root from every token, and a
# rescan of every arc after each lift. depparser.validate_tree, projectivize
# and the rerooting over depparser.head_cycles must agree with them.


def validate_tree(sent: Sentence) -> None:
    """Gold trees must be fully attached, single-rooted and acyclic."""
    label = sent.sent_id or "?"
    n = len(sent.tokens)
    heads = {}
    for tok in sent.tokens:
        if tok.head is None:
            raise DataError(f"sentence {label}: token {tok.id} has no head")
        heads[tok.id] = tok.head
    roots = [i for i, h in heads.items() if h == 0]
    if len(roots) != 1:
        raise DataError(
            f"sentence {label}: expected exactly one root, found {len(roots)}"
        )
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen:
                raise DataError(f"sentence {label}: head cycle through token {node}")
            seen.add(node)
            node = heads[node]


def projectivize(heads: list[int]) -> list[int]:
    """Lift non-projective arcs to the grandparent until projective.

    Works on 1-based heads (heads[0] ignored). Among offending arcs the
    shortest span is lifted first, ties to the smaller dependent.
    """
    heads = list(heads)
    n = len(heads) - 1
    while True:
        offender: tuple[int, int] | None = None
        for dep in range(1, n + 1):
            h = heads[dep]
            if h == 0:
                continue
            lo, hi = sorted((dep, h))
            if all(lo <= heads[k] <= hi for k in range(lo + 1, hi)):
                continue
            key = (hi - lo, dep)
            if offender is None or key < offender:
                offender = key
        if offender is None:
            return heads
        dep = offender[1]
        heads[dep] = heads[heads[dep]]


def _break_cycles(heads: list[int], deprels: list[str]) -> None:
    """Reroot the lowest-index member of any head cycle (0-based arrays,
    head values 1-based with 0 = root)."""
    n = len(heads)
    for start in range(n):
        trail = []
        seen = set()
        node = start
        while heads[node] != 0:
            if node in seen:
                cycle_start = trail.index(node)
                victim = min(trail[cycle_start:])
                heads[victim] = 0
                deprels[victim] = "dep"
                break
            seen.add(node)
            trail.append(node)
            node = heads[node] - 1


# ----------------------------------------------------- arc-standard state


@dataclass
class _State:
    n: int
    stack: list[int] = field(default_factory=lambda: [0])
    next_buf: int = 1
    heads: list[int] = field(init=False)
    deprels: list[str] = field(init=False)
    # children attached so far per node, for the oracle
    n_attached: list[int] = field(init=False)
    # the label of each node's leftmost / rightmost child, for features:
    # arc-standard attaches a head's new left child left of the ones before
    # it, and its new right child right of them
    lc: dict[int, str] = field(default_factory=dict)
    rc: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.heads = [0] * (self.n + 1)
        self.deprels = [_NONE] * (self.n + 1)
        self.n_attached = [0] * (self.n + 1)

    def buffer_empty(self) -> bool:
        return self.next_buf > self.n

    def terminal(self) -> bool:
        return self.buffer_empty() and len(self.stack) == 1

    def add_arc(self, head: int, dep: int, label: str) -> None:
        self.heads[dep] = head
        self.deprels[dep] = label
        self.n_attached[head] += 1
        (self.lc if dep < head else self.rc)[head] = label

    def apply(self, move: str, root_label: str) -> None:
        if move == SHIFT:
            self.stack.append(self.next_buf)
            self.next_buf += 1
        elif move.startswith("left:"):
            s0 = self.stack.pop()
            s1 = self.stack.pop()
            self.add_arc(s0, s1, move[5:])
            self.stack.append(s0)
        elif move.startswith("right:"):
            s0 = self.stack.pop()
            head = self.stack[-1]
            self.add_arc(head, s0, root_label if head == 0 else move[6:])
        else:
            raise DataError(f"unknown transition {move!r}")


def _candidates(moves: list[str]) -> tuple[list[int], list[int], list[int]]:
    """The index lists _open_moves picks from, over sorted `moves` that
    include shift: every move, the arc moves, and shift only."""
    arcs = [i for i, move in enumerate(moves) if move != SHIFT]
    return list(range(len(moves))), arcs, [moves.index(SHIFT)]


def _open_moves(state: _State, every, arcs, shift_only):
    """The moves open in a non-terminal state, as the caller's `every`
    (shift and all arc moves), `arcs` or `shift_only`; None when only the
    final attachment to the root is left."""
    stack = state.stack
    if state.buffer_empty():
        return arcs if stack[-2] != 0 else None
    if len(stack) >= 2 and stack[-2] != 0:
        return every
    return shift_only


def oracle_move(state: _State, heads: list[int], deprels: list[str], n_children: list[int]) -> str:
    if len(state.stack) >= 2:
        s1, s0 = state.stack[-2], state.stack[-1]
        if s1 != 0 and heads[s1] == s0:
            return "left:" + deprels[s1]
        if heads[s0] == s1 and state.n_attached[s0] == n_children[s0]:
            return "right:" + deprels[s0]
    if state.buffer_empty():
        raise DataError("oracle stuck: tree is not projective")
    return SHIFT


def reference_train_parser(doc, epochs: int, seed: int) -> dict[str, dict[str, float]]:
    """The averaged weights of train_parser(doc, epochs=epochs, seed=seed)
    without dev data, trained by stepping a _State along oracle_move: the
    same projectivized trees, classes, root label and shuffles."""
    data = []
    root_counts: dict[str, int] = {}
    label_set: set[str] = set()
    for sent in doc.sentences:
        forms, tags, heads, deprels = _sentence_arrays(sent)
        heads = projectivize(heads)
        for dep in range(1, len(heads)):
            if heads[dep] == 0:
                root_counts[deprels[dep]] = root_counts.get(deprels[dep], 0) + 1
            else:
                label_set.add(deprels[dep])
        data.append((forms, tags, heads, deprels))
    root_label = min(root_counts, key=lambda lab: (-root_counts[lab], lab), default="root")
    labels = sorted(label_set) if label_set else ["dep"]
    classes = sorted([SHIFT] + [f"left:{l}" for l in labels] + [f"right:{l}" for l in labels])
    every, arcs, shift_only = _candidates(classes)

    model = AveragedPerceptron(classes)
    rng = random.Random(seed)
    order = list(range(len(data)))
    for _epoch in range(epochs):
        rng.shuffle(order)
        for idx in order:
            forms, tags, heads, deprels = data[idx]
            n_children = [0] * (len(heads))
            for d in range(1, len(heads)):
                n_children[heads[d]] += 1
            state = _State(n=len(forms))
            pforms, ptags = _padded(forms), _padded(tags)
            while not state.terminal():
                truth = oracle_move(state, heads, deprels, n_children)
                open_moves = _open_moves(state, every, arcs, shift_only)
                if open_moves is not None:
                    feats = _node_feats(state.stack, state.next_buf, state.lc, state.rc,
                                        pforms, ptags)
                    # every move and the arc moves are prefixes of the
                    # sorted moves; where only shift is open, it is taken
                    # unscored
                    guess = (shift_only[0] if open_moves is shift_only
                             else model.predict(feats, len(open_moves)))
                    model.update(model.index(truth), guess, feats)
                state.apply(truth, root_label)
    return model.averaged()


# ------------------------------------------------------- tagger features


def token_features(forms: list[str], i: int, prev: str, prev2: str) -> list[str]:
    """The features of token i after the labels prev2 and prev, in the
    order that training and TaggerModel add them."""
    return _form_features(forms[i]) + [
        "pw=" + (forms[i - 1].lower() if i > 0 else _PAD),
        "nw=" + (forms[i + 1].lower() if i + 1 < len(forms) else _PAD),
        "pt=" + prev,
        "ppt=" + prev2 + "+" + prev,
    ] + _tail(forms[i])


# ------------------------------------------------------ character spans


def char_spans(sentence) -> list[tuple[int, int]]:
    """Each token's half-open character offsets into sentence.text(): the
    place of its surface unit, found by searching the text for the units in
    turn and shared by the words of a multiword range."""
    text = sentence.text()
    spans: list[tuple[int, int]] = []
    pos = 0
    for form, covered, _ in sentence.surface_units():
        start = text.index(form, pos)
        assert start - pos <= 1, (text, form)  # at most one space between units
        pos = start + len(form)
        spans += [(start, pos)] * covered
    assert pos == len(text)
    return spans


# ------------------------------------------------------------- tokenizer


def _reference_is_terminator(token: str, cfg) -> bool:
    if token in cfg.terminators or token == "…":
        return True
    return len(token) >= 2 and set(token) == {"."}


def _reference_split_chunk(chunk: str, start: int, cfg) -> list[tuple[str, int, int]]:
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


def reference_tokenize(text: str, cfg=None) -> Document:
    """The tokenizer written over character offsets: the input is scanned one
    character at a time, each piece keeps its (form, begin, end) place, a
    token gets SpaceAfter=No when the next piece of its sentence begins where
    it ends, and a sentence ends after a terminator that is followed by
    whitespace plus an uppercase letter, or by the end of the input."""
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
        parts = _reference_split_chunk(text[i:j], i, cfg)
        for k, (form, begin, end) in enumerate(parts):
            pieces.append((form, begin, end))
            if k < len(parts) - 1 or not _reference_is_terminator(form, cfg):
                continue
            if form in cfg.abbreviations:
                continue
            nxt = j
            while nxt < n and text[nxt].isspace():
                nxt += 1
            if nxt >= n or (nxt > j and text[nxt].isupper()):
                close_sentence()
        i = j
    close_sentence()
    return doc


# ------------------------------------------------------ accuracy counting


def acc_1dec(correct: int, total: int) -> float:
    """100*correct/total, one decimal, ties away from zero, exact integer
    arithmetic throughout."""
    if total == 0:
        raise ZeroDivisionError
    return ((2000 * correct + total) // (2 * total)) / 10


def brute_token_scores(gold_doc, sys_doc) -> dict[str, float]:
    """Per-attribute accuracies for two identically tokenized documents,
    counted with plain loops. Returns the same 1-decimal percentages the
    evaluator reports for the gold-tokenization setting."""
    gold = [t for s in gold_doc.sentences for t in s.tokens]
    system = [t for s in sys_doc.sentences for t in s.tokens]
    assert len(gold) == len(system)
    assert [t.form for t in gold] == [t.form for t in system]
    n = len(gold)
    hits = {"upos": 0, "xpos": 0, "ufeats": 0, "alltags": 0, "lemma": 0, "uas": 0, "las": 0}

    # heads must be compared as positions in the document, not sentence ids
    def flat_heads(doc):
        heads = []
        base = 0
        for sent in doc.sentences:
            for tok in sent.tokens:
                if tok.head is None:
                    heads.append(("unset",))
                elif tok.head == 0:
                    heads.append(("root",))
                else:
                    heads.append(("tok", base + tok.head - 1))
            base += len(sent.tokens)
        return heads

    gh, sh = flat_heads(gold_doc), flat_heads(sys_doc)
    for i in range(n):
        g, s = gold[i], system[i]
        g_upos = g.upos or "_"
        s_upos = s.upos or "_"
        g_xpos = g.xpos or "_"
        s_xpos = s.xpos or "_"
        g_feats = dict(g.feats)
        s_feats = dict(s.feats)
        if g_upos == s_upos:
            hits["upos"] += 1
        if g_xpos == s_xpos:
            hits["xpos"] += 1
        if g_feats == s_feats:
            hits["ufeats"] += 1
        if g_upos == s_upos and g_xpos == s_xpos and g_feats == s_feats:
            hits["alltags"] += 1
        if (g.lemma or "_") == (s.lemma or "_"):
            hits["lemma"] += 1
        head_ok = gh[i] == sh[i] and gh[i][0] != "unset"
        if head_ok:
            hits["uas"] += 1
            if (g.deprel or "_") == (s.deprel or "_"):
                hits["las"] += 1
    return {k: acc_1dec(v, n) for k, v in hits.items()}


def brute_upos_score(gold_doc, sys_doc) -> tuple[int, int, float]:
    """(correct, total, pct) UPOS agreement; independent of score_procedure."""
    correct = total = 0
    for gs, ss in zip(gold_doc.sentences, sys_doc.sentences):
        for g, s in zip(gs.tokens, ss.tokens):
            total += 1
            if (g.upos or "_") == (s.upos or "_"):
                correct += 1
    return correct, total, acc_1dec(correct, total)
