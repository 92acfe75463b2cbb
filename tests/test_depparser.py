import random

import pytest

from oracles import _State, is_projective, oracle_move, reference_train_parser
from synth import _crossing_corpus, make_corpus
from udbridge.conllu import parse_conllu
from udbridge.depparser import (
    SHIFT,
    ParserModel,
    projectivize,
    train_parser,
    validate_tree,
)
from udbridge.errors import DataError
from udbridge.perceptron import AveragedPerceptron


def sent_from(rows: list[str]):
    text = "\n".join(rows) + "\n\n"
    return parse_conllu(text).sentences[0]


def row(i: int, head: int | str, deprel: str = "dep", upos: str = "NOUN") -> str:
    return f"{i}\tw{i}\t_\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def random_tree(rng: random.Random, n: int) -> list[int]:
    # attach each node to one already placed: single root, no cycles
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    placed = [order[0]]
    for node in order[1:]:
        heads[node] = rng.choice(placed)
        placed.append(node)
    return heads


# ---------------------------------------------------------------- validate


def test_validate_tree_accepts_single_rooted():
    sent = sent_from([row(1, 2), row(2, 0, "root", "VERB"), row(3, 2)])
    validate_tree(sent)


def test_validate_tree_missing_head():
    sent = sent_from([row(1, "_"), row(2, 0, "root")])
    sent.sent_id = "bad-1"
    with pytest.raises(DataError, match="bad-1.*token 1 has no head"):
        validate_tree(sent)


def test_validate_tree_requires_exactly_one_root():
    double = sent_from([row(1, 0, "root"), row(2, 0, "root")])
    with pytest.raises(DataError, match="expected exactly one root, found 2"):
        validate_tree(double)
    none = sent_from([row(1, 2), row(2, 1)])
    with pytest.raises(DataError, match="found 0"):
        validate_tree(none)


def test_validate_tree_detects_cycle():
    sent = sent_from([row(1, 2), row(2, 1), row(3, 0, "root")])
    with pytest.raises(DataError, match="head cycle"):
        validate_tree(sent)


# ------------------------------------------------------------ projectivity


def test_is_projective_hand_cases():
    assert is_projective([0, 2, 0, 4, 2])
    assert is_projective([0, 2, 0, 2])
    assert not is_projective([0, 3, 0, 2])
    assert not is_projective([0, 0, 4, 1, 1])


def test_projectivize_keeps_projective_input():
    heads = [0, 2, 0, 4, 2]
    assert projectivize(heads) == heads


def test_projectivize_lifts_to_grandparent():
    # arc 3->1 crosses the root attachment of token 2
    assert projectivize([0, 3, 0, 2]) == [0, 2, 0, 2]


def test_projectivize_tie_lifts_smaller_dependent():
    # offenders 2->4 and 3->1 have equal spans; token 2 is lifted
    assert projectivize([0, 0, 4, 1, 1]) == [0, 0, 1, 1, 1]


def test_projectivize_shortest_span_first():
    # span-2 offender 1->3 is lifted before the span-3 offender 2->5,
    # which turns the tree into a two-root forest
    assert projectivize([0, 3, 5, 0, 3, 3]) == [0, 0, 3, 0, 3, 3]


def test_projectivize_random_trees():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(2, 10)
        heads = random_tree(rng, n)
        result = projectivize(heads)
        assert is_projective(result)
        for dep in range(1, n + 1):
            if result[dep] == heads[dep]:
                continue
            # lifted heads are ancestors of the old head in the input tree
            ancestors = set()
            node = heads[dep]
            while node != 0:
                node = heads[node]
                ancestors.add(node)
            assert result[dep] in ancestors


# ----------------------------------------------------------------- oracle


def run_oracle(heads: list[int], deprels: list[str], root_label: str) -> _State:
    n = len(heads) - 1
    n_children = [0] * (n + 1)
    for dep in range(1, n + 1):
        n_children[heads[dep]] += 1
    state = _State(n=n)
    while not state.terminal():
        move = oracle_move(state, heads, deprels, n_children)
        state.apply(move, root_label)
    return state


def test_oracle_reproduces_random_projective_trees():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 9)
        heads = projectivize(random_tree(rng, n))
        deprels = ["<pad>"] + [
            "root" if heads[d] == 0 else f"l{d % 3}" for d in range(1, n + 1)
        ]
        state = run_oracle(heads, deprels, "root")
        assert state.heads[1:] == heads[1:]
        assert state.deprels[1:] == deprels[1:]


def random_projective_tree(rng: random.Random, n: int) -> list[int]:
    """Heads of a random projective tree: each span of tokens is cut into
    consecutive subtrees, and each subtree's root heads both sides of it."""
    heads = [0] * (n + 1)
    spans = [(1, n, 0, True)]  # lo, hi, head, whether the span is one subtree
    while spans:
        lo, hi, head, whole = spans.pop()
        if lo > hi:
            continue
        end = hi if whole else rng.randint(lo, hi)
        root = rng.randint(lo, end)
        heads[root] = head
        spans += [(lo, root - 1, root, False), (root + 1, end, root, False)]
        spans.append((end + 1, hi, head, False))
    return heads


def scan_oracle_move(state, heads, deprels, n_children) -> str:
    """oracle_move with the children attached to s0 counted by a scan over
    every token."""
    if len(state.stack) >= 2:
        s1, s0 = state.stack[-2], state.stack[-1]
        if s1 != 0 and heads[s1] == s0:
            return "left:" + deprels[s1]
        if heads[s0] == s1:
            attached = sum(1 for d in range(1, len(heads)) if state.heads[d] == s0)
            if attached == n_children[s0]:
                return "right:" + deprels[s0]
    return SHIFT


def test_oracle_on_long_projective_trees():
    rng = random.Random(203)
    for n in (200, 257, 350, 650):
        heads = random_projective_tree(rng, n)
        assert is_projective(heads)
        assert heads.count(0) == 2  # heads[0] and the one root
        deprels = ["<pad>"] + ["root" if heads[d] == 0 else f"l{d % 4}" for d in range(1, n + 1)]
        n_children = [0] * (n + 1)
        for dep in range(1, n + 1):
            n_children[heads[dep]] += 1
        state = _State(n=n)
        while not state.terminal():
            move = oracle_move(state, heads, deprels, n_children)
            assert move == scan_oracle_move(state, heads, deprels, n_children)
            state.apply(move, "root")
        assert state.heads == heads
        assert state.deprels[1:] == deprels[1:]


def test_oracle_stuck_on_nonprojective_tree():
    heads = [0, 3, 0, 2]
    deprels = ["<pad>", "dep", "root", "dep"]
    with pytest.raises(DataError, match="not projective"):
        run_oracle(heads, deprels, "root")


def test_oracle_delays_right_arc_until_children_attached():
    # 1 <- 2 -> 3: reducing 2 under the root before 3 is attached would
    # orphan 3, so the oracle must shift first
    heads = [0, 2, 0, 2]
    deprels = ["<pad>", "dep", "root", "dep"]
    n_children = [0] * 4
    for dep in range(1, 4):
        n_children[heads[dep]] += 1
    state = _State(n=3)
    state.apply(SHIFT, "root")
    state.apply(SHIFT, "root")
    state.apply("left:dep", "root")  # 1 <- 2, stack now [0, 2]
    assert oracle_move(state, heads, deprels, n_children) == SHIFT


# ------------------------------------------------------------------ parse


def test_single_token_parses_without_weights():
    model = ParserModel(weights={}, classes=["left:a", "right:a", "shift"], root_label="main")
    assert model.parse(["x"], ["NOUN"]) == ([0], ["main"])


def test_a_parser_model_checks_its_moves_when_built():
    with pytest.raises(DataError, match="parser class 'zzz'"):
        ParserModel({}, classes=["left:a", "right:a", "shift", "zzz"], labels=["a"])
    for classes in ([], ["shift"], ["left:a", "right:a"]):
        with pytest.raises(DataError, match="'shift' and an arc move"):
            ParserModel({}, classes=classes, labels=["a"])
    with pytest.raises(DataError, match="root_label"):
        ParserModel({}, classes=["left:a", "right:a", "shift"], labels=["a"], root_label="a b")


def test_parse_always_yields_single_rooted_projective_tree():
    labels = ["a", "b"]
    classes = sorted(
        [SHIFT] + [f"left:{l}" for l in labels] + [f"right:{l}" for l in labels]
    )
    rng = random.Random(55)
    tags = ["NOUN", "VERB", "ADP", "DET"]
    weights = {"bias": {c: rng.uniform(-1.0, 1.0) for c in classes}}
    for t in tags:
        weights["s0t=" + t] = {c: rng.uniform(-1.0, 1.0) for c in classes}
    model = ParserModel(weights=weights, classes=classes, labels=labels)

    for _ in range(300):
        n = rng.randint(1, 10)
        forms = [f"w{i}" for i in range(n)]
        sent_tags = [rng.choice(tags) for _ in range(n)]
        heads, deprels = model.parse(forms, sent_tags)
        assert len(heads) == len(deprels) == n
        assert sum(1 for h in heads if h == 0) == 1
        padded = [0] + heads
        assert is_projective(padded)
        for dep in range(1, n + 1):
            seen = set()
            node = dep
            while node != 0:
                assert node not in seen
                seen.add(node)
                node = padded[node]
            label = deprels[dep - 1]
            assert label == "root" if heads[dep - 1] == 0 else label in labels


# --------------------------------------------------------------- training


def test_train_parser_learns_grammar():
    train = make_corpus(150, seed=21)
    heldout = make_corpus(40, seed=22)
    model = train_parser(train, dev=make_corpus(30, seed=23), epochs=5)

    correct = labeled = total = 0
    for sent in heldout.sentences:
        forms = [t.form for t in sent.tokens]
        tags = [t.upos for t in sent.tokens]
        heads, deprels = model.parse(forms, tags)
        for tok, head, deprel in zip(sent.tokens, heads, deprels):
            total += 1
            if head == tok.head:
                correct += 1
                labeled += deprel == tok.deprel
    assert correct / total >= 0.9
    assert labeled / total >= 0.9


def test_train_parser_class_inventory():
    model = train_parser(make_corpus(40, seed=3), epochs=2)
    assert model.root_label == "root"
    assert "root" not in model.labels
    assert SHIFT in model.classes
    assert model.classes == sorted(model.classes)
    for label in model.labels:
        assert f"left:{label}" in model.classes
        assert f"right:{label}" in model.classes


def test_train_parser_majority_root_label():
    doc = parse_conllu(
        "\n".join(
            [
                row(1, 0, "main", "VERB"),
                "",
                row(1, 0, "main", "VERB"),
                "",
                row(1, 0, "top", "VERB"),
            ]
        )
        + "\n\n"
    )
    model = train_parser(doc, epochs=1)
    assert model.root_label == "main"
    heads, deprels = model.parse(["w1", "w2"], ["VERB", "NOUN"])
    assert deprels[heads.index(0)] == "main"


def test_train_parser_deterministic():
    a = train_parser(make_corpus(40, seed=7), dev=make_corpus(10, seed=8), epochs=3)
    b = train_parser(make_corpus(40, seed=7), dev=make_corpus(10, seed=8), epochs=3)
    assert a.weights == b.weights
    assert a.classes == b.classes
    assert a.root_label == b.root_label


def test_train_parser_input_validation():
    corpus = make_corpus(4, seed=1)
    with pytest.raises(DataError, match="empty"):
        train_parser(parse_conllu(""))
    with pytest.raises(DataError, match="epochs"):
        train_parser(corpus, epochs=0)

    broken = make_corpus(4, seed=1)
    broken.sentences[0].tokens[0].head = None
    with pytest.raises(DataError, match="synth-1"):
        train_parser(broken)

    untagged = make_corpus(4, seed=1)
    for tok in untagged.sentences[0].tokens:
        tok.upos = None
    with pytest.raises(DataError, match="no upos"):
        train_parser(untagged)

    # a DEPREL that no parser move can carry, as CoNLL-U reads it
    for deprel in ("", "a b"):
        odd = make_corpus(4, seed=1)
        odd.sentences[1].tokens[0].deprel = deprel
        with pytest.raises(DataError, match=f"synth-2: token 1 has DEPREL {deprel!r}"):
            train_parser(odd, epochs=1)


def test_train_parser_checks_the_dev_data_before_training(monkeypatch):
    updates = []
    real_update = AveragedPerceptron.update

    def counted_update(self, *args):
        updates.append(args)
        real_update(self, *args)

    monkeypatch.setattr(AveragedPerceptron, "update", counted_update)
    dev = make_corpus(10, seed=2)
    dev.sentences[-1].tokens[0].upos = None
    with pytest.raises(DataError, match="synth-10: token 1 .* has no upos"):
        train_parser(make_corpus(40, seed=1), dev=dev, epochs=2)
    assert updates == []
    train_parser(make_corpus(4, seed=1), epochs=1)
    assert updates


def test_train_parser_matches_the_state_machine_reference():
    # The crossing corpora hold trees that projectivize leaves with several
    # root children, where the oracle attaches to the root while only shift
    # is open.
    several_roots = 0
    for make, seed, epochs in [(make_corpus, s, 1 + s % 3) for s in range(6)] + [
        (_crossing_corpus, s, 2) for s in range(6)
    ]:
        doc = make(30, seed)
        several_roots += sum(
            projectivize([0] + [t.head for t in sent.tokens]).count(0) > 2
            for sent in doc.sentences
        )
        model = train_parser(doc, epochs=epochs, seed=seed + 5)
        assert model.weights == reference_train_parser(doc, epochs, seed + 5)
    assert several_roots > 0


def test_train_parser_refuses_an_unset_deprel():
    # parse_conllu reads "_" as no DEPREL, so no parser move may carry it
    odd = make_corpus(4, seed=1)
    odd.sentences[1].tokens[0].deprel = "_"
    with pytest.raises(DataError, match="synth-2: token 1 has DEPREL '_'"):
        train_parser(odd, epochs=1)


def test_synth_templates_are_projective():
    for sent in make_corpus(40, seed=2).sentences:
        heads = [0] + [t.head for t in sent.tokens]
        assert is_projective(heads)


def test_a_model_without_arc_moves_refuses_a_decision():
    """Such a model cannot be built, so no decision finds no arc move."""
    for classes in ([], ["shift"], ["shift", "shift"]):
        with pytest.raises(DataError, match="an arc move"):
            ParserModel(weights={"bias": {"shift": 1.0}}, classes=classes)
