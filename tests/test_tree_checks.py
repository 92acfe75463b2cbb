"""The tree checks against their references in tests/oracles.py: the
linear cycle finder behind validate_tree and the alignment projection's
rerooting, and projectivize's re-check of only what a lift moves."""

import random

import oracles
import pytest
from synth import _crossing_corpus, long_crossing_corpus, make_corpus, random_document

from udbridge.aligner import AlignmentLink
from udbridge.conllu import Document, Sentence, Token
from udbridge.depparser import head_cycles, projectivize, train_parser, validate_tree
from udbridge.errors import DataError
from udbridge.projection import project_via_alignment


def sentence(heads: list[int | None], sent_id: str = "s-1") -> Sentence:
    """A sentence whose token i has head heads[i - 1]."""
    tokens = [
        Token(id=i, form=f"w{i}", upos="NOUN", head=h, deprel="root" if h == 0 else "dep")
        for i, h in enumerate(heads, 1)
    ]
    sent = Sentence(tokens=tokens)
    sent.sent_id = sent_id
    return sent


def outcome(check, sent: Sentence) -> str | None:
    """The DataError message of check(sent), or None if it passes."""
    try:
        check(sent)
    except DataError as err:
        return str(err)
    return None


def random_tree(rng: random.Random, n: int) -> list[int]:
    """1-based heads: each node attached to one placed before it, in a
    shuffled order, so arcs cross anywhere."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    for i, node in enumerate(order[1:], 1):
        heads[node] = rng.choice(order[:i])
    return heads


def random_heads(rng: random.Random, n: int) -> list[int]:
    """1-based heads in 0..n with no self-loop and often a cycle."""
    return [0] + [rng.choice([h for h in range(n + 1) if h != i]) for i in range(1, n + 1)]


def on_cycle(heads: list[int], node: int) -> bool:
    """Whether n steps from node along heads come back to it."""
    walk = node
    for _ in range(len(heads)):
        walk = heads[walk]
        if walk == node:
            return True
        if walk == 0:
            return False
    return False


def check_projectivize(heads: list[int]) -> None:
    before = list(heads)
    assert projectivize(heads) == oracles.projectivize(heads)
    assert heads == before  # the input is not changed


# ------------------------------------------------------------- head_cycles


def test_head_cycles_yields_every_cycle_once():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 30)
        heads = random_heads(rng, n)
        cycles = list(head_cycles(heads))
        members = [node for cycle in cycles for node in cycle]
        assert sorted(members) == [v for v in range(1, n + 1) if on_cycle(heads, v)]
        for cycle in cycles:
            assert [heads[v] for v in cycle] == cycle[1:] + cycle[:1]


def test_head_cycles_lists_a_cycle_from_where_its_walk_entered():
    # the walk from 1 enters the cycle 3 -> 4 -> 3 at 3; 2 hangs off 4
    assert list(head_cycles([0, 3, 4, 4, 3, 0])) == [[3, 4]]
    assert list(head_cycles([0, 2, 0, 2])) == []
    assert list(head_cycles([0, 1])) == [[1]]


def test_head_cycles_on_an_8000_token_chain():
    # token i is headed by i + 1: every walk after the first stops at once,
    # at a node that the walk from token 1 met
    n = 8000
    assert list(head_cycles([0] + [i + 1 for i in range(1, n)] + [0])) == []
    assert list(head_cycles([0] + [i + 1 for i in range(1, n)] + [1])) == [list(range(1, n + 1))]


# ----------------------------------------------------------- validate_tree


def test_validate_tree_names_the_cycle_token_of_the_reference():
    # the walk from token 1 enters the cycle 3 -> 4 -> 3 at token 3
    sent = sentence([3, 4, 4, 3, 0])
    message = "sentence s-1: head cycle through token 3"
    assert outcome(validate_tree, sent) == outcome(oracles.validate_tree, sent) == message


def test_validate_tree_matches_the_reference_on_random_heads():
    rng = random.Random(11)
    failures = 0
    for k in range(600):
        n = rng.randint(1, 12)
        heads = random_heads(rng, n)[1:]
        if rng.random() < 0.1:
            heads[rng.randrange(n)] = None
        sent = sentence(heads, f"r-{k}")
        expected = outcome(oracles.validate_tree, sent)
        assert outcome(validate_tree, sent) == expected
        failures += expected is not None and "cycle" in expected
    assert failures > 50  # the draws hold cycles


def test_validate_tree_names_a_self_loop():
    # the reader refuses a self-loop with this message, and validate_tree
    # checks in-memory sentences with the reader's check
    sent = sentence([2, 2, 0], "loop-1")
    with pytest.raises(DataError, match="sentence loop-1: token 2 is its own head"):
        validate_tree(sent)


@pytest.mark.parametrize(
    "heads, ids, message",
    [
        ([2, 0, 9], [1, 2, 3], "token 3 has head 9 outside 0..3"),
        ([2, 0, -1], [1, 2, 3], "token 3 has head -1 outside 0..3"),
        ([2, 0], [1, 5], "token ids must be consecutive from 1, got 5 at position 2"),
        ([0, 1], [1, 1], "duplicate token id 1"),
    ],
)
def test_bad_ids_and_heads_name_the_sentence(heads, ids, message):
    sent = sentence(heads, "bad-7")
    for tok, i in zip(sent.tokens, ids):
        tok.id = i
    with pytest.raises(DataError, match=f"sentence bad-7: {message}"):
        validate_tree(sent)
    doc = make_corpus(3, seed=1)
    doc.sentences.append(sent)
    with pytest.raises(DataError, match=f"sentence bad-7: {message}"):
        train_parser(doc, epochs=1)


# ------------------------------------------------------------ projectivize


def test_projectivize_matches_the_reference_on_random_trees():
    rng = random.Random(23)
    for _ in range(150):
        check_projectivize(random_tree(rng, rng.randint(1, 60)))


def test_projectivize_matches_the_reference_on_drawn_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def check(seed, n):
        check_projectivize(random_tree(random.Random(seed), n))

    check()


def test_projectivize_matches_the_reference_on_a_long_crossing_sentence():
    sent = long_crossing_corpus(300, seed=3).sentences[0]
    check_projectivize([0] + [tok.head for tok in sent.tokens])


# ---------------------------------------------------------- every corpus


def corpora() -> list[Document]:
    rng = random.Random(41)
    return (
        [make_corpus(60, seed=seed) for seed in (0, 1, 2)]
        + [_crossing_corpus(90, seed=seed) for seed in (1, 7)]
        + [random_document(rng, f"rd{k}") for k in range(80)]
        + [long_crossing_corpus(120, seed=1)]
    )


def test_every_corpus_checks_like_the_reference():
    checked = 0
    for doc in corpora():
        for sent in doc.sentences:
            expected = outcome(oracles.validate_tree, sent)
            assert outcome(validate_tree, sent) == expected
            if expected is None:
                check_projectivize([0] + [tok.head for tok in sent.tokens])
                checked += 1
    assert checked > 380  # every grammar sentence, and some random ones


# ----------------------------------------------------- cycle rerooting


def test_alignment_reroots_like_the_reference():
    # identity links copy the source heads, cycles and all, to the target;
    # the projection reroots the lowest member of each cycle
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 40)
        heads = random_heads(rng, n)[1:]
        source = Document([sentence(heads)])
        target = Document([sentence([None] * n)])
        links = [[AlignmentLink(source_index=i, target_index=i) for i in range(n)]]
        tokens = project_via_alignment(source, target, links).document.sentences[0].tokens
        expected = list(heads)
        deprels = ["root" if h == 0 else "dep" for h in heads]
        oracles._break_cycles(expected, deprels)
        assert [tok.head for tok in tokens] == expected
        assert [tok.deprel for tok in tokens] == deprels
