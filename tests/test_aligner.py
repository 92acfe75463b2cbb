"""Word-aligner tests: EM against an independent dense implementation,
frozen toy-case behavior, Viterbi tie rules, and serialization."""

import hashlib
import random

import pytest
from oracles import em_reference
from synth import make_bitext, make_corpus

from udbridge import aligner
from udbridge.aligner import (
    NULL_TOKEN,
    AlignerConfig,
    AlignmentLink,
    SentencePair,
    TranslationTable,
    count_crossings,
    format_links,
    parse_links,
    read_bitext,
    train_aligner,
    viterbi_align,
)
from udbridge.errors import DataError


def toy_bitext():
    pairs = [SentencePair(["a", "b"], ["x", "y"]) for _ in range(50)]
    pairs += [SentencePair(["a"], ["x"]) for _ in range(50)]
    return pairs


def test_toy_bitext_learns_the_lexicon():
    cfg = AlignerConfig(iterations=20, lambda_=0.0)
    table = train_aligner(toy_bitext(), cfg)
    assert table.prob("a", "x") > 0.9
    assert table.prob("b", "y") > 0.9


def test_single_pair_forces_certainty():
    for iterations in (1, 3, 10):
        table = train_aligner(
            [SentencePair(["a"], ["x"])], AlignerConfig(iterations=iterations, lambda_=0.0)
        )
        assert table.prob("a", "x") == pytest.approx(1.0)


def test_log_likelihood_monotone_on_random_bitext():
    rng = random.Random(5)
    vocab_src = [f"s{i}" for i in range(12)]
    vocab_tgt = [f"t{i}" for i in range(12)]
    pairs = []
    for _ in range(100):
        n = rng.randint(1, 6)
        pairs.append(
            SentencePair(
                [rng.choice(vocab_src) for _ in range(n)],
                [rng.choice(vocab_tgt) for _ in range(n)],
            )
        )
    table = train_aligner(pairs, AlignerConfig(iterations=10))
    lls = table.log_likelihood
    assert len(lls) == 10
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-9


def test_rows_sum_to_one():
    table = train_aligner(toy_bitext(), AlignerConfig(iterations=3, lambda_=0.0))
    for src, row in table.t.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9), src


@pytest.mark.parametrize("lambda_,null_prob", [(0.0, 0.08), (4.0, 0.08), (2.0, 0.0)])
def test_em_agrees_with_dense_reference(lambda_, null_prob):
    corpus = make_corpus(40, seed=3)
    raw = make_bitext(corpus)
    pairs = [SentencePair(list(s), list(t)) for s, t in raw]
    cfg = AlignerConfig(iterations=4, lambda_=lambda_, null_prob=null_prob)
    table = train_aligner(pairs, cfg)
    ref_table, ref_ll = em_reference(raw, iterations=4, lambda_=lambda_, null_prob=null_prob)

    assert len(table.log_likelihood) == len(ref_ll)
    for mine, ref in zip(table.log_likelihood, ref_ll):
        assert mine == pytest.approx(ref, abs=1e-9)

    ref_keys = {(s, t) for (s, t) in ref_table}
    mine_keys = {(s, t) for s, row in table.t.items() for t in row}
    assert mine_keys == ref_keys
    for (s, t), p in ref_table.items():
        assert table.t[s][t] == pytest.approx(p, abs=1e-9), (s, t)


def test_viterbi_toy_alignment():
    table = train_aligner(toy_bitext(), AlignerConfig(iterations=20, lambda_=0.0))
    links = viterbi_align(table, SentencePair(["a", "b"], ["x", "y"]))
    assert {(l.source_index, l.target_index) for l in links} == {(0, 0), (1, 1)}
    links = viterbi_align(table, SentencePair(["a"], ["x"]))
    assert [(l.source_index, l.target_index) for l in links] == [(0, 0)]


def test_viterbi_priors_follow_the_table_config():
    # the diagonal prior splits a repeated word; the uniform one ties it to
    # the first position, so priors cached under the old config would show
    pair = SentencePair(["a", "a"], ["x", "x"])
    table = train_aligner([pair], AlignerConfig(iterations=1, lambda_=4.0))
    links = viterbi_align(table, pair)
    assert [(l.source_index, l.target_index) for l in links] == [(0, 0), (1, 1)]
    table.config = AlignerConfig(iterations=1, lambda_=0.0)
    links = viterbi_align(table, pair)
    assert [(l.source_index, l.target_index) for l in links] == [(0, 0), (0, 1)]


def test_unknown_target_word_goes_to_null():
    table = train_aligner(
        [SentencePair(["a"], ["x"])], AlignerConfig(iterations=2, null_prob=0.5, lambda_=0.0)
    )
    links = viterbi_align(table, SentencePair(["a"], ["zzz"]))
    assert links == []


def test_large_lambda_gives_identity_permutation():
    corpus = make_corpus(60, seed=9)
    pairs = [SentencePair(list(s), list(t)) for s, t in make_bitext(corpus)]
    table = train_aligner(pairs, AlignerConfig(iterations=5, lambda_=12.0))
    for pair in pairs[:20]:
        links = viterbi_align(table, pair)
        assert [(l.source_index, l.target_index) for l in links] == [
            (j, j) for j in range(len(pair.target))
        ]


def test_determinism_table_bytes():
    cfg = AlignerConfig(iterations=5, lambda_=4.0)
    one = train_aligner(toy_bitext(), cfg).dumps()
    two = train_aligner(toy_bitext(), cfg).dumps()
    assert one == two
    roundtripped = TranslationTable.loads(one)
    assert roundtripped.t == train_aligner(toy_bitext(), cfg).t


def test_null_row_exists_only_with_null_mass():
    with_null = train_aligner(toy_bitext(), AlignerConfig(iterations=1))
    assert NULL_TOKEN in with_null.t
    without = train_aligner(toy_bitext(), AlignerConfig(iterations=1, null_prob=0.0))
    assert NULL_TOKEN not in without.t


def test_empty_inputs_rejected():
    with pytest.raises(DataError):
        train_aligner([], AlignerConfig())
    with pytest.raises(DataError):
        SentencePair([], ["x"])
    with pytest.raises(DataError):
        AlignerConfig(iterations=0)
    with pytest.raises(DataError):
        AlignerConfig(null_prob=1.0)


def test_crossing_count():
    links = [AlignmentLink(0, 1), AlignmentLink(1, 0), AlignmentLink(2, 2)]
    assert count_crossings(links) == 1
    assert count_crossings([AlignmentLink(j, j) for j in range(4)]) == 0


def test_bitext_and_link_formats():
    pairs = read_bitext("de man ||| nl_de nl_man\nin hûs ||| nl_in nl_hûs\n")
    assert pairs[0].source == ["de", "man"]
    assert pairs[1].target == ["nl_in", "nl_hûs"]
    with pytest.raises(DataError):
        read_bitext("only one side\n")
    links = parse_links("0-0 2-1")
    assert links == [AlignmentLink(0, 0), AlignmentLink(2, 1)]
    assert format_links(links) == "0-0 2-1"
    with pytest.raises(DataError):
        parse_links("0:0")


def golden_bitext():
    pairs = [SentencePair(list(s), list(t)) for s, t in make_bitext(make_corpus(60, seed=7))]
    # one source word twice in a pair: its cells get two additions per position
    s, t = pairs[0].source, pairs[0].target
    pairs.append(SentencePair([s[0], s[1], s[0]], [t[0], t[1], t[0]]))
    return pairs


# sha256 of dumps() and the log-likelihoods: any change to EM's float
# additions or their order moves them, on every Python version CI runs
@pytest.mark.parametrize(
    "settings,digest,lls",
    [
        (
            {},
            "7a062d29a956bc8a4a934e4a741fa64f7ffb5791d04de3bda47f6ecb3ee7306f",
            [-984.230418407277, -513.1494237820314, -334.82351307517683,
             -300.6637356587177, -293.940552177487],
        ),
        (
            {"null_prob": 0.0},
            "fc52c56452994bd966a7e9fb805504eb1bb7a0a4b2e338c44146520138e969bb",
            [-968.4184949275026, -491.8913977783587, -313.4912810096772,
             -280.7741673939855, -274.8600184121047],
        ),
        (
            {"lambda_": 0.0},
            "3d46718cdede0fba49d4889694b3e8cf5a9fe0988061b2730272cd08e4a3d4d6",
            [-978.0999316599348, -819.148287059805, -702.9746557584727,
             -628.5879401955698, -593.7481893684627],
        ),
        (
            {"iterations": 1},
            "a5829eb10142cd5067b13a3a1db16187abca3452f90d342974645d2c3f4b9e38",
            [-984.230418407277],
        ),
    ],
)
def test_table_bytes_are_golden(settings, digest, lls):
    table = train_aligner(golden_bitext(), AlignerConfig(**settings))
    assert hashlib.sha256(table.dumps().encode()).hexdigest() == digest
    assert repr(table.log_likelihood) == repr(lls)


@pytest.mark.parametrize("line", ["a\tx\tnan", "a\ty\t-3", "b\tx\t1e999", "b\tx\t1.5"])
def test_loads_rejects_a_probability_outside_0_1(line):
    with pytest.raises(DataError, match=r"^translation table line 3: probability"):
        TranslationTable.loads(f"# iterations=1\nb\ty\t1.0\n{line}\n")


def test_loads_reads_the_settings_from_the_header():
    cfg = AlignerConfig(iterations=3, lambda_=0.0, null_prob=0.5, seed=7)
    table = train_aligner(toy_bitext(), cfg)
    assert TranslationTable.loads(table.dumps()).config == cfg
    # a setting the header leaves out, or a missing header, gets its default
    assert TranslationTable.loads("# iterations=2\na\tx\t1.0\n").config == AlignerConfig(2)
    assert TranslationTable.loads("a\tx\t1.0\n").config == AlignerConfig()


def test_loads_accepts_the_bounds():
    table = TranslationTable.loads("a\tx\t0.0\na\ty\t1.0\n")
    assert table.t == {"a": {"x": 0.0, "y": 1.0}}


def test_em_rejects_a_target_word_no_source_can_generate(monkeypatch):
    # valid priors always leave some mass; zero priors stand in for the
    # underflow that would otherwise reach math.log(0)
    def zero_priors(cache, n_src, n_tgt, cfg):
        return [[0.0] * n_src for _ in range(n_tgt)]

    monkeypatch.setattr(aligner, "_priors_by_position", zero_priors)
    with pytest.raises(DataError, match="a 2 x 1 sentence pair has a target word"):
        train_aligner([SentencePair(["a", "b"], ["x"])], AlignerConfig(null_prob=0.0))


def test_table_bytes_without_null_or_prior_are_golden():
    # uniform Model 1 with no null mass: the null word's terms are all 0.0
    table = train_aligner(golden_bitext(), AlignerConfig(lambda_=0.0, null_prob=0.0))
    digest = "fa407226260fc2bb6543a6cea577636fbde06c0864addca2df9d77b2d225c35a"
    assert hashlib.sha256(table.dumps().encode()).hexdigest() == digest
    assert repr(table.log_likelihood) == repr(
        [-961.8192682734717, -804.3971515566345, -689.2952831113905,
         -617.255844644228, -584.7810669349495]
    )
    assert NULL_TOKEN not in table.t


# sha256 of the Viterbi links of golden_bitext() and of its first ten pairs
# with the source side as target, words the table never saw as targets:
# their floor probabilities go to null under enough null mass
@pytest.mark.parametrize(
    "settings,digest,n_links",
    [
        ({}, "96e7cf803f4a073f1bd88a1b12056ac5c8dfcaac5c2c397df58f773635f17e2e", 385),
        ({"null_prob": 0.0}, "96e7cf803f4a073f1bd88a1b12056ac5c8dfcaac5c2c397df58f773635f17e2e", 385),
        ({"lambda_": 0.0}, "5360d379d21257125362987b332369603994f22675d61e99b9e2155605f441a1", 385),
        ({"iterations": 1}, "96e7cf803f4a073f1bd88a1b12056ac5c8dfcaac5c2c397df58f773635f17e2e", 385),
        ({"lambda_": 0.0, "null_prob": 0.0},
         "8ea0574d7cd92fd7ca52d2db34ceb6cb05ced8de3ec7fd2cb00ed84738c580cd", 385),
        ({"null_prob": 0.9}, "7887dc99179a2222d585e3319116911666d30b2d58559f8adc4104d42de5265c", 200),
    ],
)
def test_viterbi_links_are_golden(settings, digest, n_links):
    pairs = golden_bitext()
    table = train_aligner(pairs, AlignerConfig(**settings))
    pairs += [SentencePair(p.source, list(p.source)) for p in pairs[:10]]
    links = [viterbi_align(table, pair) for pair in pairs]
    assert sum(map(len, links)) == n_links
    text = "".join(format_links(pair_links) + "\n" for pair_links in links)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_source_token_named_like_the_null_word_is_refused():
    # the null word is source position 0 of every pair, so a source token
    # of the same name would share its row
    with pytest.raises(DataError, match="source token '<null>' is the name of the null word"):
        SentencePair(["a", NULL_TOKEN], ["x", "y"])
    with pytest.raises(DataError, match=r"^bitext line 2: source token '<null>'"):
        read_bitext("a ||| x\n<null> b ||| y z\n")
    with pytest.raises(DataError, match=r"^bitext line 1: sentence pair with an empty side"):
        read_bitext(" ||| x\n")
    # a target token of that name is an ordinary word
    table = train_aligner([SentencePair(["a"], [NULL_TOKEN])], AlignerConfig(iterations=1))
    assert table.t["a"] == {NULL_TOKEN: 1.0}


def test_loads_keeps_a_source_word_that_starts_with_a_hash():
    # only line 1 is a header; "#tag" used to be dropped as a comment
    table = train_aligner(
        [SentencePair(["#tag", "a"], ["x", "y"]), SentencePair(["a"], ["x"])],
        AlignerConfig(iterations=2),
    )
    loaded = TranslationTable.loads(table.dumps())
    assert loaded.t == table.t and "#tag" in loaded.t
