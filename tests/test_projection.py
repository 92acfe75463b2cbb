import pytest

from oracles import acc_1dec, brute_upos_score
from synth import make_corpus, pivot_lexicon, strip_annotations
from udbridge.aligner import AlignmentLink
from udbridge.conllu import parse_conllu, serialize_conllu
from udbridge.errors import DataError
from udbridge.evaluation import ContingencyTable2x2, fisher_exact
from udbridge.pipeline import EvalSetting, annotate, train_pipeline
from udbridge.projection import (
    Procedure,
    ProcedureComparison,
    ProjectedDocument,
    TokenProvenance,
    compare_procedures,
    project_direct,
    project_via_alignment,
    project_via_pivot,
    score_procedure,
    serialize_projected,
)
from udbridge.translate import IdentityBackend, StaticLexiconBackend, TranslatorClient


def to_pivot_corpus(doc):
    """Rewrite a corpus into its word-for-word pivot-language twin."""
    lexicon = pivot_lexicon()
    out = doc.copy()
    for sent in out.sentences:
        for tok in sent.tokens:
            tok.form = lexicon[tok.form]
            tok.lemma = "nl_" + tok.lemma if tok.lemma != "." else "."
    return out


@pytest.fixture(scope="module")
def fy_model():
    return train_pipeline(make_corpus(150, seed=30), epochs=3)


@pytest.fixture(scope="module")
def nl_model():
    return train_pipeline(to_pivot_corpus(make_corpus(150, seed=30)), epochs=3)


def diagonal_links(doc):
    return [
        [AlignmentLink(source_index=i, target_index=i) for i in range(len(s.tokens))]
        for s in doc.sentences
    ]


# -------------------------------------------------------- pivot identity


def test_identity_pivot_equals_direct(fy_model):
    doc = strip_annotations(make_corpus(60, seed=31))
    direct = project_direct(doc, fy_model)
    pivot = project_via_pivot(doc, fy_model, TranslatorClient(IdentityBackend()))
    assert serialize_conllu(direct.document) == serialize_conllu(pivot.document)
    for sent_prov in pivot.provenance:
        for info in sent_prov:
            assert info.procedure is Procedure.PIVOT
            assert not info.fallback


def test_lemma_is_never_projected(fy_model):
    doc = make_corpus(8, seed=32)
    for sent in doc.sentences:
        for tok in sent.tokens:
            tok.lemma = "KEEPME"

    outputs = [
        project_direct(doc, fy_model).document,
        project_via_pivot(doc, fy_model, TranslatorClient(IdentityBackend())).document,
        project_via_alignment(make_corpus(8, seed=32), doc, diagonal_links(doc)).document,
    ]
    for out in outputs:
        assert all(t.lemma == "KEEPME" for s in out.sentences for t in s.tokens)


def test_direct_projection_predicts_like_gold_tok_annotation(fy_model):
    doc = make_corpus(40, seed=33)
    annotated = annotate(doc, fy_model, EvalSetting.GOLD_TOK)
    projected = project_direct(doc, fy_model).document
    pairs = zip(doc.tokens(), annotated.tokens(), projected.tokens(), strict=True)
    for gold, ann, proj in pairs:
        assert (proj.upos, proj.xpos, proj.feats, proj.head, proj.deprel) == (
            ann.upos, ann.xpos, ann.feats, ann.head, ann.deprel
        )
        assert proj.lemma == gold.lemma


def test_pivot_through_lexicon(nl_model):
    gold = make_corpus(20, seed=33)
    doc = strip_annotations(gold)
    translator = TranslatorClient(StaticLexiconBackend(pivot_lexicon()))
    projected = project_via_pivot(doc, nl_model, translator)

    correct, total, pct = score_procedure(gold, projected)
    assert pct >= 98.0
    for sent_prov in projected.provenance:
        for info in sent_prov:
            assert info.pivot_word == "." or info.pivot_word.startswith("nl_")


# ------------------------------------------------------------- alignment


SRC_ROWS = (
    "1\tnl_de\t_\tDET\tlw\t_\t2\tdet\t_\t_",
    "2\tnl_man\t_\tNOUN\tn\tNumber=Sing\t3\tnsubj\t_\t_",
    "3\tnl_rint\t_\tVERB\tww\t_\t0\troot\t_\t_",
)
TGT_ROWS = (
    "1\tde\t_\t_\t_\t_\t_\t_\t_\t_",
    "2\tman\t_\t_\t_\t_\t_\t_\t_\t_",
    "3\trint\t_\t_\t_\t_\t_\t_\t_\t_",
)


def docs():
    return parse_conllu("\n".join(SRC_ROWS) + "\n"), parse_conllu("\n".join(TGT_ROWS) + "\n")


def test_alignment_copies_annotations_and_heads():
    source, target = docs()
    links = [[AlignmentLink(source_index=i, target_index=i) for i in range(3)]]
    projected = project_via_alignment(source, target, links)
    toks = projected.document.sentences[0].tokens
    assert [t.upos for t in toks] == ["DET", "NOUN", "VERB"]
    assert [t.xpos for t in toks] == ["lw", "n", "ww"]
    assert toks[1].feats == {"Number": "Sing"}
    assert [t.head for t in toks] == [2, 3, 0]
    assert [t.deprel for t in toks] == ["det", "nsubj", "root"]
    assert projected.provenance[0][0].link == (0, 0)
    assert not any(info.fallback for info in projected.provenance[0])
    # lemma column untouched
    assert all(t.lemma is None for t in toks)


def test_alignment_prefers_lowest_source_index():
    source, target = docs()
    links = [
        [
            AlignmentLink(source_index=2, target_index=0),
            AlignmentLink(source_index=0, target_index=0),
            AlignmentLink(source_index=1, target_index=1),
            AlignmentLink(source_index=2, target_index=2),
        ]
    ]
    projected = project_via_alignment(source, target, links)
    toks = projected.document.sentences[0].tokens
    assert toks[0].upos == "DET"
    assert projected.provenance[0][0].link == (0, 0)


def test_alignment_unaligned_target_fallback():
    source, target = docs()
    links = [
        [
            AlignmentLink(source_index=0, target_index=0),
            AlignmentLink(source_index=2, target_index=2),
        ]
    ]
    projected = project_via_alignment(source, target, links)
    tok = projected.document.sentences[0].tokens[1]
    assert tok.upos == "X"
    assert tok.xpos is None
    assert tok.feats == {}
    assert tok.head == 0 and tok.deprel == "dep"
    info = projected.provenance[0][1]
    assert info.fallback and info.link is None


def test_alignment_unmappable_head_fallback():
    source, target = docs()
    # token 1's head (source token 2) is not aligned to anything
    links = [
        [
            AlignmentLink(source_index=0, target_index=0),
            AlignmentLink(source_index=2, target_index=2),
        ]
    ]
    projected = project_via_alignment(source, target, links)
    tok = projected.document.sentences[0].tokens[0]
    assert tok.upos == "DET"        # annotations still copied
    assert tok.head == 0 and tok.deprel == "dep"
    info = projected.provenance[0][0]
    assert info.fallback and info.link == (0, 0)


def test_alignment_breaks_head_cycles():
    source, target = docs()
    # rewire the source so the projected heads form a 2-cycle
    source.sentences[0].tokens[0].head = 2
    source.sentences[0].tokens[1].head = 1
    source.sentences[0].tokens[2].head = 0
    links = [
        [
            AlignmentLink(source_index=0, target_index=0),
            AlignmentLink(source_index=1, target_index=1),
        ]
    ]
    projected = project_via_alignment(source, target, links)
    toks = projected.document.sentences[0].tokens
    # lowest cycle member is rerooted, the other keeps its projected head
    assert toks[0].head == 0 and toks[0].deprel == "dep"
    assert toks[1].head == 1


def test_alignment_self_loop_falls_back():
    source, target = docs()
    source.sentences[0].tokens[0].head = 1  # in-memory self-loop
    links = [[AlignmentLink(source_index=0, target_index=0)]]
    projected = project_via_alignment(source, target, links)
    tok = projected.document.sentences[0].tokens[0]
    assert tok.head == 0 and tok.deprel == "dep"
    assert projected.provenance[0][0].fallback


def test_alignment_input_validation():
    source, target = docs()
    with pytest.raises(DataError, match="out of range"):
        project_via_alignment(source, target, [[AlignmentLink(source_index=3, target_index=0)]])
    with pytest.raises(DataError, match="one link list per sentence"):
        project_via_alignment(source, target, [])
    two = parse_conllu("\n".join(TGT_ROWS) + "\n\n" + "\n".join(TGT_ROWS) + "\n")
    with pytest.raises(DataError, match="sentences"):
        project_via_alignment(source, two, diagonal_links(two))
    bare_source = parse_conllu("\n".join(TGT_ROWS) + "\n")
    with pytest.raises(DataError, match="not annotated"):
        project_via_alignment(bare_source, target, diagonal_links(target))


def test_provenance_shape_is_checked():
    _, target = docs()
    with pytest.raises(DataError, match="every sentence"):
        ProjectedDocument(document=target, procedure=Procedure.DIRECT, provenance=[])
    with pytest.raises(DataError, match="every token"):
        ProjectedDocument(
            document=target,
            procedure=Procedure.DIRECT,
            provenance=[[TokenProvenance(Procedure.DIRECT)]],
        )


# ---------------------------------------------------------------- scoring


def test_score_procedure_matches_brute_force(fy_model):
    gold = make_corpus(40, seed=35)
    projected = project_direct(strip_annotations(gold), fy_model)
    assert score_procedure(gold, projected) == brute_upos_score(gold, projected.document)


def test_score_procedure_validation(fy_model):
    gold = make_corpus(4, seed=35)
    projected = project_direct(strip_annotations(gold), fy_model)

    other = make_corpus(5, seed=35)
    with pytest.raises(DataError, match="sentence count"):
        score_procedure(other, projected)

    mutated = make_corpus(4, seed=35)
    mutated.sentences[0].tokens[0].form = "oars"
    with pytest.raises(DataError, match="tokenization differs"):
        score_procedure(mutated, projected)

    headless = make_corpus(4, seed=35)
    headless.sentences[0].tokens[0].upos = None
    with pytest.raises(DataError, match="no upos"):
        score_procedure(headless, projected)


def hand_projection(gold, wrong: int) -> ProjectedDocument:
    doc = gold.copy()
    flat = [t for s in doc.sentences for t in s.tokens]
    for tok in flat[:wrong]:
        tok.upos = "X" if tok.upos != "X" else "NOUN"
    provenance = [
        [TokenProvenance(Procedure.DIRECT) for _ in s.tokens] for s in doc.sentences
    ]
    return ProjectedDocument(document=doc, procedure=Procedure.DIRECT, provenance=provenance)


def test_compare_procedures_ranking_and_fisher():
    gold = make_corpus(10, seed=36)
    total = sum(len(s.tokens) for s in gold.sentences)
    projections = {
        "align": hand_projection(gold, 12),
        "direct": hand_projection(gold, 2),
        "pivot": hand_projection(gold, 6),
    }
    comparison = compare_procedures(gold, projections)

    assert [row[0] for row in comparison.rows] == ["align", "direct", "pivot"]
    by_name = {name: (c, t, pct) for name, c, t, pct in comparison.rows}
    assert by_name["direct"] == (total - 2, total, acc_1dec(total - 2, total))

    # ascending accuracy ranking: align < pivot < direct
    assert [(b, w) for b, w, _ in comparison.pairwise] == [
        ("pivot", "align"),
        ("direct", "pivot"),
    ]
    expected_p = fisher_exact(
        ContingencyTable2x2(total - 2, 2, total - 6, 6)
    )
    assert comparison.pairwise[1][2] == expected_p


def test_compare_procedures_tie_breaks_by_name():
    gold = make_corpus(6, seed=36)
    projections = {
        "b_proc": hand_projection(gold, 3),
        "a_proc": hand_projection(gold, 3),
    }
    comparison = compare_procedures(gold, projections)
    assert [(b, w) for b, w, _ in comparison.pairwise] == [("b_proc", "a_proc")]
    with pytest.raises(DataError, match="nothing to compare"):
        compare_procedures(gold, {})


def test_comparison_tsv_shape():
    gold = make_corpus(6, seed=36)
    comparison = compare_procedures(
        gold, {"direct": hand_projection(gold, 0), "pivot": hand_projection(gold, 4)}
    )
    lines = comparison.to_tsv().splitlines()
    assert lines[0] == "procedure\tcorrect\ttotal\tpercent"
    assert lines[3] == ""
    assert lines[4] == "better\tworse\tfisher_p"
    name, correct, total, pct = lines[1].split("\t")
    float(pct)
    better, worse, p = lines[5].split("\t")
    assert (better, worse) == ("direct", "pivot")
    assert len(p.split(".")[1]) == 7


# ------------------------------------------------------------- provenance


def test_serialize_projected_misc_entries(fy_model):
    doc = strip_annotations(make_corpus(4, seed=37))
    direct = project_direct(doc, fy_model)
    text = serialize_projected(direct)
    assert "Proj=direct" in text
    # plain serialization carries no provenance
    assert "Proj=" not in serialize_conllu(direct.document)
    # SpaceAfter=No from tokenization is preserved alongside provenance
    assert "SpaceAfter=No|Proj=direct" in text

    pivot = project_via_pivot(doc, fy_model, TranslatorClient(IdentityBackend()))
    assert "Proj=pivot|Pivot=" in serialize_projected(pivot)

    source, target = docs()
    links = [[AlignmentLink(source_index=0, target_index=0)]]
    aligned = serialize_projected(project_via_alignment(source, target, links))
    assert "Proj=align|Link=0-0|Fallback=yes" in aligned  # head unmappable here
    assert "Proj=align|Fallback=yes" in aligned           # unaligned tokens
