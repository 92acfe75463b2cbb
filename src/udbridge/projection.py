"""Annotation projection: bootstrap annotations for an unannotated language
using a model of a related language.

Three procedures, all leaving the lemma column untouched (a lemma from the
related language is not a lemma of the target language; lemmas come from a
native lemmatizer or manual annotation later):

* direct: run the related-language model straight on the target tokens.
* pivot: word-for-word translate every token into the related language,
  annotate the pivot sentence, copy annotations back by position. With an
  identity translator this degenerates to the direct procedure exactly.
* alignment: given an annotated source text and word alignment links, copy
  annotations along links; target tokens aligned to several source tokens
  use the lowest source index, unaligned tokens get upos=X and empty feats,
  and heads map through the alignment with a root/dep fallback.

Procedures are compared on UPOS accuracy only (the one attribute all three
produce on equal footing), with pairwise Fisher tests on the pooled
correct/incorrect counts.
"""

from dataclasses import dataclass, field
from enum import Enum

from .aligner import AlignmentLink
from .conllu import Document, serialize_conllu
from .depparser import head_cycles
from .errors import DataError
from .evaluation import ContingencyTable2x2, fisher_exact
from .pipeline import PipelineModel, predict_tokens
from .translate import TranslatorClient
from .util import percentage, tsv


class Procedure(Enum):
    DIRECT = "direct"
    PIVOT = "pivot"
    ALIGNMENT = "align"


@dataclass
class TokenProvenance:
    procedure: Procedure
    pivot_word: str | None = None
    link: tuple[int, int] | None = None
    fallback: bool = False


@dataclass
class ProjectedDocument:
    document: Document
    procedure: Procedure
    provenance: list[list[TokenProvenance]]

    def __post_init__(self):
        if len(self.provenance) != len(self.document.sentences):
            raise DataError("provenance must cover every sentence")
        for sent, prov in zip(self.document.sentences, self.provenance):
            if len(prov) != len(sent.tokens):
                raise DataError("provenance must cover every token")


def project_direct(doc: Document, model: PipelineModel) -> ProjectedDocument:
    """Annotate target tokens directly with the related-language model."""
    out = doc.copy()
    provenance = []
    for sent in out.sentences:
        predict_tokens(model, sent.tokens, [t.form for t in sent.tokens])
        provenance.append([TokenProvenance(Procedure.DIRECT) for _ in sent.tokens])
    return ProjectedDocument(document=out, procedure=Procedure.DIRECT, provenance=provenance)


def project_via_pivot(
    doc: Document, model: PipelineModel, translator: TranslatorClient
) -> ProjectedDocument:
    """Translate word-for-word, annotate the pivot, copy back by position."""
    out = doc.copy()
    provenance = []
    for sent in out.sentences:
        forms = [t.form for t in sent.tokens]
        pivot = translator.translate_sentence(forms)
        predict_tokens(model, sent.tokens, pivot.pivot_tokens)
        fallbacks = pivot.fallbacks or [False] * len(forms)
        provenance.append(
            [
                TokenProvenance(
                    Procedure.PIVOT, pivot_word=pivot.pivot_tokens[i], fallback=fallbacks[i]
                )
                for i in range(len(forms))
            ]
        )
    return ProjectedDocument(document=out, procedure=Procedure.PIVOT, provenance=provenance)


def project_via_alignment(
    source: Document,
    target: Document,
    links: list[list[AlignmentLink]],
) -> ProjectedDocument:
    """Copy annotations from an annotated source document along word
    alignment links.

    One sentence's links use 0-based token indices on both sides. A target
    token with several links follows the lowest source index; several
    target tokens on one source share its annotations. Unaligned targets
    get upos=X, empty feats, and root/dep head fallback, as does any token
    whose projected head cannot be mapped (or would self-loop). The lowest
    member of each head cycle (depparser.head_cycles) goes to the root as dep.
    """
    if len(source.sentences) != len(target.sentences):
        raise DataError(
            f"source has {len(source.sentences)} sentences,"
            f" target {len(target.sentences)}"
        )
    if len(links) != len(target.sentences):
        raise DataError("need one link list per sentence")
    out = target.copy()
    provenance = []
    for src_sent, tgt_sent, sent_links in zip(source.sentences, out.sentences, links):
        n_src, n_tgt = len(src_sent.tokens), len(tgt_sent.tokens)
        for link in sent_links:
            if not (0 <= link.source_index < n_src and 0 <= link.target_index < n_tgt):
                raise DataError(
                    f"sentence {tgt_sent.sent_id}: link"
                    f" {link.source_index}-{link.target_index} out of range"
                )
        for tok in src_sent.tokens:
            if tok.upos is None:
                raise DataError(
                    f"sentence {src_sent.sent_id}: source token {tok.id} not annotated"
                )
        # Lowest source index per target; lowest target index per source.
        chosen: dict[int, int] = {}
        for link in sent_links:
            j, i = link.target_index, link.source_index
            if j not in chosen or i < chosen[j]:
                chosen[j] = i
        reverse: dict[int, int] = {}
        for j in sorted(chosen):
            i = chosen[j]
            if i not in reverse:
                reverse[i] = j

        prov = []
        heads: list[int] = [0] * n_tgt
        deprels: list[str] = ["dep"] * n_tgt
        for j, tok in enumerate(tgt_sent.tokens):
            if j in chosen:
                src_tok = src_sent.tokens[chosen[j]]
                tok.upos = src_tok.upos
                tok.xpos = src_tok.xpos
                tok.feats = dict(src_tok.feats)
                prov.append(
                    TokenProvenance(Procedure.ALIGNMENT, link=(chosen[j], j))
                )
                src_head = src_tok.head
                if src_head == 0:
                    heads[j] = 0
                    deprels[j] = src_tok.deprel if src_tok.deprel is not None else "root"
                    continue
                if src_head is not None and (src_head - 1) in reverse:
                    mapped = reverse[src_head - 1]
                    if mapped != j:
                        heads[j] = mapped + 1
                        deprels[j] = src_tok.deprel if src_tok.deprel is not None else "dep"
                        continue
                prov[-1].fallback = True  # head not mappable: root/dep fallback
            else:
                tok.upos = "X"
                tok.xpos = None
                tok.feats = {}
                prov.append(TokenProvenance(Procedure.ALIGNMENT, fallback=True))
        for cycle in head_cycles([0] + heads):
            victim = min(cycle) - 1  # reroot the lowest member
            heads[victim] = 0
            deprels[victim] = "dep"
        for j, tok in enumerate(tgt_sent.tokens):
            tok.head = heads[j]
            tok.deprel = deprels[j]
        provenance.append(prov)
    return ProjectedDocument(
        document=out, procedure=Procedure.ALIGNMENT, provenance=provenance
    )


def score_procedure(gold: Document, projected: ProjectedDocument) -> tuple[int, int, float]:
    """(correct, total, percentage) of UPOS agreement with gold.

    UPOS is the one attribute every procedure emits for every token, so
    comparisons across procedures use it exclusively. Requires identical
    tokenization."""
    system = projected.document
    if len(gold.sentences) != len(system.sentences):
        raise DataError("gold and projected documents differ in sentence count")
    correct = total = 0
    for gs, ss in zip(gold.sentences, system.sentences):
        g_forms = [t.form for t in gs.tokens]
        s_forms = [t.form for t in ss.tokens]
        if g_forms != s_forms:
            raise DataError(
                f"sentence {gs.sent_id}: tokenization differs between gold and projection"
            )
        for gt, st in zip(gs.tokens, ss.tokens):
            if gt.upos is None:
                raise DataError(
                    f"sentence {gs.sent_id}: gold token {gt.id} has no upos"
                )
            total += 1
            correct += gt.upos == st.upos
    if total == 0:
        raise DataError("empty gold document")
    return correct, total, percentage(correct, total)


@dataclass
class ProcedureComparison:
    # (name, correct, total, percentage), in the order given by the caller
    rows: list[tuple[str, int, int, float]] = field(default_factory=list)
    # (better, worse, fisher_p) for consecutive pairs of the accuracy ranking
    pairwise: list[tuple[str, str, float]] = field(default_factory=list)

    def to_tsv(self) -> str:
        return tsv([
            ("procedure", "correct", "total", "percent"),
            *((name, correct, total, f"{pct:.1f}") for name, correct, total, pct in self.rows),
            (),
            ("better", "worse", "fisher_p"),
            *((better, worse, f"{p:.7f}") for better, worse, p in self.pairwise),
        ])


def compare_procedures(
    gold: Document, projections: dict[str, ProjectedDocument]
) -> ProcedureComparison:
    """Score every projection against gold and Fisher-test neighbouring
    pairs of the accuracy ranking (each better procedure vs the next one)."""
    if not projections:
        raise DataError("nothing to compare")
    comparison = ProcedureComparison()
    scored: dict[str, tuple[int, int, float]] = {}
    for name, projected in projections.items():
        scored[name] = score_procedure(gold, projected)
        comparison.rows.append((name, *scored[name]))
    ranking = sorted(scored, key=lambda name: (scored[name][2], name))
    for low, high in zip(ranking, ranking[1:]):
        lo_c, lo_t, _ = scored[low]
        hi_c, hi_t, _ = scored[high]
        p = fisher_exact(
            ContingencyTable2x2(a=hi_c, b=hi_t - hi_c, c=lo_c, d=lo_t - lo_c)
        )
        comparison.pairwise.append((high, low, p))
    return comparison


def serialize_projected(projected: ProjectedDocument) -> str:
    """CoNLL-U export with provenance recorded in MISC (Proj=, Pivot=,
    Link=, Fallback=yes)."""
    doc = projected.document.copy()
    for sent, prov in zip(doc.sentences, projected.provenance):
        for tok, info in zip(sent.tokens, prov):
            entries = [f"Proj={info.procedure.value}"]
            if info.pivot_word is not None:
                entries.append(f"Pivot={info.pivot_word}")
            if info.link is not None:
                entries.append(f"Link={info.link[0]}-{info.link[1]}")
            if info.fallback:
                entries.append("Fallback=yes")
            extra = "|".join(entries)
            tok.misc = extra if tok.misc == "_" else tok.misc + "|" + extra
    return serialize_conllu(doc)
