"""Evaluation: span-F1 scoring, rotating cross-validation, significance tests.

Scoring matches gold and system tokens by identical character spans over
the whitespace-free text (both documents must serialize to the same
character stream). Tokenization quality is span F1; annotation metrics
count agreement on matched tokens, with heads mapped through the token
matching; all values are percentages rounded to one decimal, ties away
from zero. Under gold tokenization every token matches, so the F1 values
reduce to plain accuracies.
"""

import math
import random
import statistics
from dataclasses import dataclass, field

from .conllu import Document
from .errors import DataError
from .parallel import map_jobs
from .pipeline import EvalSetting, annotate
from .util import round_half_up, tsv

METRIC_ORDER = (
    "f1_words",
    "f1_sents",
    "upos",
    "xpos",
    "ufeats",
    "alltags",
    "lemma",
    "uas",
    "las",
)


@dataclass
class _Word:
    span: tuple[int, int]
    lemma: str
    upos: str
    xpos: str
    feats: str
    deprel: str
    head_index: int | None  # global word index of the head; -1 for root; None unset


def _flatten(doc: Document) -> tuple[list[_Word], list[tuple[int, int]], str]:
    """Global char-offset words and sentence spans over whitespace-free text."""
    words: list[_Word] = []
    sent_spans: list[tuple[int, int]] = []
    chars: list[str] = []
    pos = 0
    for sent in doc.sentences:
        base = len(words)
        sent_start = pos
        spans: list[tuple[int, int]] = []
        for form, covered, _ in sent.surface_units():
            surface = "".join(form.split())
            chars.append(surface)
            spans.extend([(pos, pos + len(surface))] * covered)
            pos += len(surface)
        for tok, span in zip(sent.tokens, spans):
            if tok.head is None:
                head_index = None
            elif tok.head == 0:
                head_index = -1
            else:
                head_index = base + tok.head - 1
            lemma, upos, xpos, feats, _, deprel = tok.columns()[2:8]
            words.append(_Word(span, lemma, upos, xpos, feats, deprel, head_index))
        sent_spans.append((sent_start, pos))
    return words, sent_spans, "".join(chars)


def _match_spans(gold: list[tuple[int, int]], system: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """1-1 matching of identical spans between two ordered span lists."""
    matches: list[tuple[int, int]] = []
    gi = si = 0
    while gi < len(gold) and si < len(system):
        g, s = gold[gi], system[si]
        if g == s:
            matches.append((gi, si))
            gi += 1
            si += 1
        elif g[1] <= s[0]:
            gi += 1
        elif s[1] <= g[0]:
            si += 1
        elif g[1] < s[1]:
            gi += 1
        elif s[1] < g[1]:
            si += 1
        else:
            gi += 1
            si += 1
    return matches


@dataclass
class EvalReport:
    setting: EvalSetting
    gold_tokens: int
    system_tokens: int
    matched_tokens: int
    gold_sentences: int
    system_sentences: int
    matched_sentences: int
    f1_words: float | None = None
    f1_sents: float | None = None
    upos: float | None = None
    xpos: float | None = None
    ufeats: float | None = None
    alltags: float | None = None
    lemma: float | None = None
    uas: float | None = None
    las: float | None = None

    def metrics(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in METRIC_ORDER}

    def to_tsv(self) -> str:
        rows = [(k, "" if v is None else format(v, ".1f")) for k, v in self.metrics().items()]
        return tsv([("metric", "value"), *rows])


def _f1(correct: int, gold_total: int, system_total: int) -> float:
    if gold_total + system_total == 0:
        return 0.0
    return round_half_up(200.0 * correct / (gold_total + system_total), 1)


def evaluate(gold: Document, system: Document, setting: EvalSetting) -> EvalReport:
    """Score a system document against gold.

    Both documents must describe the same underlying text (identical after
    whitespace removal); otherwise a DataError is raised. f1_words/f1_sents
    are reported only for RAW_TEXT; GOLD_TOK_MORPH reports only UAS/LAS.
    """
    gold_words, gold_sents, gold_chars = _flatten(gold)
    sys_words, sys_sents, sys_chars = _flatten(system)
    if gold_chars != sys_chars:
        raise DataError(
            "gold and system documents differ in underlying text"
            f" ({len(gold_chars)} vs {len(sys_chars)} chars)"
        )

    matches = _match_spans([w.span for w in gold_words], [w.span for w in sys_words])
    sent_matches = _match_spans(gold_sents, sys_sents)
    sys_to_gold = {si: gi for gi, si in matches}

    counts = dict.fromkeys(("upos", "xpos", "ufeats", "alltags", "lemma", "uas", "las"), 0)
    for gi, si in matches:
        gw, sw = gold_words[gi], sys_words[si]
        upos_ok = gw.upos == sw.upos
        xpos_ok = gw.xpos == sw.xpos
        feats_ok = gw.feats == sw.feats
        counts["upos"] += upos_ok
        counts["xpos"] += xpos_ok
        counts["ufeats"] += feats_ok
        counts["alltags"] += upos_ok and xpos_ok and feats_ok
        counts["lemma"] += gw.lemma == sw.lemma
        if gw.head_index is None or sw.head_index is None:
            head_ok = False
        elif sw.head_index == -1 or gw.head_index == -1:
            head_ok = sw.head_index == gw.head_index
        else:
            head_ok = sys_to_gold.get(sw.head_index) == gw.head_index
        counts["uas"] += head_ok
        counts["las"] += head_ok and gw.deprel == sw.deprel

    ng, ns = len(gold_words), len(sys_words)
    report = EvalReport(
        setting=setting,
        gold_tokens=ng,
        system_tokens=ns,
        matched_tokens=len(matches),
        gold_sentences=len(gold_sents),
        system_sentences=len(sys_sents),
        matched_sentences=len(sent_matches),
        uas=_f1(counts["uas"], ng, ns),
        las=_f1(counts["las"], ng, ns),
    )
    if setting is not EvalSetting.GOLD_TOK_MORPH:
        report.upos = _f1(counts["upos"], ng, ns)
        report.xpos = _f1(counts["xpos"], ng, ns)
        report.ufeats = _f1(counts["ufeats"], ng, ns)
        report.alltags = _f1(counts["alltags"], ng, ns)
        report.lemma = _f1(counts["lemma"], ng, ns)
    if setting is EvalSetting.RAW_TEXT:
        report.f1_words = _f1(len(matches), ng, ns)
        report.f1_sents = _f1(len(sent_matches), len(gold_sents), len(sys_sents))
    return report


@dataclass
class CrossValidationPlan:
    """Rotating schedule: fold i tests on set i, validates on set i+1
    (set 1 when i = k) and trains on the remaining k-2 sets."""

    k: int
    sets: list[list[int]]  # 1-based set number -> original sentence indices

    def fold(self, i: int) -> tuple[int, int, list[int]]:
        """(test_set, validation_set, train_sets), all 1-based, for fold i."""
        if not 1 <= i <= self.k:
            raise DataError(f"fold {i} outside 1..{self.k}")
        test = i
        validation = i % self.k + 1
        train = [j for j in range(1, self.k + 1) if j not in (test, validation)]
        return test, validation, train


def build_cv_plan(n_sentences: int, k: int, seed: int = 0) -> CrossValidationPlan:
    if k < 3:
        raise DataError("cross-validation needs k >= 3 (train sets would vanish)")
    if n_sentences < 2 * k:
        raise DataError(
            f"cross-validation with k={k} needs at least {2 * k} sentences,"
            f" got {n_sentences}"
        )
    order = list(range(n_sentences))
    random.Random(seed).shuffle(order)
    sets: list[list[int]] = [[] for _ in range(k)]
    for pos, sentence_index in enumerate(order):
        sets[pos % k].append(sentence_index)
    return CrossValidationPlan(k=k, sets=sets)


@dataclass
class FoldSummary:
    setting: EvalSetting
    means: dict[str, float] = field(default_factory=dict)
    sds: dict[str, float] = field(default_factory=dict)


def cross_validate(
    corpus: Document,
    k: int,
    train_fn,
    settings: tuple[EvalSetting, ...] = (EvalSetting.GOLD_TOK,),
    seed: int = 0,
) -> tuple[CrossValidationPlan, dict[EvalSetting, list[EvalReport]], dict[EvalSetting, FoldSummary]]:
    """Run the rotating k-fold schedule.

    train_fn(train_doc, dev_doc) must return a trained PipelineModel. The
    per-setting summaries hold mean and sample standard deviation (n-1)
    over the k folds, rounded like the per-fold values. The folds share
    nothing and run through `parallel.map_jobs`, so train_fn may run in a
    forked child: only the reports come back from it.
    """
    plan = build_cv_plan(len(corpus.sentences), k, seed)
    settings = tuple(dict.fromkeys(settings))  # a repeated setting is scored once

    def doc_for(set_numbers: list[int]) -> Document:
        indices = [idx for no in set_numbers for idx in plan.sets[no - 1]]
        return Document(sentences=[corpus.sentences[idx].copy() for idx in indices])

    def run_fold(i: int) -> list[EvalReport]:
        """Train fold i and score its test set, one report per setting."""
        test_no, val_no, train_nos = plan.fold(i)
        test_doc = doc_for([test_no])
        val_doc = doc_for([val_no])
        train_doc = doc_for(train_nos)
        model = train_fn(train_doc, val_doc)
        fold_reports = []
        for setting in settings:
            if setting is EvalSetting.RAW_TEXT:
                source = "\n".join(s.text() for s in test_doc.sentences)
            else:
                source = test_doc
            system = annotate(source, model, setting)
            fold_reports.append(evaluate(test_doc, system, setting))
        return fold_reports

    reports: dict[EvalSetting, list[EvalReport]] = {s: [] for s in settings}
    for fold_reports in map_jobs(run_fold, range(1, k + 1)):
        for setting, report in zip(settings, fold_reports):
            reports[setting].append(report)

    summaries: dict[EvalSetting, FoldSummary] = {}
    for setting in settings:
        summary = FoldSummary(setting=setting)
        for metric in METRIC_ORDER:
            values = [getattr(r, metric) for r in reports[setting]]
            if any(v is None for v in values):
                continue
            summary.means[metric] = round_half_up(statistics.fmean(values), 1)
            summary.sds[metric] = round_half_up(statistics.stdev(values), 1)
        summaries[setting] = summary
    return plan, reports, summaries


def cv_summary_tsv(summaries: dict[EvalSetting, FoldSummary]) -> str:
    """metric rows x (mean, sd) columns per setting; empty cells where a setting lacks it."""
    rows = [["metric", *(f"{s.value}_{stat}" for s in summaries for stat in ("mean", "sd"))]]
    for metric in METRIC_ORDER:
        row = [metric]
        for summary in summaries.values():
            if metric in summary.means:
                row += (format(summary.means[metric], ".1f"), format(summary.sds[metric], ".1f"))
            else:
                row += ("", "")
        if any(row[1:]):
            rows.append(row)
    return tsv(rows)


@dataclass
class ContingencyTable2x2:
    """Row per system: (correct, incorrect) counts."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if v < 0 or v != int(v):
                raise DataError("contingency cells must be non-negative integers")
        if self.a + self.b + self.c + self.d == 0:
            raise DataError("contingency table is all zeros")


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact(table: ContingencyTable2x2) -> float:
    """Two-sided Fisher's exact test.

    Sums hypergeometric probabilities of every table with the same margins
    whose probability does not exceed the observed one (with 1e-12 relative
    slack for float noise in the log-factorials).
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    lo = max(0, c1 - r2)
    hi = min(r1, c1)

    def log_p(x: int) -> float:
        return _log_comb(r1, x) + _log_comb(r2, c1 - x) - _log_comb(n, c1)

    threshold = log_p(a) + math.log1p(1e-12)
    total = 0.0
    for x in range(lo, hi + 1):
        lp = log_p(x)
        if lp <= threshold:
            total += math.exp(lp)
    return min(total, 1.0)


@dataclass
class BootstrapResult:
    median_diff: float
    ci_low: float
    ci_high: float
    p_value: float


def bootstrap_median_compare(
    a: list[float],
    b: list[float],
    iterations: int = 2000,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile-bootstrap comparison of two medians.

    Resamples each group independently, takes the difference of medians,
    reports the observed difference, the 95% percentile interval and
    p = 2 * min(P(diff <= 0), P(diff >= 0)) clamped into (0, 1].
    """
    if len(a) < 5 or len(b) < 5:
        raise DataError("bootstrap needs at least 5 values per sample")
    if iterations < 1000:
        raise DataError("bootstrap needs at least 1000 iterations")
    if not all(math.isfinite(v) for v in (*a, *b)):
        raise DataError("bootstrap needs finite values")
    rng = random.Random(seed)
    diffs = []
    for _ in range(iterations):
        ra = [rng.choice(a) for _ in range(len(a))]
        rb = [rng.choice(b) for _ in range(len(b))]
        diffs.append(statistics.median(ra) - statistics.median(rb))
    diffs.sort()
    lo_idx = max(0, math.ceil(0.025 * iterations) - 1)
    hi_idx = min(iterations - 1, math.ceil(0.975 * iterations) - 1)
    n_le = sum(1 for d in diffs if d <= 0)
    n_ge = sum(1 for d in diffs if d >= 0)
    p = 2.0 * min(n_le, n_ge) / iterations
    p = min(1.0, max(p, 1.0 / iterations))
    return BootstrapResult(
        median_diff=statistics.median(a) - statistics.median(b),
        ci_low=diffs[lo_idx],
        ci_high=diffs[hi_idx],
        p_value=p,
    )
