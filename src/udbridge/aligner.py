"""Word alignment: IBM-1 style EM with a diagonal position prior.

Each target token is generated by one source token or by a null word. The
prior over source positions puts mass null_prob on null and spreads the
rest proportionally to exp(-lambda * |i/n_src - j/n_tgt|); lambda_=0 gives
the classic uniform Model 1. Only the translation table is re-estimated,
so the data log-likelihood is non-decreasing over EM iterations.

Viterbi decoding links every target token to its best source position
unless null scores at least as high (unknown words fall to a floor
probability and therefore to null when null_prob is large). Ties between
real positions go to the smaller source index.
"""

import math
from dataclasses import dataclass, field

from .errors import DataError

NULL_TOKEN = "<null>"
FLOOR_PROB = 1e-9


@dataclass
class SentencePair:
    source: list[str]
    target: list[str]

    def __post_init__(self):
        if not self.source or not self.target:
            raise DataError("sentence pair with an empty side")


@dataclass
class AlignerConfig:
    iterations: int = 5
    lambda_: float = 4.0
    null_prob: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if not 0.0 <= self.null_prob < 1.0:
            raise DataError("null_prob must be in [0, 1)")
        if self.lambda_ < 0:
            raise DataError("lambda_ must be >= 0")


@dataclass
class AlignmentLink:
    source_index: int
    target_index: int


@dataclass
class TranslationTable:
    """t[source_word][target_word] = p(target | source); rows sum to 1."""

    t: dict[str, dict[str, float]] = field(default_factory=dict)
    config: AlignerConfig = field(default_factory=AlignerConfig)
    log_likelihood: list[float] = field(default_factory=list)
    # the position priors of training, which viterbi_align extends; see
    # _priors_by_position
    _priors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def prob(self, source_word: str, target_word: str) -> float:
        return self.t.get(source_word, {}).get(target_word, FLOOR_PROB)

    def dumps(self) -> str:
        """Canonical text form, used for byte-level determinism checks."""
        lines = [
            f"# iterations={self.config.iterations} lambda={self.config.lambda_!r}"
            f" null_prob={self.config.null_prob!r} seed={self.config.seed}"
        ]
        for src in sorted(self.t):
            for tgt in sorted(self.t[src]):
                lines.append(f"{src}\t{tgt}\t{self.t[src][tgt]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TranslationTable":
        table = cls()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            try:
                src, tgt, prob = line.split("\t")
                value = float(prob)
            except ValueError:
                raise DataError(
                    f"translation table line {line_no}: expected"
                    f" source<TAB>target<TAB>probability, got {line!r}"
                ) from None
            table.t.setdefault(src, {})[tgt] = value
        return table


def _total(values) -> float:
    """Left-to-right float sum. Not sum(): from Python 3.12 it rounds
    differently, and the translation table must not depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _position_priors(n_src: int, n_tgt: int, j: int, cfg: AlignerConfig) -> list[float]:
    """Prior over real source positions for target position j; sums to
    1 - null_prob."""
    if cfg.lambda_ == 0.0:
        weights = [1.0] * n_src
    else:
        weights = [
            math.exp(-cfg.lambda_ * abs(i / n_src - j / n_tgt)) for i in range(n_src)
        ]
    z = _total(weights)
    scale = (1.0 - cfg.null_prob) / z
    return [w * scale for w in weights]


def _priors_by_position(cache: dict, n_src: int, n_tgt: int, cfg: AlignerConfig) -> list[list[float]]:
    """The priors for every target position of an n_src x n_tgt pair,
    built once per cache. The key holds the config values the priors
    depend on, so a changed config never reads stale priors."""
    key = (n_src, n_tgt, cfg.lambda_, cfg.null_prob)
    by_position = cache.get(key)
    if by_position is None:
        by_position = cache[key] = [
            _position_priors(n_src, n_tgt, j, cfg) for j in range(n_tgt)
        ]
    return by_position


def train_aligner(bitext: list[SentencePair], cfg: AlignerConfig | None = None) -> TranslationTable:
    """EM-train a translation table on tokenized sentence pairs."""
    if cfg is None:
        cfg = AlignerConfig()
    if not bitext:
        raise DataError("empty bitext")

    use_null = cfg.null_prob > 0.0
    # Uniform init over each source word's co-occurring target words.
    cooc: dict[str, dict[str, float]] = {}
    for pair in bitext:
        sources = list(pair.source) + ([NULL_TOKEN] if use_null else [])
        for src in sources:
            row = cooc.setdefault(src, {})
            for tgt in pair.target:
                row[tgt] = 1.0
    t = {src: {tgt: 1.0 / len(row) for tgt in row} for src, row in cooc.items()}

    pair_priors: dict = {}
    ll_history: list[float] = []
    for _ in range(cfg.iterations):
        counts: dict[str, dict[str, float]] = {src: {} for src in t}
        totals: dict[str, float] = {src: 0.0 for src in t}
        ll = 0.0
        for pair in bitext:
            by_position = _priors_by_position(
                pair_priors, len(pair.source), len(pair.target), cfg
            )
            for j, tgt_word in enumerate(pair.target):
                priors = by_position[j]
                terms: list[tuple[str, float]] = []
                if use_null:
                    terms.append((NULL_TOKEN, cfg.null_prob * t[NULL_TOKEN][tgt_word]))
                for i, src_word in enumerate(pair.source):
                    terms.append((src_word, priors[i] * t[src_word][tgt_word]))
                z = _total(w for _, w in terms)
                ll += math.log(z)
                for src_word, w in terms:
                    gamma = w / z
                    row = counts[src_word]
                    row[tgt_word] = row.get(tgt_word, 0.0) + gamma
                    totals[src_word] += gamma
        t = {
            src: {tgt: c / totals[src] for tgt, c in row.items()}
            for src, row in counts.items()
            if totals[src] > 0.0
        }
        ll_history.append(ll)

    table = TranslationTable(t=t, config=cfg, log_likelihood=ll_history)
    table._priors = pair_priors
    return table


def viterbi_align(table: TranslationTable, pair: SentencePair) -> list[AlignmentLink]:
    """Best link per target token; None (no link) when null wins or ties."""
    cfg = table.config
    use_null = cfg.null_prob > 0.0
    links: list[AlignmentLink] = []
    by_position = _priors_by_position(table._priors, len(pair.source), len(pair.target), cfg)
    for j, tgt_word in enumerate(pair.target):
        priors = by_position[j]
        best_score = cfg.null_prob * table.prob(NULL_TOKEN, tgt_word) if use_null else 0.0
        best_i: int | None = None
        for i, src_word in enumerate(pair.source):
            score = priors[i] * table.prob(src_word, tgt_word)
            if score > best_score:
                best_score = score
                best_i = i
        if best_i is not None:
            links.append(AlignmentLink(source_index=best_i, target_index=j))
    return links


def count_crossings(links: list[AlignmentLink]) -> int:
    """Number of link pairs that cross (a swap the model cannot represent
    monotonically); useful as a reordering diagnostic."""
    n = 0
    for a in range(len(links)):
        for b in range(a + 1, len(links)):
            la, lb = links[a], links[b]
            if (la.source_index - lb.source_index) * (la.target_index - lb.target_index) < 0:
                n += 1
    return n


def read_bitext(text: str) -> list[SentencePair]:
    """One pair per line, sides separated by ' ||| ', tokens by spaces."""
    pairs: list[SentencePair] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if " ||| " not in line:
            raise DataError(f"bitext line {line_no}: missing ' ||| ' separator")
        left, _, right = line.partition(" ||| ")
        source = left.split()
        target = right.split()
        if not source or not target:
            raise DataError(f"bitext line {line_no}: empty side")
        pairs.append(SentencePair(source=source, target=target))
    return pairs


def format_links(links: list[AlignmentLink]) -> str:
    """fast-align style 'src-tgt' pairs, one sentence per line elsewhere."""
    return " ".join(f"{l.source_index}-{l.target_index}" for l in links)


def parse_links(text: str) -> list[AlignmentLink]:
    links = []
    for item in text.split():
        src, sep, tgt = item.partition("-")
        if not sep or not src.isdigit() or not tgt.isdigit():
            raise DataError(f"malformed alignment link {item!r}")
        links.append(AlignmentLink(int(src), int(tgt)))
    return links
