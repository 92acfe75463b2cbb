"""Word alignment: IBM-1 style EM with a diagonal position prior.

Each target token is generated by one source token or by the null word,
which is source position 0 of every pair (Brown et al. 1993), so a source
token spelled NULL_TOKEN is refused. The prior over source positions puts
mass null_prob on null and spreads the rest proportionally to
exp(-lambda * |i/n_src - j/n_tgt|); lambda_=0 gives the classic uniform
Model 1. Only the translation table is re-estimated, so the data
log-likelihood is non-decreasing over EM iterations.

Viterbi decoding links every target token to its best source position
unless null scores at least as high (unknown words fall to a floor
probability and therefore to null when null_prob is large). Ties between
real positions go to the smaller source index.
"""

import functools
import math
import operator
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
        if NULL_TOKEN in self.source:
            raise DataError(f"source token {NULL_TOKEN!r} is the name of the null word")


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
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise DataError(f"lambda must be a finite number >= 0, got {self.lambda_!r}")


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
        settings = [f"{key}={getattr(self.config, name)!r}" for key, (name, _) in _HEADER_KEYS.items()]
        lines = ["# " + " ".join(settings)]
        lines.extend(
            f"{src}\t{tgt}\t{prob!r}"
            for src, row in sorted(self.t.items())
            for tgt, prob in sorted(row.items())
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TranslationTable":
        """Read dumps() output. The settings come from the first-line
        header; a setting it leaves out, or a missing header, gets its
        default. Only line 1 is a header: a later line that starts with
        "#" is a row, such as one of the source word "#tag"."""
        table = cls()
        lines = text.splitlines()
        if lines and lines[0].startswith("#"):
            table.config = _read_header(lines[0])
        for line_no, line in enumerate(lines, start=1):
            if not line or (line_no == 1 and line.startswith("#")):
                continue
            try:
                src, tgt, prob = line.split("\t")
                value = float(prob)
            except ValueError:
                raise DataError(
                    f"translation table line {line_no}: expected"
                    f" source<TAB>target<TAB>probability, got {line!r}"
                ) from None
            if not 0.0 <= value <= 1.0:
                raise DataError(
                    f"translation table line {line_no}: probability {prob!r}"
                    f" is not a number in [0, 1]"
                )
            table.t.setdefault(src, {})[tgt] = value
        return table


# header key -> (AlignerConfig field, type)
_HEADER_KEYS = {
    "iterations": ("iterations", int),
    "lambda": ("lambda_", float),
    "null_prob": ("null_prob", float),
    "seed": ("seed", int),
}


def _read_header(line: str) -> AlignerConfig:
    """The settings in a `# iterations=N lambda=X null_prob=P seed=S` line."""
    bad = DataError(
        "translation table line 1: expected '# iterations=N lambda=X null_prob=P"
        f" seed=S', got {line!r}"
    )
    settings = {}
    for item in line[1:].split():
        key, sep, value = item.partition("=")
        if not sep or key not in _HEADER_KEYS or _HEADER_KEYS[key][0] in settings:
            raise bad
        name, kind = _HEADER_KEYS[key]
        try:
            settings[name] = kind(value)
        except ValueError:
            raise bad from None
    try:
        return AlignerConfig(**settings)
    except DataError as err:
        raise DataError(f"translation table line 1: {err}") from None


def _position_priors(n_src: int, n_tgt: int, j: int, cfg: AlignerConfig) -> list[float]:
    """Prior over the source positions of target position j, null first:
    null_prob, then the real positions, which share 1 - null_prob. With
    lambda_=0 every weight is exp(-0.0) == 1.0, uniform Model 1."""
    weights = [math.exp(-cfg.lambda_ * abs(i / n_src - j / n_tgt)) for i in range(n_src)]
    # left to right, not sum(): from Python 3.12 sum() rounds differently,
    # and the translation table must not depend on the version
    z = functools.reduce(operator.add, weights, 0.0)
    # a weight sum that underflowed to 0, or so near 0 that the scale
    # overflows, would make every prior 0, inf or nan
    scale = (1.0 - cfg.null_prob) / z if z > 0.0 else math.inf
    if math.isinf(scale):
        raise DataError(
            f"lambda={cfg.lambda_!r} leaves target position {j + 1} of a"
            f" {n_src} x {n_tgt} sentence pair no prior mass; use a smaller lambda"
        )
    return [cfg.null_prob] + [w * scale for w in weights]


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
    """EM-train a translation table on tokenized sentence pairs.

    The (source, target) cells are fixed by the co-occurrence pass, so they
    are numbered once, each target position is planned once as a list of
    cell ids, and every iteration runs on flat float lists. Each cell gets
    its float additions in visiting order (pair, target position, then
    source position, the null word at 0), so the table bytes do not depend
    on this layout. Under null_prob=0 the null word's terms are 0.0: they
    add nothing to a sum, and its row, with a total of 0, is dropped."""
    if cfg is None:
        cfg = AlignerConfig()
    if not bitext:
        raise DataError("empty bitext")

    # cells[src][tgt] is the id of a co-occurring cell, source_ids[src] the
    # id of a source word and cell_source[cell] that of the cell's source.
    # The plan holds, per pair, the pair (for errors), its source ids and,
    # per target position, the priors (the lists _priors_by_position
    # caches) and the cells, the null word first.
    cells: dict[str, dict[str, int]] = {}
    source_ids: dict[str, int] = {}
    cell_source: list[int] = []
    pair_priors: dict = {}
    plan = []
    for pair in bitext:
        rows, srcs = [], []
        for src in [NULL_TOKEN] + pair.source:
            row = cells.get(src)
            if row is None:
                row = cells[src] = {}
                source_ids[src] = len(source_ids)
            source_id = source_ids[src]
            for tgt in pair.target:
                if tgt not in row:
                    row[tgt] = len(cell_source)
                    cell_source.append(source_id)
            rows.append(row)
            srcs.append(source_id)
        by_position = _priors_by_position(
            pair_priors, len(pair.source), len(pair.target), cfg
        )
        positions = [
            (priors, [row[tgt] for row in rows])
            for tgt, priors in zip(pair.target, by_position)
        ]
        plan.append((pair, srcs, positions))
    # Uniform init over each source word's co-occurring target words.
    row_sizes = [len(row) for row in cells.values()]
    p = [1.0 / row_sizes[source_id] for source_id in cell_source]

    ll_history: list[float] = []
    for _ in range(cfg.iterations):
        counts = [0.0] * len(cell_source)
        totals = [0.0] * len(source_ids)
        p_of = p.__getitem__
        ll = 0.0
        for pair, srcs, positions in plan:
            for priors, cell_ids in positions:
                terms = list(map(operator.mul, priors, map(p_of, cell_ids)))
                # left-to-right additions, as in _position_priors
                z = functools.reduce(operator.add, terms)
                if z == 0.0:
                    raise DataError(
                        f"a {len(pair.source)} x {len(pair.target)} sentence pair"
                        f" has a target word with probability 0 under every"
                        f" source word (lambda={cfg.lambda_!r}); use a smaller lambda"
                    )
                ll += math.log(z)
                for cell, src, w in zip(cell_ids, srcs, terms):
                    gamma = w / z
                    counts[cell] += gamma
                    totals[src] += gamma
        ll_history.append(ll)
        # Free the old p before building the new one, and the plan and the
        # counts before building the table: either pair held at once would
        # set the peak memory. A source whose total is 0 has only zero
        # counts, so its cells stay 0.
        del p, p_of
        divisors = [total or 1.0 for total in totals]
        p = [c / divisors[s] for c, s in zip(counts, cell_source)]
    del plan, counts

    # Drop a source whose total is 0, as its row would not sum to 1.
    t = {
        src: {tgt: p[cell] for tgt, cell in row.items()}
        for (src, row), total in zip(cells.items(), totals)
        if total > 0.0
    }
    table = TranslationTable(t=t, config=cfg, log_likelihood=ll_history)
    table._priors = pair_priors
    return table


def viterbi_align(table: TranslationTable, pair: SentencePair) -> list[AlignmentLink]:
    """Best link per target token; None (no link) when null wins or ties."""
    cfg = table.config
    links: list[AlignmentLink] = []
    by_position = _priors_by_position(table._priors, len(pair.source), len(pair.target), cfg)
    for j, tgt_word in enumerate(pair.target):
        priors = by_position[j]
        best_score = priors[0] * table.prob(NULL_TOKEN, tgt_word)
        best_i: int | None = None
        for i, src_word in enumerate(pair.source):
            score = priors[i + 1] * table.prob(src_word, tgt_word)
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
        try:
            pairs.append(SentencePair(source=left.split(), target=right.split()))
        except DataError as err:
            raise DataError(f"bitext line {line_no}: {err}") from None
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
