"""Seeded synthetic inputs for the benchmark.

Two languages come out of one generator. L1 is the related, well-resourced
language the pipeline model is trained on. L2 is the low-resource target:
the same trees with every word respelled by a fixed sound shift, and with
some adjectives placed after their noun. The properties the system's speed
depends on are parameters (here and in `inputs.SIZES`), and the benchmark
reports what a generated input actually has, so a claim that a change helps
inputs with property X can cite the share:

- vocabulary: Zipf-distributed lexemes; training text only draws from the
  `train_vocab` most frequent ranks, evaluation text from all of them, so
  held-out text has out-of-vocabulary (OOV) forms;
- ambiguous forms: a share of verb and adjective stems are noun stems,
  so plural verbs and plain adjectives share a surface form with nouns;
- sentence length: clause chains of 1-3 clauses, plus a tail of run-on
  sentences of 200-800 tokens, and a share of sentences with a leaf moved
  so that its arc crosses another (non-projective);
- lexicon coverage: the L2->L1 word list covers a share of L2 word types;
- bitext size: aligner training pairs per target sentence;
- request size: sentences per service request.

Everything is drawn from `random.Random(seed)`; the same seed gives the
same bytes.
"""

import bisect
import itertools
import random
from dataclasses import dataclass

from udbridge.conllu import Document, Sentence, Token

_ONSETS = ["b", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "w",
           "bl", "br", "dr", "fl", "gr", "kl", "kr", "sk", "sl", "sp", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ie", "oa", "ea", "ei", "ou"]
_CODAS = ["", "", "", "k", "l", "m", "n", "p", "r", "s", "t", "ch", "ng", "rd", "st"]

DETS = [("de", {"Definite": "Def"}), ("it", {"Definite": "Def"}),
        ("in", {"Definite": "Ind"}), ("dizze", {"Definite": "Def", "PronType": "Dem"}),
        ("elke", {"PronType": "Tot"})]
ADPS = ["yn", "op", "mei", "fan", "nei", "oan", "troch", "foar", "by", "om"]
PRONS = [("hy", "Sing", "3"), ("sy", "Sing", "3"), ("ik", "Sing", "1"),
         ("wy", "Plur", "1"), ("jo", "Plur", "2")]
CCONJS = ["en", "mar", "of"]
XPOS = {"NOUN": "n", "PROPN": "spec", "VERB": "ww", "ADJ": "adj", "ADV": "bw",
        "DET": "lw", "ADP": "vz", "PRON": "vnw", "CCONJ": "vg", "PUNCT": "let"}

# L2 respelling: a fixed vowel shift; closed-class words get their own list.
_SHIFT = str.maketrans({"a": "e", "e": "i", "i": "y", "o": "u", "u": "o"})
_CLOSED_L2 = {"de": "di", "it": "et", "in": "en", "dizze": "disse", "elke": "alke",
              "yn": "in", "op": "up", "mei": "mit", "fan": "van", "nei": "noa",
              "oan": "un", "troch": "dwers", "foar": "fur", "by": "bij", "om": "umme",
              "hy": "hi", "sy": "si", "ik": "ich", "wy": "wi", "jo": "ji",
              "en": "un", "mar": "mer", "of": "off"}


def l2_form(form: str) -> str:
    """The L2 spelling of an L1 form (case kept on the first letter)."""
    low = form.lower()
    out = _CLOSED_L2.get(low)
    if out is None:
        out = low.translate(_SHIFT) if low.isalpha() else low
    if form[:1].isupper():
        out = out[:1].upper() + out[1:]
    return out


@dataclass(frozen=True)
class Params:
    """Knobs of one generated input set (see the module docstring)."""

    nouns: int = 3000
    verbs: int = 600
    adjs: int = 400
    advs: int = 60
    propns: int = 200
    train_vocab: int = 1200      # open-class ranks the training text draws from
    zipf_s: float = 1.05
    ambiguous_share: float = 0.15  # verb and adjective stems that are noun stems
    long_sentences: int = 0      # run-ons of 200-800 tokens per corpus
    nonproj_share: float = 0.1   # sentences with one word moved to cross an arc
    adj_after_share: float = 0.5  # L2 noun phrases with the adjective moved after
    lexicon_coverage: float = 0.85  # L2 word types in the pivot lexicon


class _Zipf:
    def __init__(self, items: list, s: float):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(items) + 1)))

    def draw(self, rng: random.Random, limit: int | None = None):
        """A Zipf draw, from the `limit` most frequent items if given."""
        n = len(self.cum) if limit is None else min(limit, len(self.cum))
        k = bisect.bisect_left(self.cum, rng.random() * self.cum[n - 1], 0, n)
        return self.items[min(k, n - 1)]


@dataclass
class _Tok:
    form: str
    lemma: str
    upos: str
    feats: dict
    deprel: str = "dep"
    head: "_Tok | None" = None


class Language:
    """An L1 lexicon with Zipf samplers, and a sentence generator on it."""

    def __init__(self, seed: int, params: Params):
        self.p = params
        rng = random.Random(f"lexicon/{seed}")
        seen: set[str] = set(_CLOSED_L2) | set(CCONJS)

        def stems(n: int, min_syl: int = 1) -> list[str]:
            out = []
            while len(out) < n:
                syl = rng.randint(min_syl, 3)
                stem = "".join(
                    rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                    for _ in range(syl)
                )
                if stem not in seen and len(stem) >= 3:
                    seen.add(stem)
                    out.append(stem)
            return out

        noun_stems = stems(params.nouns)
        # Shared stems make a plain adjective look like a singular noun and a
        # plural verb like a plural noun; they are taken from frequent nouns
        # and spread over the other lexicons' frequency ranks.
        n_verb = int(params.verbs * params.ambiguous_share)
        n_adj = int(params.adjs * params.ambiguous_share)
        verb_stems = noun_stems[0 : 4 * n_verb : 4] + stems(params.verbs - n_verb)
        adj_stems = noun_stems[1 : 4 * n_adj : 4] + stems(params.adjs - n_adj)
        rng.shuffle(verb_stems)
        rng.shuffle(adj_stems)
        self.nouns = _Zipf(noun_stems, params.zipf_s)
        self.verbs = _Zipf(verb_stems, params.zipf_s)
        self.adjs = _Zipf(adj_stems, params.zipf_s)
        self.advs = _Zipf(stems(params.advs, 2), params.zipf_s)
        self.propns = _Zipf([s.capitalize() for s in stems(params.propns, 2)], params.zipf_s)

    # ------------------------------------------------------------ phrases

    def _noun_phrase(self, rng, limit, deprel, depth=0) -> tuple[list[_Tok], _Tok, str]:
        stem = self.nouns.draw(rng, limit)
        number = "Plur" if rng.random() < 0.3 else "Sing"
        noun = _Tok(stem + ("en" if number == "Plur" else ""), stem, "NOUN",
                    {"Number": number}, deprel)
        toks: list[_Tok] = []
        if rng.random() < 0.85:
            form, feats = rng.choice(DETS)
            toks.append(_Tok(form, form, "DET", dict(feats), "det", noun))
        for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
            adj = self.adjs.draw(rng, limit)
            infl = rng.random() < 0.5
            toks.append(_Tok(adj + ("e" if infl else ""), adj, "ADJ",
                             {"Degree": "Pos"}, "amod", noun))
        toks.append(noun)
        if depth == 0 and rng.random() < 0.2:
            pp, pp_head = self._prep_phrase(rng, limit, "nmod", depth + 1)
            pp_head.head = noun
            toks.extend(pp)
        return toks, noun, number

    def _prep_phrase(self, rng, limit, deprel, depth=0) -> tuple[list[_Tok], _Tok]:
        np_toks, noun, _ = self._noun_phrase(rng, limit, deprel, depth)
        adp = rng.choice(ADPS)
        return [_Tok(adp, adp, "ADP", {}, "case", noun)] + np_toks, noun

    def _clause(self, rng, limit) -> tuple[list[_Tok], _Tok]:
        r = rng.random()
        if r < 0.5:
            subj, subj_head, number = self._noun_phrase(rng, limit, "nsubj")
        elif r < 0.75:
            form, number, person = rng.choice(PRONS)
            subj_head = _Tok(form, form, "PRON", {"Number": number, "Person": person}, "nsubj")
            subj = [subj_head]
        else:
            name = self.propns.draw(rng, limit)
            subj_head = _Tok(name, name, "PROPN", {"Number": "Sing"}, "nsubj")
            subj, number = [subj_head], "Sing"
        stem = self.verbs.draw(rng, limit)
        if number == "Plur":
            verb = _Tok(stem + "en", stem + "en", "VERB", {"Number": "Plur"})
        else:
            verb = _Tok(stem + "t", stem + "en", "VERB", {"Number": "Sing", "Person": "3"})
        subj_head.head = verb
        toks: list[_Tok] = []
        if rng.random() < 0.15:
            adv = self.advs.draw(rng, limit)
            toks += [_Tok(adv, adv, "ADV", {}, "advmod", verb), verb]
            toks += subj
        else:
            toks += subj + [verb]
        if rng.random() < 0.6:
            obj, obj_head, _ = self._noun_phrase(rng, limit, "obj")
            obj_head.head = verb
            toks += obj
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            pp, pp_head = self._prep_phrase(rng, limit, "obl")
            pp_head.head = verb
            toks += pp
        if rng.random() < 0.2:
            adv = self.advs.draw(rng, limit)
            toks.append(_Tok(adv, adv, "ADV", {}, "advmod", verb))
        return toks, verb

    def _sentence_toks(self, rng, limit, n_clauses: int, min_tokens: int = 0) -> list[_Tok]:
        """Coordinated clauses: n_clauses of them, or as many as it takes
        to reach min_tokens."""
        toks, root = self._clause(rng, limit)
        root.deprel = "root"
        clauses = 1
        while clauses < n_clauses or len(toks) + 1 < min_tokens:
            clause, verb = self._clause(rng, limit)
            verb.deprel, verb.head = "conj", root
            conj = rng.choice(CCONJS)
            toks += [_Tok(",", ",", "PUNCT", {}, "punct", verb),
                     _Tok(conj, conj, "CCONJ", {}, "cc", verb)] + clause
            clauses += 1
        toks.append(_Tok(".", ".", "PUNCT", {}, "punct", root))
        return toks

    # ----------------------------------------------------------- sentences

    def sentence(self, rng: random.Random, limit: int | None, sent_id: str,
                 length: int = 0, nonproj: bool = False) -> Sentence:
        """One gold sentence of 1-3 clauses; with `length`, a run-on of at
        least that many tokens."""
        n_clauses = 1 if length else rng.choice((1, 1, 1, 2, 2, 3))
        toks = self._sentence_toks(rng, limit, n_clauses, length)
        if nonproj:
            # One moved word per sentence, also in run-ons: projectivize's
            # cost grows with the lifts a sentence needs, and a count that
            # varied with the seed would make the train workload's time vary.
            _cross_one_arc(rng, toks)
        return _to_sentence(toks, sent_id)

    def sentences(self, rng: random.Random, limit: int | None, prefix: str,
                  min_tokens: int) -> list[Sentence]:
        """Sentences until they hold min_tokens tokens, so that the size of
        a document hardly depends on the seed. `long_sentences` of them are
        run-ons with lengths spread evenly over 200-800 tokens, at random
        places; `nonproj_share` of them have crossing arcs."""
        n_long = self.p.long_sentences
        lengths = [200 + (600 * k + 300) // n_long for k in range(n_long)]
        out: list[Sentence] = []
        total = sum(lengths)
        while total < min_tokens:
            out.append(self.sentence(rng, limit, "", nonproj=rng.random() < self.p.nonproj_share))
            total += len(out[-1].tokens)
        for length in lengths:
            out.insert(rng.randint(0, len(out)), self.sentence(
                rng, limit, "", length, nonproj=rng.random() < self.p.nonproj_share))
        for i, sent in enumerate(out, start=1):
            sent.sent_id = f"{prefix}-{i}"
        return out

    def corpus(self, rng: random.Random, limit: int | None, prefix: str,
               min_tokens: int) -> Document:
        return Document(sentences=self.sentences(rng, limit, prefix, min_tokens))


def _cross_one_arc(rng: random.Random, toks: list[_Tok]) -> None:
    """Move one leaf word (no dependents, not punctuation) so that its arc
    crosses another arc. Leaves keep the tree acyclic and single-rooted."""
    has_dep = {id(t.head) for t in toks if t.head is not None}
    leaves = [i for i, t in enumerate(toks)
              if id(t) not in has_dep and t.upos not in ("PUNCT", "DET", "ADP")
              and t.head is not None]
    if not leaves:
        return
    i = rng.choice(leaves)
    leaf = toks.pop(i)
    head_pos = next(k for k, t in enumerate(toks) if t is leaf.head)
    # Land two words past the head's far side, away from the leaf's old slot.
    if i <= head_pos:
        j = min(len(toks) - 1, head_pos + 2)
    else:
        j = max(0, head_pos - 1)
    toks.insert(j, leaf)


def _to_sentence(toks: list[_Tok], sent_id: str) -> Sentence:
    pos = {id(t): k + 1 for k, t in enumerate(toks)}
    tokens = []
    for k, t in enumerate(toks):
        form = t.form
        if k == 0:
            form = form[:1].upper() + form[1:]
        nxt = toks[k + 1] if k + 1 < len(toks) else None
        tokens.append(Token(
            id=k + 1, form=form, lemma=t.lemma, upos=t.upos, xpos=XPOS[t.upos],
            feats=dict(t.feats), head=pos[id(t.head)] if t.head is not None else 0,
            deprel=t.deprel,
            misc="SpaceAfter=No" if nxt is not None and nxt.upos == "PUNCT" else "_",
        ))
    sent = Sentence(tokens=tokens)
    sent.sent_id = sent_id
    sent._set_comment("text", sent.text())
    return sent


def to_l2(sent: Sentence, rng: random.Random, adj_after_share: float) -> Sentence:
    """L2 version of an L1 sentence: respelled forms and lemmas, and with
    probability `adj_after_share` per noun phrase the adjectives moved after
    their noun. Annotation (the gold standard for projection) moves along."""
    order = list(range(len(sent.tokens)))
    by_head: dict[int, list[int]] = {}
    for k, tok in enumerate(sent.tokens):
        if tok.upos == "ADJ" and tok.head is not None:
            by_head.setdefault(tok.head - 1, []).append(k)
    for noun, adjs in by_head.items():
        if rng.random() >= adj_after_share or any(a > noun for a in adjs):
            continue
        rest = [k for k in order if k not in adjs]
        at = rest.index(noun) + 1
        order = rest[:at] + adjs + rest[at:]
    new_id = {old + 1: new + 1 for new, old in enumerate(order)}
    tokens = []
    for new, old in enumerate(order):
        tok = sent.tokens[old]
        nxt = sent.tokens[order[new + 1]] if new + 1 < len(order) else None
        form = l2_form(tok.form)
        if new == 0:
            form = form[:1].upper() + form[1:]
        elif tok.upos != "PROPN":
            form = form[:1].lower() + form[1:]
        tokens.append(Token(
            id=new + 1, form=form, lemma=l2_form(tok.lemma), upos=tok.upos, xpos=tok.xpos,
            feats=dict(tok.feats), head=new_id.get(tok.head, 0), deprel=tok.deprel,
            misc="SpaceAfter=No" if nxt is not None and nxt.upos == "PUNCT" else "_",
        ))
    out = Sentence(tokens=tokens)
    out.sent_id = sent.sent_id
    out._set_comment("text", out.text())
    return out


def strip(doc: Document) -> Document:
    """Tokenized-only copy: forms and spacing kept, annotation unset."""
    bare = doc.copy()
    for sent in bare.sentences:
        for tok in sent.tokens:
            tok.lemma = tok.upos = tok.xpos = tok.head = tok.deprel = None
            tok.feats = {}
    return bare


def raw_text(sentences: list[Sentence]) -> str:
    return " ".join(s.text() for s in sentences)


# ------------------------------------------------------------ measurement

def _nonproj_arcs(sent: Sentence) -> int:
    heads = [0] + [t.head for t in sent.tokens]
    count = 0
    for dep in range(1, len(heads)):
        lo, hi = sorted((dep, heads[dep]))
        if any(not lo <= heads[k] <= hi for k in range(lo + 1, hi)):
            count += 1
    return count


def measure_corpus(doc: Document) -> dict:
    """Length distribution, crossing arcs and ambiguity of a gold corpus."""
    lengths = sorted(len(s.tokens) for s in doc.sentences)
    tokens = sum(lengths)
    upos_by_form: dict[str, set] = {}
    for tok in doc.tokens():
        upos_by_form.setdefault(tok.form.lower(), set()).add(tok.upos)
    ambiguous = sum(1 for t in doc.tokens() if len(upos_by_form[t.form.lower()]) > 1)
    return {
        "sentences": len(lengths),
        "tokens": tokens,
        "len_p50": lengths[len(lengths) // 2],
        "len_max": lengths[-1],
        "long_sentences": sum(1 for n in lengths if n >= 200),
        "long_token_share": round(sum(n for n in lengths if n >= 200) / tokens, 4),
        "nonproj_arc_share": round(sum(_nonproj_arcs(s) for s in doc.sentences) / tokens, 4),
        "ambiguous_token_share": round(ambiguous / tokens, 4),
        "types": len(upos_by_form),
    }
