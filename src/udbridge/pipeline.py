"""Training pipeline: corpus splitting, the bundled model, annotation.

A PipelineModel carries everything needed to annotate raw text: tokenizer
configuration, the three tagger classifiers, the suffix lemmatizer and the
dependency parser. Models serialize to a versioned JSON container whose
floats round-trip exactly, so a saved and reloaded model predicts
identically.
"""

import contextlib
import json
import math
import os
import random
import secrets
from dataclasses import dataclass, field
from enum import Enum

from .conllu import Document, Token, parse_feats, serialize_conllu
from .depparser import SHIFT, ParserModel, train_parser
from .errors import DataError
from .lemmatizer import EditScript, LemmaRules, train_lemmatizer
from .parallel import map_jobs
from .tagger import ATTRIBUTES, TaggerModel, train_tagger
from .tokenizer import TokenizerConfig, tokenize
from .util import short_hash

MODEL_FORMAT = "udbridge-pipeline"
MODEL_VERSION = 1


class EvalSetting(Enum):
    RAW_TEXT = "raw"
    GOLD_TOK = "goldtok"
    GOLD_TOK_MORPH = "goldtokmorph"

    @classmethod
    def parse(cls, name: str) -> "EvalSetting":
        for setting in cls:
            if setting.value == name:
                return setting
        raise DataError(
            f"unknown setting {name!r}, expected one of: "
            + ", ".join(s.value for s in cls)
        )


@dataclass
class SplitSpec:
    """Fixed 80/10/10 split; dev and test each get floor(n/10) sentences."""

    train_fraction: float = 0.8
    dev_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if abs(self.train_fraction + self.dev_fraction + self.test_fraction - 1.0) > 1e-9:
            raise DataError("split fractions must sum to 1")


def split_corpus(doc: Document, spec: SplitSpec | None = None) -> tuple[Document, Document, Document]:
    """Shuffle sentences once by seed and cut train/dev/test."""
    if spec is None:
        spec = SplitSpec()
    n = len(doc.sentences)
    if n < 10:
        raise DataError(f"need at least 10 sentences to split, got {n}")
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    n_dev = math.floor(n * spec.dev_fraction + 1e-9)
    n_test = math.floor(n * spec.test_fraction + 1e-9)
    n_train = n - n_dev - n_test

    def take(indices):
        return Document(sentences=[doc.sentences[i].copy() for i in indices])

    return (
        take(order[:n_train]),
        take(order[n_train : n_train + n_dev]),
        take(order[n_train + n_dev :]),
    )


@dataclass
class PipelineModel:
    tagger: TaggerModel
    lemma_rules: LemmaRules
    parser: ParserModel
    tokenizer_cfg: TokenizerConfig = field(default_factory=TokenizerConfig)
    metadata: dict = field(default_factory=dict)

    def require_trained(self) -> None:
        if not self.tagger.classes.get("upos"):
            raise DataError("model has no trained tagger")

    def save(self, path: str) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "metadata": self.metadata,
            "tokenizer": {
                "abbreviations": sorted(self.tokenizer_cfg.abbreviations),
                "punctuation": "".join(sorted(self.tokenizer_cfg.punctuation)),
                "terminators": sorted(self.tokenizer_cfg.terminators),
            },
            "tagger": {
                "classes": self.tagger.classes,
                "weights": self.tagger.weights,
            },
            "lemmatizer": [
                [suffix, upos, s.strip_suffix_len, s.append_suffix, s.casing_op, freq]
                for (suffix, upos), bucket in sorted(self.lemma_rules.rules.items())
                for s, freq in sorted(bucket.items())
            ],
            "parser": {
                "classes": self.parser.classes,
                "labels": self.parser.labels,
                "root_label": self.parser.root_label,
                "weights": self.parser.weights,
            },
        }
        _write_atomically(path, json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "PipelineModel":
        """Read a model file. Anything malformed, down to a weight that is
        not a number, raises DataError; the weights are compiled for
        scoring here."""
        return cls.from_bytes(read_model_file(path), path)

    @classmethod
    def from_bytes(cls, data: bytes, path: str) -> "PipelineModel":
        """Parse the contents of a model file; `path` names it in errors."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise DataError(f"cannot load model from {path}: {err}") from None
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise DataError(f"{path}: not a {MODEL_FORMAT} file")
        if payload.get("version") != MODEL_VERSION:
            raise DataError(
                f"{path}: unsupported model version {payload.get('version')!r}"
            )
        try:
            return cls._from_payload(payload)
        except DataError as err:
            raise DataError(f"{path}: malformed model: {err}") from None

    @classmethod
    def _from_payload(cls, payload: dict) -> "PipelineModel":
        tok = _field(payload, "tokenizer", dict)
        tagger = _field(payload, "tagger", dict)
        tagger_classes = _field(tagger, "classes", dict, "tagger")
        tagger_weights = _field(tagger, "weights", dict, "tagger")
        for attr in ATTRIBUTES:
            _classes(tagger_classes, attr, "tagger classes")
            _field(tagger_weights, attr, dict, "tagger weights")
        for label in tagger_classes["feats"]:
            try:
                parse_feats(label)
            except DataError as err:
                raise DataError(f"tagger feats class {label!r}: {err}") from None
        parser = _field(payload, "parser", dict)
        parser_classes = _classes(parser, "classes", "parser")
        if SHIFT not in parser_classes or len(parser_classes) < 2:
            raise DataError("parser classes need 'shift' and an arc move")
        rules = LemmaRules()
        for rule in _field(payload, "lemmatizer", list):
            if type(rule) is not list or list(map(type, rule)) != _RULE_TYPES:
                raise DataError(f"lemmatizer rule {rule!r} is not [str, str, int, str, str, int]")
            suffix, upos, strip, append, casing, freq = rule
            rules.rules.setdefault((suffix, upos), {})[EditScript(strip, append, casing)] = freq
        return cls(
            tagger=TaggerModel(weights=tagger_weights, classes=tagger_classes),
            lemma_rules=rules,
            parser=ParserModel(
                weights=_field(parser, "weights", dict, "parser"),
                classes=parser_classes,
                labels=_strings(parser, "labels", "parser"),
                root_label=_field(parser, "root_label", str, "parser"),
            ),
            tokenizer_cfg=TokenizerConfig(
                abbreviations=set(_strings(tok, "abbreviations", "tokenizer")),
                punctuation=set(_field(tok, "punctuation", str, "tokenizer")),
                terminators=set(_strings(tok, "terminators", "tokenizer")),
            ),
            metadata=_field(payload, "metadata", dict) if "metadata" in payload else {},
        )


_RULE_TYPES = [str, str, int, str, str, int]


def read_model_file(path: str) -> bytes:
    """The bytes of a model file, for `PipelineModel.from_bytes`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise DataError(f"cannot load model from {path}: {err}") from None


def _write_atomically(path: str, text: str) -> None:
    """Write `text` to a new file beside `path`, then rename it over
    `path`: readers see the old file or the new one, never a torn write,
    and a failed write leaves the old file and no temporary file behind."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _field(section: dict, key: str, kind: type, where: str = ""):
    """section[key], which must be a `kind`."""
    name = f"{where} {key!r}" if where else repr(key)
    if key not in section:
        raise DataError(f"missing {name}")
    value = section[key]
    if type(value) is not kind:
        raise DataError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _strings(section: dict, key: str, where: str) -> list[str]:
    values = _field(section, key, list, where)
    if not all(type(v) is str for v in values):
        raise DataError(f"{where} {key!r} must hold only strings")
    return values


def _classes(section: dict, key: str, where: str) -> list[str]:
    """A class list: distinct strings, at least one."""
    values = _strings(section, key, where)
    if not values or len(set(values)) != len(values):
        raise DataError(f"{where} {key!r} must be distinct and non-empty")
    return values


def train_pipeline(
    train: Document,
    dev: Document | None = None,
    epochs: int = 5,
    seed: int = 13,
    tokenizer_cfg: TokenizerConfig | None = None,
) -> PipelineModel:
    """Train tagger, lemmatizer and parser on one gold corpus.

    The parser trains on gold tags, so it shares nothing with the tagger
    and trains beside it on a second process where there is one; errors
    come in the order tagger, lemmatizer, parser, as in one process."""
    jobs = [
        lambda: (train_tagger(train, dev, epochs=epochs, seed=seed), train_lemmatizer(train)),
        lambda: train_parser(train, dev, epochs=epochs, seed=seed),
    ]
    (tagger, lemma_rules), parser = map_jobs(lambda job: job(), jobs)
    model = PipelineModel(
        tagger=tagger,
        lemma_rules=lemma_rules,
        parser=parser,
        tokenizer_cfg=tokenizer_cfg if tokenizer_cfg is not None else TokenizerConfig(),
        metadata={
            "seed": seed,
            "epochs": epochs,
            "train_sentences": len(train.sentences),
            "corpus_hash": short_hash(serialize_conllu(train).encode("utf-8")),
        },
    )
    return model


def predict_columns(model: PipelineModel, forms: list[str]):
    """The tagger's and parser's decisions for one token sequence, decoded
    as five lists with one entry per form: upos, xpos (None for "_"), a
    feats dict, head and deprel. `annotate` and the direct and pivot
    projections all predict through here."""
    predicted = model.tagger.predict(forms)
    upos = predicted["upos"]
    heads, deprels = model.parser.parse(forms, upos)
    xpos = [None if x == "_" else x for x in predicted["xpos"]]
    feats = [parse_feats(label) for label in predicted["feats"]]
    return upos, xpos, feats, heads, deprels


def set_columns(tokens: list[Token], columns) -> None:
    """Write `predict_columns` output onto tokens; lemmas are left alone."""
    for tok, upos, xpos, feats, head, deprel in zip(tokens, *columns):
        tok.upos = upos
        tok.xpos = xpos
        tok.feats = feats
        tok.head = head
        tok.deprel = deprel


def annotate(source, model: PipelineModel, setting: EvalSetting) -> Document:
    """Run the pipeline.

    RAW_TEXT takes a str and tokenizes it first. GOLD_TOK takes a Document
    and predicts everything above the token layer. GOLD_TOK_MORPH keeps
    gold lemma/upos/xpos/feats and only predicts heads and deprels.
    """
    model.require_trained()
    if setting is EvalSetting.RAW_TEXT:
        if not isinstance(source, str):
            raise DataError("RAW_TEXT setting needs a raw text string")
        doc = tokenize(source, model.tokenizer_cfg)
    else:
        if not isinstance(source, Document):
            raise DataError(f"{setting.value} setting needs a Document")
        doc = source.copy()

    for sent in doc.sentences:
        forms = [t.form for t in sent.tokens]
        if not forms:
            continue
        if setting is EvalSetting.GOLD_TOK_MORPH:
            for tok in sent.tokens:
                if tok.upos is None:
                    raise DataError(
                        f"sentence {sent.sent_id}: token {tok.id} has no gold upos"
                        " (required by the goldtokmorph setting)"
                    )
            heads, deprels = model.parser.parse(forms, [t.upos for t in sent.tokens])
            for tok, head, deprel in zip(sent.tokens, heads, deprels):
                tok.head = head
                tok.deprel = deprel
        else:
            set_columns(sent.tokens, predict_columns(model, forms))
            for tok in sent.tokens:
                tok.lemma = model.lemma_rules.predict(tok.form, tok.upos)
    return doc
