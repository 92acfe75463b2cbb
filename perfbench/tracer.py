"""Spans and counters around the public entry points of every udbridge module.

`Tracer.install()` replaces each target function or method with a wrapper
that records a span (id, parent id, name, start, end) and, for some
targets, bumps counters from the call's arguments or result. Functions are
replaced in every udbridge module that imported them by name, so for
instance `predict_with` is traced as called from both `tagger` and
`depparser`. Nothing under `src/` changes.

Spans stay in memory (one flat array of doubles) until `write_spans()`.
A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans. Threads (the HTTP
service's handlers) keep separate span stacks.
"""

import functools
import itertools
import os
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict


def _nonproj(args, result):
    return sum(1 for a, b in zip(args[0], result) if a != b)


def _model_bytes(counters, args):
    """Largest model file saved or loaded (the path is the last argument)."""
    size = os.path.getsize(args[-1])
    counters["pipeline.model_bytes"] = max(counters["pipeline.model_bytes"], size)


# (module, attribute path, counter hook). A hook gets (counters, args,
# result) after a call that returned.
TARGETS = [
    ("tokenizer", "tokenize", lambda c, a, r: c.update(
        {"tokenizer.tokens": sum(len(s.tokens) for s in r.sentences)})),
    ("perceptron", "predict_with", None),
    ("perceptron", "AveragedPerceptron.predict", None),
    ("perceptron", "AveragedPerceptron.update", lambda c, a, r: c.update(
        {"perceptron.mistakes": a[1] != a[2]})),
    ("perceptron", "AveragedPerceptron.averaged", None),
    ("tagger", "TaggerModel.predict", None),
    ("tagger", "TaggerModel.predict_attribute", None),
    ("tagger", "train_tagger", None),
    ("lemmatizer", "LemmaRules.predict", None),
    ("lemmatizer", "train_lemmatizer", None),
    ("depparser", "ParserModel.parse", lambda c, a, r: c.update(
        {"depparser.transitions": 2 * len(a[1])})),
    ("depparser", "train_parser", None),
    ("depparser", "projectivize", lambda c, a, r: c.update(
        {"depparser.nonproj_arcs": _nonproj(a, r)})),
    ("depparser", "validate_tree", None),
    ("conllu", "parse_conllu", lambda c, a, r: c.update(
        {"conllu.bytes": len(a[0].encode("utf-8"))})),
    ("conllu", "serialize_conllu", lambda c, a, r: c.update(
        {"conllu.bytes": len(r.encode("utf-8"))})),
    ("conllu", "serialize_tsv", lambda c, a, r: c.update(
        {"conllu.bytes": len(r.encode("utf-8"))})),
    ("pipeline", "annotate", None),
    ("pipeline", "train_pipeline", None),
    ("pipeline", "PipelineModel.save", lambda c, a, r: _model_bytes(c, a)),
    ("pipeline", "PipelineModel.load", lambda c, a, r: _model_bytes(c, a)),
    ("translate", "TranslatorClient.translate_sentence", lambda c, a, r: c.update(
        {"translate.fallbacks": sum(r.fallbacks or ())})),
    ("translate", "TranslatorClient.translate_word", lambda c, a, r: c.update(
        {"translate.words": 1})),
    ("translate", "LexiconCache.lookup", lambda c, a, r: c.update(
        {"translate.lookups": 1, "translate.cache_hits": r is not None})),
    ("translate", "StaticLexiconBackend.translate", None),
    ("aligner", "train_aligner", lambda c, a, r: c.update(
        {"aligner.pairs": len(a[0]), "aligner.em_iterations": r.config.iterations})),
    ("aligner", "viterbi_align", None),
    ("projection", "project_direct", lambda c, a, r: _provenance(c, "direct", r)),
    ("projection", "project_via_pivot", lambda c, a, r: _provenance(c, "pivot", r)),
    ("projection", "project_via_alignment", lambda c, a, r: _provenance(c, "align", r)),
    ("projection", "score_procedure", None),
    ("projection", "compare_procedures", None),
    ("projection", "serialize_projected", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "fisher_exact", None),
    ("service", "document_to_object", None),
    ("service", "_Handler.do_GET", None),
    ("service", "_Handler.do_POST", None),
]


def _provenance(counters, proc, projected):
    tokens = [p for sent in projected.provenance for p in sent]
    counters.update({f"projection.{proc}_tokens": len(tokens),
                     f"projection.{proc}_fallbacks": sum(p.fallback for p in tokens)})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")  # id, parent, name index, start, end
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        idx = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.extend((sid, parent, idx, start, end))
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        import udbridge  # noqa: F401 - loads every module the targets name

        modules = [m for n, m in sys.modules.items() if n.startswith("udbridge.")]
        for mod_name, path, hook in TARGETS:
            mod = sys.modules[f"udbridge.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, hook)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, hook))
                continue
            orig = getattr(mod, path)
            traced = self.wrap(name, orig, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Self and total seconds, and call counts, per span name."""
        spans = self.spans
        child = defaultdict(float)
        for k in range(0, len(spans), 5):
            if spans[k + 1] >= 0:
                child[spans[k + 1]] += spans[k + 4] - spans[k + 3]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k in range(0, len(spans), 5):
            name = self.names[int(spans[k + 2])]
            dur = spans[k + 4] - spans[k + 3]
            self_s[name] += dur - child.get(spans[k], 0.0)
            total_s[name] += dur
            calls[name] += 1
        return self_s, total_s, calls

    def write_spans(self, path: str) -> None:
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for k in range(0, len(spans), 5):
                fh.write(f"{int(spans[k])}\t{int(spans[k + 1])}\t"
                         f"{self.names[int(spans[k + 2])]}\t{spans[k + 3]:.7f}\t{spans[k + 4]:.7f}\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics the benchmark reports (service.* and the
        overhead ratio are added by the caller)."""
        self_s, total_s, calls = self.layer_times()
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        def layer_self(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        updates = calls["perceptron.AveragedPerceptron.update"]
        out = {
            "perceptron.predict_calls": calls["perceptron.predict_with"]
            + calls["perceptron.AveragedPerceptron.predict"],
            "perceptron.predict_self_s": self_s["perceptron.predict_with"]
            + self_s["perceptron.AveragedPerceptron.predict"],
            "tagger.predict_self_s": self_s["tagger.TaggerModel.predict"]
            + self_s["tagger.TaggerModel.predict_attribute"],
            "depparser.parse_self_s": self_s["depparser.ParserModel.parse"],
            "depparser.transitions": c["depparser.transitions"],
            "lemmatizer.predict_self_s": self_s["lemmatizer.LemmaRules.predict"],
            "lemmatizer.predict_calls": calls["lemmatizer.LemmaRules.predict"],
            "tokenizer.self_s": self_s["tokenizer.tokenize"],
            "tokenizer.tokens": c["tokenizer.tokens"],
            "pipeline.annotate_self_s": self_s["pipeline.annotate"],
            "perceptron.update_calls": updates,
            "perceptron.mistake_ratio": ratio(c["perceptron.mistakes"], updates),
            "perceptron.averaged_self_s": self_s["perceptron.AveragedPerceptron.averaged"],
            "tagger.train_self_s": self_s["tagger.train_tagger"],
            "depparser.train_self_s": self_s["depparser.train_parser"],
            "depparser.projectivize_self_s": self_s["depparser.projectivize"],
            "depparser.nonproj_arcs": c["depparser.nonproj_arcs"],
            "lemmatizer.train_self_s": self_s["lemmatizer.train_lemmatizer"],
            "aligner.em_iter_s": ratio(total_s["aligner.train_aligner"],
                                       c["aligner.em_iterations"]),
            "aligner.viterbi_self_s": self_s["aligner.viterbi_align"],
            "aligner.pairs": c["aligner.pairs"],
            "translate.words": c["translate.words"],
            "translate.cache_hit_ratio": ratio(c["translate.cache_hits"], c["translate.lookups"]),
            "translate.backend_calls": calls["translate.StaticLexiconBackend.translate"],
            "translate.fallbacks": c["translate.fallbacks"],
            "translate.self_s": layer_self("translate."),
        }
        for proc, fn in (("direct", "project_direct"), ("pivot", "project_via_pivot"),
                         ("align", "project_via_alignment")):
            out[f"projection.{proc}_self_s"] = self_s[f"projection.{fn}"]
            out[f"projection.{proc}_fallback_ratio"] = ratio(
                c[f"projection.{proc}_fallbacks"], c[f"projection.{proc}_tokens"])
        out.update({
            "evaluation.evaluate_self_s": self_s["evaluation.evaluate"],
            "evaluation.fisher_self_s": self_s["evaluation.fisher_exact"],
            "conllu.parse_self_s": self_s["conllu.parse_conllu"],
            "conllu.serialize_self_s": self_s["conllu.serialize_conllu"]
            + self_s["conllu.serialize_tsv"],
            "conllu.bytes": c["conllu.bytes"],
            "pipeline.load_s": total_s["pipeline.PipelineModel.load"],
            "pipeline.save_s": total_s["pipeline.PipelineModel.save"],
            "pipeline.model_bytes": c["pipeline.model_bytes"],
        })
        return out
