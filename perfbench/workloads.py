"""The in-process workloads: annotate, train and project.

Each class does its set-up in the constructor (read the input files, load
the model) and then offers `n_units` units of work. `unit(k)` runs unit k
through the public API of udbridge and returns the tokens it processed, its
outputs by name (text whose hashes the correctness gate checks) and an
optional self-consistency check, which the caller runs outside the timed
region. Every call goes through module attributes (`pipeline.annotate`, not
a name imported into this file) so that the tracer's wrappers see it.
"""

import json
from pathlib import Path

from udbridge import aligner, conllu, evaluation, pipeline, projection, translate
from udbridge.pipeline import EvalSetting


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text(encoding="utf-8")


def _tokens(doc) -> int:
    return sum(len(s.tokens) for s in doc.sentences)


class Annotate:
    """Raw held-out documents -> annotate(RAW_TEXT) -> CoNLL-U."""

    def __init__(self, workdir: Path, spec: dict):
        self.docs = json.loads(_read(workdir, "docs.json"))
        self.model = pipeline.PipelineModel.load(spec["model"])
        self.n_units = len(self.docs)

    def unit(self, k: int):
        doc = pipeline.annotate(self.docs[k], self.model, EvalSetting.RAW_TEXT)
        return _tokens(doc), {"annotated_conllu": conllu.serialize_conllu(doc)}, None


class Train:
    """Gold corpus -> train_pipeline with a dev set -> save -> load.

    Set-up parses the corpus; one unit is one training job."""

    def __init__(self, workdir: Path, spec: dict):
        self.train = conllu.parse_conllu(_read(workdir, "train.conllu"))
        self.dev = conllu.parse_conllu(_read(workdir, "dev.conllu"))
        self.heldout = _read(workdir, "heldout.txt")
        self.epochs = spec["epochs"]
        self.model_file = str(workdir / "trained.json")
        self.n_units = 1

    def unit(self, k: int):
        model = pipeline.train_pipeline(self.train, self.dev, epochs=self.epochs)
        model.save(self.model_file)
        loaded = pipeline.PipelineModel.load(self.model_file)
        saved = Path(self.model_file).read_text(encoding="utf-8")

        def check() -> list[str]:
            want = conllu.serialize_conllu(pipeline.annotate(self.heldout, model, EvalSetting.RAW_TEXT))
            got = conllu.serialize_conllu(pipeline.annotate(self.heldout, loaded, EvalSetting.RAW_TEXT))
            return [] if got == want else ["loaded model annotates differently from the trained one"]

        return _tokens(self.train) * self.epochs, {"model": saved}, check


class Project:
    """The bootstrap round trip on one tokenized target document per unit:
    direct, pivot through a lexicon with a cache, alignment trained on a
    larger bitext, then comparison, evaluation and export."""

    def __init__(self, workdir: Path, spec: dict):
        self.model = pipeline.PipelineModel.load(spec["model"])
        self.lexicon = translate.load_lexicon(str(workdir / "lexicon.tsv"))
        self.n_units = spec["documents"]
        self.files = [
            {part: _read(workdir, f"{part}{d}.{ext}") for part, ext in
             (("target", "conllu"), ("gold", "conllu"), ("source", "conllu"), ("bitext", "txt"))}
            for d in range(self.n_units)
        ]

    def unit(self, k: int):
        f = self.files[k]
        target = conllu.parse_conllu(f["target"])
        gold = conllu.parse_conllu(f["gold"])
        direct = projection.project_direct(target, self.model)
        client = translate.TranslatorClient(
            translate.StaticLexiconBackend(self.lexicon), cache=translate.LexiconCache()
        )
        pivot = projection.project_via_pivot(target, self.model, client)
        bitext = aligner.read_bitext(f["bitext"])
        table = aligner.train_aligner(bitext)
        links = [aligner.viterbi_align(table, pair) for pair in bitext[: len(target.sentences)]]
        source = pipeline.annotate(conllu.parse_conllu(f["source"]), self.model, EvalSetting.GOLD_TOK)
        align = projection.project_via_alignment(source, target, links)
        projected = {"direct": direct, "pivot": pivot, "align": align}
        comparison = projection.compare_procedures(gold, projected)
        outputs = {f"{name}_projected": projection.serialize_projected(p)
                   for name, p in projected.items()}
        outputs["translation_table"] = table.dumps()
        outputs["evaluation"] = comparison.to_tsv() + "".join(
            evaluation.evaluate(gold, p.document, EvalSetting.GOLD_TOK).to_tsv()
            for p in projected.values()
        )
        return _tokens(target), outputs, None


WORKLOADS = {"annotate": Annotate, "train": Train, "project": Project}
