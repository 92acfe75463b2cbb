"""Input files of each workload, written to a work directory.

The language (lexicon and grammar) and the related-language model are the
same for every seed: they play the part of the installed model a user
brings. `--seed` drives everything a run feeds that model: the held-out
text, the gold corpus, the projection targets and bitexts, the service
requests. The trained model is cached per source tree (see `model_path`),
since training it is input preparation, not the measured work.
"""

import dataclasses
import hashlib
import json
import os
import random
from pathlib import Path

import gen
from udbridge.conllu import Document, serialize_conllu
from udbridge.pipeline import train_pipeline

LANGUAGE_SEED = 0
PARAMS = gen.Params()
TRAIN_PARAMS = gen.Params(ambiguous_share=0.5)

# Sizes are token budgets, so that the work in a unit hardly depends on the
# seed. Annotate document k holds doc_tokens[0] + doc_tokens[1] * (k % 8)
# tokens; serve request k holds 1 + k % 3 sentences.
SIZES = {
    "full": {
        "model_tokens": 12000, "model_dev_tokens": 1200, "model_epochs": 3,
        "annotate_docs": 100, "doc_tokens": (30, 20),
        "train_tokens": 2500, "train_dev_tokens": 400, "train_epochs": 2,
        "long_sentences": 2, "heldout_tokens": 300,
        "project_docs": 6, "project_tokens": 325, "bitext_ratio": 4,
        "serve_bodies": 200,
    },
    "tiny": {
        "model_tokens": 1000, "model_dev_tokens": 150, "model_epochs": 1,
        "annotate_docs": 4, "doc_tokens": (10, 5),
        "train_tokens": 1500, "train_dev_tokens": 80, "train_epochs": 1,
        "long_sentences": 1, "heldout_tokens": 40,
        "project_docs": 1, "project_tokens": 80, "bitext_ratio": 2,
        "serve_bodies": 12,
    },
}

# Request mix of the serve workload, in twentieths: (count, method, path,
# body template). Requests take the kinds in turn, so every seed gets the
# same mix.
REQUEST_MIX = [
    (5, "POST", "/annotate", {"format": "conllu"}),
    (5, "POST", "/annotate", {"format": "tsv"}),
    (5, "POST", "/annotate", {"format": "json"}),
    (1, "POST", "/stats", {"report": "upos"}),
    (1, "POST", "/stats", {"report": "top", "top_n": 3}),
    (1, "POST", "/stats", {"report": "cooc", "upos_filter": "NOUN"}),
    (2, "GET", "/health", None),
]


def _language() -> gen.Language:
    return gen.Language(LANGUAGE_SEED, PARAMS)


def model_path(root: Path, size: str) -> Path:
    """The related-language model, trained once per source tree and size.

    The cache key hashes every file the model depends on, so a change to
    the package or to the generator trains a new one."""
    digest = hashlib.sha256(size.encode())
    files = sorted((root / "src" / "udbridge").glob("*.py"))
    files += [root / "perfbench" / "gen.py", root / "perfbench" / "inputs.py"]
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    path = root / ".perfbench_work" / "models" / f"model-{size}-{digest.hexdigest()[:16]}.json"
    if not path.exists():
        sz = SIZES[size]
        lang = _language()
        rng = random.Random("model")
        train = lang.corpus(rng, PARAMS.train_vocab, "m", sz["model_tokens"])
        dev = lang.corpus(rng, PARAMS.train_vocab, "md", sz["model_dev_tokens"])
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        train_pipeline(train, dev, epochs=sz["model_epochs"]).save(str(tmp))
        (path.parent / f"{path.stem}.train.conllu").write_text(serialize_conllu(train), "utf-8")
        os.replace(tmp, path)
    return path


def _model_forms(path: Path) -> set[str]:
    return {line.split("\t")[1] for line in
            path.with_name(f"{path.stem}.train.conllu").read_text("utf-8").splitlines()
            if line and not line.startswith("#")}


def _write(workdir: Path, name: str, text: str) -> None:
    (workdir / name).write_text(text, encoding="utf-8")


def prepare(workload: str, seed: int, size: str, root: Path, workdir: Path) -> dict:
    """Write the workload's input files into workdir; return the measured
    input properties."""
    sz = SIZES[size]
    lang = _language()
    rng = random.Random(f"{workload}/{seed}")
    if workload == "train":
        # Half the verb and adjective stems are noun stems here, so that a
        # small corpus still has many ambiguous forms.
        plain = gen.Language(LANGUAGE_SEED, TRAIN_PARAMS)
        tlang = gen.Language(LANGUAGE_SEED, dataclasses.replace(
            TRAIN_PARAMS, long_sentences=sz["long_sentences"], nonproj_share=0.25))
        train = tlang.corpus(rng, PARAMS.train_vocab, "t", sz["train_tokens"])
        dev = plain.corpus(rng, PARAMS.train_vocab, "d", sz["train_dev_tokens"])
        heldout = plain.corpus(rng, None, "h", sz["heldout_tokens"])
        _write(workdir, "train.conllu", serialize_conllu(train))
        _write(workdir, "dev.conllu", serialize_conllu(dev))
        _write(workdir, "heldout.txt", gen.raw_text(heldout.sentences))
        return {"epochs": sz["train_epochs"], "train": gen.measure_corpus(train),
                "dev_sentences": len(dev.sentences)}

    model = model_path(root, size)
    props = {"model_bytes": model.stat().st_size}
    known = _model_forms(model)
    if workload == "annotate":
        docs, forms = [], []
        base, step = sz["doc_tokens"]
        for d in range(sz["annotate_docs"]):
            sents = lang.sentences(rng, None, f"a{d}", base + step * (d % 8))
            docs.append(gen.raw_text(sents))
            forms += [t.form for s in sents for t in s.tokens]
        _write(workdir, "docs.json", json.dumps(docs, ensure_ascii=False))
        props.update(vocabulary_nouns=PARAMS.nouns, model_noun_ranks=PARAMS.train_vocab,
                     documents=len(docs), tokens=len(forms),
                     oov_token_share=_share(forms, known),
                     types=len(set(forms)), oov_type_share=_share(set(forms), known))
    elif workload == "project":
        lexicon = _pivot_lexicon(lang)
        _write(workdir, "lexicon.tsv", "".join(f"{k}\t{v}\n" for k, v in sorted(lexicon.items())))
        tgt_forms, n_pairs, n_target = [], 0, 0
        for d in range(sz["project_docs"]):
            src = lang.corpus(rng, None, f"p{d}", sz["project_tokens"])
            tgt = Document(sentences=[gen.to_l2(s, rng, PARAMS.adj_after_share)
                                      for s in src.sentences])
            extra = lang.corpus(rng, None, f"x{d}", sz["project_tokens"] * (sz["bitext_ratio"] - 1))
            pairs = list(zip(src.sentences, tgt.sentences))
            pairs += [(s, gen.to_l2(s, rng, PARAMS.adj_after_share)) for s in extra.sentences]
            bitext = "".join(
                " ".join(t.form for t in a.tokens) + " ||| " + " ".join(t.form for t in b.tokens) + "\n"
                for a, b in pairs
            )
            _write(workdir, f"target{d}.conllu", serialize_conllu(gen.strip(tgt)))
            _write(workdir, f"gold{d}.conllu", serialize_conllu(tgt))
            _write(workdir, f"source{d}.conllu", serialize_conllu(gen.strip(src)))
            _write(workdir, f"bitext{d}.txt", bitext)
            tgt_forms += [t.form for t in tgt.tokens()]
            n_pairs += len(pairs)
            n_target += len(tgt.sentences)
        props.update(documents=sz["project_docs"], target_tokens=len(tgt_forms),
                     lexicon_entries=len(lexicon),
                     lexicon_token_coverage=round(1 - _share(tgt_forms, lexicon), 4),
                     lexicon_type_coverage=round(1 - _share(set(tgt_forms), lexicon), 4),
                     bitext_pairs_per_target_sentence=round(n_pairs / n_target, 2),
                     target_oov_token_share=_share(tgt_forms, known))
    elif workload == "serve":
        kinds = [kind for n, *kind in REQUEST_MIX for _ in range(n)]
        requests, forms, sizes = [], [], []
        for r in range(sz["serve_bodies"]):
            method, path, template = kinds[r % len(kinds)]
            req = {"method": method, "path": path, "body": None, "tokens": 0}
            if template is not None:
                sents = [lang.sentence(rng, None, f"s{r}-{i}") for i in range(1 + r % 3)]
                req["body"] = dict(template, text=gen.raw_text(sents))
                req["tokens"] = sum(len(s.tokens) for s in sents)
                forms += [t.form for s in sents for t in s.tokens]
                sizes.append(len(sents))
            requests.append(req)
        _write(workdir, "requests.json", json.dumps(requests, ensure_ascii=False))
        props.update(requests=len(requests), annotating_requests=len(sizes),
                     sentences_per_request_mean=round(sum(sizes) / len(sizes), 3),
                     tokens_per_request_mean=round(len(forms) / len(sizes), 2),
                     oov_token_share=_share(forms, known))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return props


def _pivot_lexicon(lang: gen.Language) -> dict[str, str]:
    """L2 -> L1 word list covering `lexicon_coverage` of the word types."""
    rng = random.Random("lexicon")
    forms = set(gen.CCONJS) | {f for f, _ in gen.DETS} | set(gen.ADPS) | {p for p, *_ in gen.PRONS}
    forms |= {n + suffix for n in lang.nouns.items for suffix in ("", "en")}
    forms |= {v + suffix for v in lang.verbs.items for suffix in ("t", "en")}
    forms |= {a + suffix for a in lang.adjs.items for suffix in ("", "e")}
    forms |= set(lang.advs.items) | set(lang.propns.items)
    return {gen.l2_form(f): f for f in sorted(forms) if rng.random() < PARAMS.lexicon_coverage}


def _share(items, known) -> float:
    items = list(items)
    return round(sum(1 for x in items if x not in known) / max(1, len(items)), 4)
