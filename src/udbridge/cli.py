"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/processing error. Results go
to stdout, diagnostics to stderr. Most commands read a positional input
file, with "-" (or omission) meaning stdin.
"""

import argparse
import sys

from . import service
from .aligner import (
    AlignerConfig,
    TranslationTable,
    count_crossings,
    format_links,
    parse_links,
    read_bitext,
    train_aligner,
    viterbi_align,
)
from .conllu import parse_conllu, serialize_conllu, serialize_tsv
from .errors import DataError, UdbridgeError, UsageError
from .evaluation import (
    ContingencyTable2x2,
    bootstrap_median_compare,
    cross_validate,
    cv_summary_tsv,
    evaluate,
    fisher_exact,
)
from .pipeline import (
    EvalSetting,
    PipelineModel,
    annotate,
    split_corpus,
    train_pipeline,
)
from .projection import (
    project_direct,
    project_via_alignment,
    project_via_pivot,
    serialize_projected,
)
from .stats import REPORT_COLUMNS, genre_distribution, report_tsv, split_by_genre
from .tokenizer import TokenizerConfig, load_abbreviations, tokenize
from .translate import (
    IdentityBackend,
    LexiconCache,
    Quoting,
    RemoteServiceBackend,
    StaticLexiconBackend,
    TranslatorClient,
    load_lexicon,
)
from .util import read_text, write_atomically


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_input(args, stdin) -> str:
    return stdin.read() if args.input in (None, "-") else read_text(args.input)


def _tokenizer_cfg(args) -> TokenizerConfig:
    abbr = load_abbreviations(args.abbreviations) if args.abbreviations else set()
    return TokenizerConfig(abbreviations=abbr)


def _build_translator(args) -> TranslatorClient:
    cache = LexiconCache(args.cache) if args.cache else None
    quoting = Quoting(args.quoting)
    if args.backend == "identity":
        backend = IdentityBackend()
    elif args.backend == "lexicon":
        if not args.lexicon:
            raise UsageError("--backend lexicon needs --lexicon FILE")
        backend = StaticLexiconBackend(load_lexicon(args.lexicon))
    else:
        if not args.endpoint:
            raise UsageError("--backend remote needs --endpoint URL")
        backend = RemoteServiceBackend(
            args.endpoint, direction=args.direction, timeout=args.timeout
        )
    return TranslatorClient(backend, quoting=quoting, cache=cache)


def _finish_translation(client: TranslatorClient, stderr) -> None:
    if client.cache is not None:
        client.cache.save()
    if client.fallback_count:
        stderr.write(f"fallbacks: {client.fallback_count}\n")


def _add_translator_flags(sub) -> None:
    sub.add_argument("--backend", default="identity", choices=["identity", "lexicon", "remote"])
    sub.add_argument("--lexicon", help="TSV source<TAB>target for the lexicon backend")
    sub.add_argument("--endpoint", help="HTTP endpoint for the remote backend")
    sub.add_argument("--direction", default="src-pivot")
    sub.add_argument("--quoting", default="none", choices=[q.value for q in Quoting])
    sub.add_argument("--cache", help="persistent translation cache (TSV)")
    sub.add_argument("--timeout", type=float, default=10.0)


def cmd_tokenize(args, stdin, stdout, stderr) -> int:
    doc = tokenize(_read_input(args, stdin), _tokenizer_cfg(args))
    stdout.write(serialize_conllu(doc) if doc.sentences else "")
    return 0


def cmd_translate(args, stdin, stdout, stderr) -> int:
    client = _build_translator(args)
    for line in _read_input(args, stdin).splitlines():
        pivot = client.translate_sentence(line.split())
        stdout.write(" ".join(pivot.pivot_tokens) + "\n")
    _finish_translation(client, stderr)
    return 0


def cmd_align(args, stdin, stdout, stderr) -> int:
    pairs = read_bitext(_read_input(args, stdin))
    if args.load_table:
        # the loaded table decodes under the settings it was trained with
        table = TranslationTable.loads(read_text(args.load_table))
    else:
        cfg = AlignerConfig(
            iterations=args.iterations,
            lambda_=args.lambda_,
            null_prob=args.null_prob,
            seed=args.seed,
        )
        table = train_aligner(pairs, cfg)
    if args.save_table:
        write_atomically(args.save_table, table.dumps())
    crossings = 0
    for pair in pairs:
        links = viterbi_align(table, pair)
        crossings += count_crossings(links)
        stdout.write(format_links(links) + "\n")
    if args.diagnostics:
        stderr.write(f"crossing link pairs: {crossings}\n")
    return 0


def cmd_train(args, stdin, stdout, stderr) -> int:
    if args.split and args.dev:
        raise UsageError("--dev and --split both give a dev set; use one")
    if args.test_out and not args.split:
        raise UsageError("--test-out needs --split")
    train_doc = parse_conllu(read_text(args.train))
    dev_doc = None
    if args.split:
        train_doc, dev_doc, test_doc = split_corpus(train_doc, seed=args.seed)
        if args.test_out:
            write_atomically(args.test_out, serialize_conllu(test_doc))
    elif args.dev:
        dev_doc = parse_conllu(read_text(args.dev))
        if not dev_doc.sentences:
            raise DataError(f"{args.dev}: the dev file holds no sentences")
    model = train_pipeline(
        train_doc,
        dev_doc,
        epochs=args.epochs,
        seed=args.seed,
        tokenizer_cfg=_tokenizer_cfg(args),
    )
    model.save(args.out)
    stderr.write(
        f"trained on {len(train_doc.sentences)} sentences"
        + (f", dev {len(dev_doc.sentences)}" if dev_doc else "")
        + f" -> {args.out}\n"
    )
    return 0


def cmd_annotate(args, stdin, stdout, stderr) -> int:
    model = PipelineModel.load(args.model)
    setting = EvalSetting.parse(args.setting)
    raw = _read_input(args, stdin)
    source = raw if setting is EvalSetting.RAW_TEXT else parse_conllu(raw)
    doc = annotate(source, model, setting)
    if not doc.sentences:
        return 0
    stdout.write(serialize_tsv(doc) if args.format == "tsv" else serialize_conllu(doc))
    return 0


def cmd_project(args, stdin, stdout, stderr) -> int:
    model = PipelineModel.load(args.model) if args.model else None
    target = parse_conllu(_read_input(args, stdin))
    if args.procedure != "align" and model is None:
        raise UsageError(f"--procedure {args.procedure} needs --model")
    if args.procedure == "direct":
        projected = project_direct(target, model)
    elif args.procedure == "pivot":
        client = _build_translator(args)
        projected = project_via_pivot(target, model, client)
        _finish_translation(client, stderr)
    else:
        if not args.source or not args.links:
            raise UsageError("--procedure align needs --source and --links")
        source = parse_conllu(read_text(args.source))
        link_lines = read_text(args.links).splitlines()
        links = [parse_links(line) for line in link_lines]
        projected = project_via_alignment(source, target, links)
    if args.provenance:
        stdout.write(serialize_projected(projected))
    else:
        stdout.write(serialize_conllu(projected.document))
    return 0


def cmd_evaluate(args, stdin, stdout, stderr) -> int:
    gold = parse_conllu(read_text(args.gold))
    system = parse_conllu(read_text(args.system))
    report = evaluate(gold, system, EvalSetting.parse(args.setting))
    stdout.write(report.to_tsv())
    return 0


def cmd_cv(args, stdin, stdout, stderr) -> int:
    corpus = parse_conllu(_read_input(args, stdin))
    settings = tuple(EvalSetting.parse(s) for s in args.settings.split(","))

    def train_fn(train_doc, dev_doc):
        return train_pipeline(train_doc, dev_doc, epochs=args.epochs, seed=args.seed)

    _, _, summaries = cross_validate(
        corpus, args.k, train_fn, settings=settings, seed=args.seed
    )
    stdout.write(cv_summary_tsv(summaries))
    return 0


def cmd_fisher(args, stdin, stdout, stderr) -> int:
    p = fisher_exact(ContingencyTable2x2(args.a, args.b, args.c, args.d))
    stdout.write(f"p={p:.7f}\n")
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise UsageError(f"bad numeric list: {err}") from None


def cmd_bootstrap(args, stdin, stdout, stderr) -> int:
    result = bootstrap_median_compare(
        _parse_floats(args.a),
        _parse_floats(args.b),
        iterations=args.iterations,
        seed=args.seed,
    )
    stdout.write(
        f"median_diff\t{result.median_diff:g}\n"
        f"ci95\t{result.ci_low:g}\t{result.ci_high:g}\n"
        f"p\t{result.p_value:.7f}\n"
    )
    return 0


def cmd_stats(args, stdin, stdout, stderr) -> int:
    doc = parse_conllu(_read_input(args, stdin))
    if args.report == "genres":
        stdout.write(genre_distribution(split_by_genre(doc)).to_tsv())
        return 0
    if args.report == "cooc" and not args.upos_filter:
        raise UsageError("--report cooc needs --upos-filter")
    options = {"top_n": args.top_n, "upos_filter": args.upos_filter, "min_weight": args.min_weight}
    stdout.write(report_tsv(doc, args.report, **options))
    return 0


def cmd_serve(args, stdin, stdout, stderr) -> int:
    cfg = service.build_config(
        config_path=args.config,
        overrides={
            "bind": args.bind,
            "model": args.model,
            "max_request_bytes": args.max_bytes,
            "format": args.format,
            "workers": args.workers,
        },
    )
    server = service.make_server(cfg)
    host, port = server.server_address[:2]
    stderr.write(f"serving on http://{host}:{port}/ (model {cfg.model_path})\n")
    service.serve(server)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="udbridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="raw text -> tokenized CoNLL-U")
    p.add_argument("input", nargs="?")
    p.add_argument("--abbreviations", help="file with one abbreviation per line")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("translate", help="word-for-word pivot translation")
    p.add_argument("input", nargs="?")
    _add_translator_flags(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("align", help="train word alignment, print i-j links")
    p.add_argument("input", nargs="?", help="bitext: source ||| target per line")
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--lambda", dest="lambda_", type=float, default=4.0)
    p.add_argument("--null-prob", type=float, default=0.08)
    p.add_argument(
        "--seed", type=int, default=0,
        help="only written to the table header; EM training draws no random numbers",
    )
    p.add_argument("--save-table")
    p.add_argument("--load-table")
    p.add_argument("--diagnostics", action="store_true", help="report crossing links")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("train", help="train the annotation pipeline")
    p.add_argument("--train", required=True, help="gold CoNLL-U training file")
    p.add_argument("--dev", help="gold CoNLL-U dev file (not with --split)")
    p.add_argument("--split", action="store_true", help="80/10/10 split of --train")
    p.add_argument("--test-out", help="with --split: write the test cut here")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--abbreviations")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("annotate", help="annotate text with a trained model")
    p.add_argument("input", nargs="?")
    p.add_argument("--model", required=True)
    p.add_argument("--setting", default="raw", choices=[s.value for s in EvalSetting])
    p.add_argument("--format", default="conllu", choices=["conllu", "tsv"])
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("project", help="project annotations onto target text")
    p.add_argument("input", nargs="?", help="tokenized target CoNLL-U")
    p.add_argument("--procedure", required=True, choices=["direct", "pivot", "align"])
    p.add_argument("--model", help="related-language pipeline model")
    p.add_argument("--source", help="annotated source CoNLL-U (align)")
    p.add_argument("--links", help="alignment links file, one line per sentence (align)")
    p.add_argument("--provenance", action="store_true", help="record provenance in MISC")
    _add_translator_flags(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("evaluate", help="score system output against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--setting", default="goldtok", choices=[s.value for s in EvalSetting])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="rotating k-fold cross-validation")
    p.add_argument("input", nargs="?", help="gold CoNLL-U corpus")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--settings", default="goldtok")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("fisher", help="two-sided Fisher's exact test on a 2x2 table")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("bootstrap", help="percentile-bootstrap median comparison")
    p.add_argument("--a", required=True, help="comma-separated values")
    p.add_argument("--b", required=True, help="comma-separated values")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("stats", help="corpus statistics reports")
    p.add_argument("input", nargs="?")
    p.add_argument("--report", required=True, choices=["genres", *REPORT_COLUMNS])
    p.add_argument("--upos-filter")
    p.add_argument("--min-weight", type=int, default=1)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("serve", help="run the HTTP annotation service")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--bind", help="host:port")
    p.add_argument("--model")
    p.add_argument("--max-bytes", type=int)
    p.add_argument("--format", choices=list(service.FORMATS))
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        stderr.write(f"usage error: {err}\n")
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args, stdin, stdout, stderr)
    except UsageError as err:
        stderr.write(f"usage error: {err}\n")
        return 1
    except (UdbridgeError, OSError, UnicodeError) as err:
        stderr.write(f"error: {err}\n")
        return 2


def run() -> None:
    raise SystemExit(main())
