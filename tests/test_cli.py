import io

import pytest

from synth import GENRES, corpus_text, make_bitext, make_corpus, strip_annotations
from udbridge.cli import main
from udbridge.conllu import parse_conllu, serialize_conllu
from udbridge.pipeline import train_pipeline


def run(argv, stdin_text: str = ""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    train_pipeline(make_corpus(120, seed=1), epochs=3).save(path)
    return path


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error():
    code, out, err = run(["frobnicate"])
    assert code == 1
    assert "usage error" in err
    assert out == ""


def test_missing_required_flag_is_usage_error():
    code, _, err = run(["train"])
    assert code == 1 and "usage error" in err


def test_help_exits_zero():
    code, _, _ = run(["--help"])
    assert code == 0


def test_missing_input_file_exits_two():
    code, _, err = run(["tokenize", "/no/such/file.txt"])
    assert code == 2 and err.startswith("error: ")


def test_data_error_exits_two(tmp_path):
    bogus = tmp_path / "model.json"
    bogus.write_text("{}", encoding="utf-8")
    code, _, err = run(["annotate", "--model", str(bogus)], "Wat no?")
    assert code == 2 and err.startswith("error: ")


def test_a_defaulted_sent_id_that_repeats_a_given_one_exits_two(tmp_path, model_path):
    conllu = tmp_path / "in.conllu"
    conllu.write_text("# sent_id = 2\n1\tDe\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
                      "1\tman\t_\t_\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
    code, out, err = run(["annotate", "--model", model_path, "--setting", "goldtok", str(conllu)])
    assert code == 2 and out == ""
    assert "sentence 2 has no sent_id, and its default '2' is the sent_id of sentence 1" in err


# ----------------------------------------------------------------- fisher


def test_fisher_prints_seven_decimals():
    code, out, _ = run(["fisher", "5", "0", "0", "5"])
    assert code == 0
    assert out == "p=0.0079365\n"
    assert run(["fisher", "10", "10", "10", "10"])[1] == "p=1.0000000\n"


def test_fisher_rejects_negative_cells():
    code, _, err = run(["fisher", "-1", "0", "0", "5"])
    assert code in (1, 2)
    assert err


# --------------------------------------------------------------- bootstrap


def test_bootstrap_output_lines():
    code, out, _ = run(
        ["bootstrap", "--a", "10,11,12,13,14", "--b", "0,1,2,3,4", "--iterations", "1000"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "median_diff\t10"
    assert lines[1].startswith("ci95\t")
    assert lines[2] == "p\t0.0010000"


def test_bootstrap_bad_list_is_usage_error():
    code, _, err = run(["bootstrap", "--a", "1,2,x,4,5", "--b", "1,2,3,4,5"])
    assert code == 1 and "usage error" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_bootstrap_non_finite_value_is_a_data_error(bad):
    code, out, err = run(["bootstrap", "--a", f"1,2,3,4,{bad}", "--b", "1,2,3,4,5"])
    assert code == 2 and out == "" and err.startswith("error: ")


# ---------------------------------------------------------------- tokenize


def test_tokenize_from_stdin():
    code, out, _ = run(["tokenize"], "De man rint.")
    assert code == 0
    doc = parse_conllu(out)
    assert [t.form for t in doc.sentences[0].tokens] == ["De", "man", "rint", "."]
    assert "# text = De man rint." in out


def test_tokenize_empty_input():
    assert run(["tokenize"], "") == (0, "", "")


def test_tokenize_abbreviations_file(tmp_path):
    abbr = tmp_path / "abbr.txt"
    abbr.write_text("bgl.\n", encoding="utf-8")
    code, out, _ = run(["tokenize", "--abbreviations", str(abbr)], "Sjoch bgl. dit.")
    assert code == 0
    assert len(parse_conllu(out).sentences) == 1
    assert "bgl." in out


# --------------------------------------------------------------- translate


def test_translate_identity_lines():
    code, out, _ = run(["translate"], "de man\n\nrint")
    assert code == 0
    assert out == "de man\n\nrint\n"


def test_translate_lexicon_backend(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tnl_de\nman\tnl_man\n", encoding="utf-8")
    code, out, err = run(
        ["translate", "--backend", "lexicon", "--lexicon", str(lex)], "de man\nwier"
    )
    assert code == 0
    assert out == "nl_de nl_man\nwier\n"
    assert "fallbacks: 1" in err


def test_translate_lexicon_requires_file():
    code, _, err = run(["translate", "--backend", "lexicon"], "de")
    assert code == 1 and "usage error" in err


def test_translate_saves_cache(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tnl_de\n", encoding="utf-8")
    cache = tmp_path / "cache.tsv"
    code, _, _ = run(
        [
            "translate",
            "--backend",
            "lexicon",
            "--lexicon",
            str(lex),
            "--cache",
            str(cache),
        ],
        "de de",
    )
    assert code == 0
    assert "de\tnl_de" in cache.read_text(encoding="utf-8")


def test_undecodable_input_exits_two(tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("De f\xe2n sjocht.\tne\n".encode("latin-1"))
    for argv in (
        ["tokenize", str(latin1)],
        ["translate", "--backend", "lexicon", "--lexicon", str(latin1)],
    ):
        code, out, err = run(argv, "de")
        assert code == 2 and err.startswith("error: "), argv
        assert out == ""


def test_missing_lexicon_is_an_error(tmp_path):
    missing = str(tmp_path / "nosuch.tsv")
    code, out, err = run(["translate", "--backend", "lexicon", "--lexicon", missing], "de man")
    assert code == 2
    assert err.startswith(f"error: cannot read {missing}: "), err
    assert out == ""


def _undecodable_file(path) -> str:
    path.write_bytes("De f\xe2n\tne\n".encode("latin-1"))
    return str(path)


def test_undecodable_second_input_is_named(tmp_path):
    bitext = tmp_path / "bitext.txt"
    bitext.write_text(TOY_BITEXT, encoding="utf-8")
    table = _undecodable_file(tmp_path / "latin1.tsv")
    code, out, err = run(["align", str(bitext), "--load-table", table])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {table}: 'utf-8' codec"), err

    ok = tmp_path / "ok.conllu"
    ok.write_text(serialize_conllu(make_corpus(5, seed=2)), encoding="utf-8")
    dev = _undecodable_file(tmp_path / "latin1.conllu")
    argv = ["train", "--train", str(ok), "--dev", dev, "--out", str(tmp_path / "m.json")]
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {dev}: 'utf-8' codec"), err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("reader", ["abbreviations", "config", "cache", "system", "links"])
def test_every_reader_names_an_undecodable_file(tmp_path, reader):
    bad = _undecodable_file(tmp_path / "bad.txt")
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(make_corpus(3, seed=4)), encoding="utf-8")
    argv, stdin = {
        "abbreviations": (["tokenize", "--abbreviations", bad], "De man rint."),
        "config": (["serve", "--config", bad], ""),
        "cache": (["translate", "--cache", bad], "de man"),
        "system": (["evaluate", "--gold", str(gold), "--system", bad], ""),
        "links": (
            ["project", "--procedure", "align", "--source", str(gold), "--links", bad],
            gold.read_text(encoding="utf-8"),
        ),
    }[reader]
    code, out, err = run(argv, stdin)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec"), err


# -------------------------------------------------------------------- align


@pytest.mark.parametrize("line", ["a\tx", "a\tx\tlikely", "a\tx\t0.5\t1"])
def test_align_rejects_malformed_table_lines(tmp_path, line):
    table = tmp_path / "table.tsv"
    table.write_text(f"# iterations=1\nb\ty\t1.0\n{line}\n", encoding="utf-8")
    code, _, err = run(["align", "--load-table", str(table)], "a b ||| x y\n")
    assert code == 2
    assert err.startswith("error: translation table line 3:"), err


TOY_BITEXT = "\n".join(["a b ||| x y"] * 30 + ["a ||| x"] * 30) + "\n"


def test_align_learns_toy_bitext(tmp_path):
    table_file = str(tmp_path / "table.json")
    code, out, err = run(
        [
            "align",
            "--lambda",
            "0",
            "--iterations",
            "10",
            "--save-table",
            table_file,
            "--diagnostics",
        ],
        TOY_BITEXT,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 60
    assert set(lines) == {"0-0 1-1", "0-0"}
    assert "crossing link pairs: 0" in err

    reloaded = run(
        ["align", "--load-table", table_file, "--lambda", "0", "--iterations", "10"],
        TOY_BITEXT,
    )
    assert reloaded[0] == 0
    assert reloaded[1] == out


def test_a_loaded_table_decodes_under_its_saved_settings(tmp_path):
    pairs = make_bitext(make_corpus(20, seed=1))
    bitext = "".join(f"{' '.join(s)} ||| {' '.join(t)}\n" for s, t in pairs)
    table_file = str(tmp_path / "table.tsv")
    flags = ["--lambda", "0", "--null-prob", "0.5"]
    saved = run(["align", *flags, "--save-table", table_file], bitext)
    assert saved[0] == 0 and len(saved[1].splitlines()) == 20
    # no flags: the header's lambda=0.0 null_prob=0.5 win over the defaults
    assert run(["align", "--load-table", table_file], bitext) == saved
    assert run(["align", "--load-table", table_file, "--lambda", "4"], bitext) == saved


@pytest.mark.parametrize("header, message", [
    ("# iterations=5 lambda=often", "expected '# iterations=N lambda=X"),
    ("# seed=1 seed=2", "expected '# iterations=N lambda=X"),
    ("# null_prob=1.0", "null_prob must be in [0, 1)"),
    ("# lambda=inf", "lambda must be a finite number >= 0, got inf"),
])
def test_align_rejects_a_malformed_table_header(tmp_path, header, message):
    table = tmp_path / "table.tsv"
    table.write_text(f"{header}\na\tx\t1.0\n", encoding="utf-8")
    code, out, err = run(["align", "--load-table", str(table)], "a b ||| x y\n")
    assert code == 2 and out == ""
    assert err.startswith(f"error: translation table line 1: {message}"), err


def test_align_rejects_bad_bitext():
    code, _, err = run(["align"], "no separator here\n")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("null_prob", ["0", "0.08"])
def test_align_refuses_a_source_token_named_like_the_null_word(null_prob):
    bitext = "<null> a ||| x y\na ||| w\nb <null> ||| z x\n"
    code, out, err = run(["align", "--null-prob", null_prob], bitext)
    assert (code, out) == (2, "")
    assert err == "error: bitext line 1: source token '<null>' is the name of the null word\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_align_rejects_a_lambda_that_is_not_finite(value):
    code, out, err = run(["align", "--lambda", value], "a b c ||| x y\n")
    assert code == 2 and out == ""
    assert err == f"error: lambda must be a finite number >= 0, got {value}\n", err


def test_align_rejects_a_lambda_that_leaves_a_position_no_prior():
    # exp(-1e6 * d) underflows to 0 for every source of target position 2
    code, out, err = run(["align", "--lambda", "1e6"], "a b c ||| x y\n")
    assert code == 2 and out == ""
    assert err.startswith("error: lambda=1000000.0 leaves target position 2 of a 3 x 2"), err


def test_align_drops_a_source_word_that_gets_no_counts(tmp_path):
    # c, d and e get prior 0 for the only target word, so their counts stay
    # 0 in every iteration and their rows are dropped, not divided by 0
    table_file = tmp_path / "table.tsv"
    code, out, err = run(
        ["align", "--lambda", "3000", "--save-table", str(table_file)], "a b c d e ||| x\n"
    )
    assert (code, out, err) == (0, "0-0\n", "")
    rows = {line.split("\t")[0] for line in table_file.read_text().splitlines()[1:]}
    assert rows == {"<null>", "a", "b"}


# ----------------------------------------------------- train and annotate


def test_train_annotate_evaluate_round_trip(tmp_path):
    gold = make_corpus(60, seed=5)
    train_file = tmp_path / "train.conllu"
    train_file.write_text(serialize_conllu(gold), encoding="utf-8")
    model_file = str(tmp_path / "model.json")

    code, out, err = run(
        ["train", "--train", str(train_file), "--out", model_file, "--epochs", "2"]
    )
    assert code == 0 and out == ""
    assert "trained on 60 sentences" in err

    heldout = make_corpus(10, seed=6)
    code, annotated, _ = run(
        ["annotate", "--model", model_file], corpus_text(heldout)
    )
    assert code == 0
    system = parse_conllu(annotated)
    assert len(system.sentences) == 10

    gold_file = tmp_path / "gold.conllu"
    gold_file.write_text(serialize_conllu(heldout), encoding="utf-8")
    sys_file = tmp_path / "system.conllu"
    sys_file.write_text(annotated, encoding="utf-8")
    code, report, _ = run(
        [
            "evaluate",
            "--gold",
            str(gold_file),
            "--system",
            str(sys_file),
            "--setting",
            "raw",
        ]
    )
    assert code == 0
    assert report.splitlines()[0] == "metric\tvalue"
    assert "f1_words\t100.0" in report
    assert "upos\t" in report


def test_train_with_split_writes_test_cut(tmp_path):
    train_file = tmp_path / "all.conllu"
    train_file.write_text(serialize_conllu(make_corpus(50, seed=2)), encoding="utf-8")
    model_file = str(tmp_path / "model.json")
    test_file = str(tmp_path / "test.conllu")
    code, _, err = run(
        [
            "train",
            "--train",
            str(train_file),
            "--split",
            "--test-out",
            test_file,
            "--out",
            model_file,
            "--epochs",
            "1",
        ]
    )
    assert code == 0
    assert "trained on 40 sentences, dev 5" in err
    with open(test_file, encoding="utf-8") as fh:
        assert len(parse_conllu(fh.read()).sentences) == 5


def test_train_refuses_dev_with_split(tmp_path):
    train_file = tmp_path / "all.conllu"
    train_file.write_text(serialize_conllu(make_corpus(20, seed=2)), encoding="utf-8")
    model_file = tmp_path / "model.json"
    for dev in (str(train_file), str(tmp_path / "missing.conllu")):
        code, _, err = run(
            ["train", "--train", str(train_file), "--split", "--dev", dev, "--out", str(model_file)]
        )
        assert code == 1 and "usage error" in err and "--dev" in err
    assert not model_file.exists()


def test_train_refuses_test_out_without_split(tmp_path):
    train_file = tmp_path / "all.conllu"
    train_file.write_text(serialize_conllu(make_corpus(20, seed=2)), encoding="utf-8")
    model_file, test_file = tmp_path / "model.json", tmp_path / "test.conllu"
    code, _, err = run(
        ["train", "--train", str(train_file), "--test-out", str(test_file),
         "--out", str(model_file)]
    )
    assert code == 1 and "usage error" in err and "--test-out needs --split" in err
    assert not model_file.exists() and not test_file.exists()


@pytest.mark.parametrize("dev_text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_train_refuses_a_dev_file_without_sentences(tmp_path, dev_text):
    # A sentence-less dev file used to train as if none were given and exit 0.
    train_file = tmp_path / "train.conllu"
    train_file.write_text(serialize_conllu(make_corpus(20, seed=2)), encoding="utf-8")
    dev = tmp_path / "dev.conllu"
    dev.write_text(dev_text, encoding="utf-8")
    model_file = tmp_path / "model.json"
    code, out, err = run(
        ["train", "--train", str(train_file), "--dev", str(dev), "--out", str(model_file)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {dev}: the dev file holds no sentences\n"
    assert not model_file.exists()


def test_train_parser_error_exits_two(tmp_path, two_cpus):
    gold = make_corpus(30, seed=3)
    gold.sentences[5].tokens[1].head = None
    train_file = tmp_path / "train.conllu"
    train_file.write_text(serialize_conllu(gold), encoding="utf-8")
    model_file = tmp_path / "model.json"
    code, _, err = run(["train", "--train", str(train_file), "--out", str(model_file)])
    assert code == 2
    assert err == "error: sentence synth-6: token 2 has no head\n"
    assert not model_file.exists()
    assert len(two_cpus) == 1  # the parser trained in a child


def test_annotate_tsv_format(model_path):
    code, out, _ = run(
        ["annotate", "--model", model_path, "--format", "tsv"], "De man rint."
    )
    assert code == 0
    assert out.splitlines()[0].startswith("doc_id\tsent_id\ttoken_id\tform")


def test_annotate_goldtok_reads_conllu(model_path):
    bare = strip_annotations(make_corpus(5, seed=8))
    code, out, _ = run(
        ["annotate", "--model", model_path, "--setting", "goldtok"],
        serialize_conllu(bare),
    )
    assert code == 0
    doc = parse_conllu(out)
    assert all(t.upos is not None for s in doc.sentences for t in s.tokens)


# ---------------------------------------------------------------- project


def test_project_direct_with_provenance(model_path):
    bare = serialize_conllu(strip_annotations(make_corpus(4, seed=9)))
    code, out, _ = run(
        ["project", "--procedure", "direct", "--model", model_path, "--provenance"],
        bare,
    )
    assert code == 0
    assert "Proj=direct" in out

    plain = run(["project", "--procedure", "direct", "--model", model_path], bare)
    assert plain[0] == 0
    assert "Proj=" not in plain[1]


def test_project_pivot_needs_model():
    code, _, err = run(["project", "--procedure", "pivot"], "")
    assert code == 1 and "usage error" in err


def test_project_pivot_saves_its_cache(tmp_path, model_path):
    target = strip_annotations(make_corpus(3, seed=10))
    lex = tmp_path / "lex.tsv"
    lex.write_text("boek\tbook\n", encoding="utf-8")
    cache = tmp_path / "cache.tsv"
    cache.write_text("faak\toften\n", encoding="utf-8")
    code, _, _ = run(
        [
            "project",
            "--procedure",
            "pivot",
            "--model",
            model_path,
            "--backend",
            "lexicon",
            "--lexicon",
            str(lex),
            "--cache",
            str(cache),
        ],
        serialize_conllu(target),
    )
    assert code == 0
    assert cache.read_text(encoding="utf-8").splitlines() == ["boek\tbook", "faak\toften"]


def test_project_pivot_reports_fallbacks(tmp_path, model_path):
    target = strip_annotations(make_corpus(3, seed=10))
    lex = tmp_path / "lex.tsv"
    lex.write_text("boek\tbook\n", encoding="utf-8")
    code, out, err = run(
        [
            "project",
            "--procedure",
            "pivot",
            "--model",
            model_path,
            "--provenance",
            "--backend",
            "lexicon",
            "--lexicon",
            str(lex),
        ],
        serialize_conllu(target),
    )
    assert code == 0
    fallbacks = out.count("Fallback=yes")
    assert fallbacks > 0
    assert err == f"fallbacks: {fallbacks}\n"


def test_project_align_via_files(tmp_path, model_path):
    target = strip_annotations(make_corpus(3, seed=10))
    source = make_corpus(3, seed=10)
    source_file = tmp_path / "source.conllu"
    source_file.write_text(serialize_conllu(source), encoding="utf-8")
    links_file = tmp_path / "links.txt"
    links_file.write_text(
        "\n".join(
            " ".join(f"{i}-{i}" for i in range(len(s.tokens)))
            for s in target.sentences
        )
        + "\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        [
            "project",
            "--procedure",
            "align",
            "--source",
            str(source_file),
            "--links",
            str(links_file),
        ],
        serialize_conllu(target),
    )
    assert code == 0
    projected = parse_conllu(out)
    assert [t.upos for t in projected.sentences[0].tokens] == [
        t.upos for t in source.sentences[0].tokens
    ]

    code, _, err = run(
        ["project", "--procedure", "align", "--links", str(links_file)],
        serialize_conllu(target),
    )
    assert code == 1 and "usage error" in err


# --------------------------------------------------------------------- cv


def test_cv_summary_output():
    corpus = serialize_conllu(make_corpus(30, seed=11))
    code, out, _ = run(["cv", "--k", "3", "--epochs", "1"], corpus)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "metric\tgoldtok_mean\tgoldtok_sd"
    assert any(line.startswith("uas\t") for line in lines)


# ------------------------------------------------------------------ stats


def test_stats_genres_report():
    corpus = serialize_conllu(make_corpus(30, seed=12, genres=GENRES))
    code, out, _ = run(["stats", "--report", "genres"], corpus)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("genre\ttokens")
    assert lines[-1].startswith("total\t")
    assert {l.split("\t")[0] for l in lines[1:-1]} == set(GENRES)


def test_stats_top_report():
    corpus = serialize_conllu(make_corpus(20, seed=13))
    code, out, _ = run(["stats", "--report", "top", "--top-n", "2"], corpus)
    assert code == 0
    assert out.splitlines()[0] == "upos\trank\tform\tcount"


def test_stats_cooc_needs_filter():
    corpus = serialize_conllu(make_corpus(10, seed=13))
    code, _, err = run(["stats", "--report", "cooc"], corpus)
    assert code == 1 and "usage error" in err
    ok = run(["stats", "--report", "cooc", "--upos-filter", "NOUN"], corpus)
    assert ok[0] == 0
    assert ok[1].splitlines()[0] == "lemma_a\tlemma_b\tweight"


# ------------------------------------------------------------------ serve


def test_serve_without_model_exits_two():
    code, _, err = run(["serve"])
    assert code == 2 and err.startswith("error: ")


def test_serve_rejects_a_port_out_of_range(model_path):
    code, out, err = run(["serve", "--model", model_path, "--bind", "127.0.0.1:99999"])
    assert code == 2 and out == ""
    assert err == "error: bind address must be host:port (port 0-65535), got '127.0.0.1:99999'\n"
