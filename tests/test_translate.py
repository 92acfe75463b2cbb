"""Pivot translation: backends, quoting convention, cache, fallback."""

import io
import json
import os
import logging
import socket
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from udbridge.cli import main
from udbridge.errors import DataError
from udbridge.translate import (
    IdentityBackend,
    LexiconCache,
    PivotSentence,
    Quoting,
    DEAD_AFTER,
    RemoteServiceBackend,
    StaticLexiconBackend,
    TranslatorClient,
    load_lexicon,
)


class EchoStub:
    """Local HTTP endpoint that records request bodies and echoes the text."""

    def __init__(self, fail_times: int = 0, null_reply: bool = False):
        self.bodies: list[str] = []
        remaining = {"fail": fail_times}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                stub.bodies.append(raw.decode("utf-8"))
                if remaining["fail"] > 0:
                    remaining["fail"] -= 1
                    self.send_error(500)
                    return
                text = None if null_reply else json.loads(raw)["text"]
                reply = json.dumps({"translation": text}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self.server.server_address[1]}/translate"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def test_double_quote_convention_on_the_wire():
    stub = EchoStub()
    try:
        client = TranslatorClient(
            RemoteServiceBackend(stub.endpoint), quoting=Quoting.DOUBLE
        )
        assert client.translate_word("wurd") == "wurd"
    finally:
        stub.close()
    sent = json.loads(stub.bodies[0])
    assert sent["text"] == '"wurd"'
    assert '\\"wurd\\"' in stub.bodies[0]  # literal quotes inside the JSON body
    assert sent["direction"] == "src-pivot"


def test_single_quote_convention():
    stub = EchoStub()
    try:
        client = TranslatorClient(
            RemoteServiceBackend(stub.endpoint), quoting=Quoting.SINGLE
        )
        assert client.translate_word("hûs") == "hûs"
    finally:
        stub.close()
    assert json.loads(stub.bodies[0])["text"] == "'hûs'"


def test_retry_then_success():
    stub = EchoStub(fail_times=2)
    try:
        client = TranslatorClient(RemoteServiceBackend(stub.endpoint), max_retries=2)
        assert client.translate_word("trije") == "trije"
        assert client.fallback_count == 0
        assert client.remote_calls == 3
    finally:
        stub.close()


def test_fallback_after_exhausted_retries():
    stub = EchoStub(fail_times=10)
    try:
        client = TranslatorClient(RemoteServiceBackend(stub.endpoint), max_retries=1)
        assert client.translate_word("wenje") == "wenje"
        assert client.fallback_count == 1
        assert client.remote_calls == 2
    finally:
        stub.close()


def test_remote_null_translation_falls_back():
    stub = EchoStub(null_reply=True)
    try:
        client = TranslatorClient(RemoteServiceBackend(stub.endpoint))
        assert client.translate_word("wurd") == "wurd"
        assert client.fallback_count == 1
        assert client.remote_calls == 1
    finally:
        stub.close()


def test_an_error_reply_is_closed():
    stub = EchoStub(fail_times=1)
    try:
        with pytest.raises(urllib.error.HTTPError) as info:
            RemoteServiceBackend(stub.endpoint).translate("wurd")
    finally:
        stub.close()
    assert info.value.fp.closed


def test_identity_backend_and_sentence_fallback_flags():
    client = TranslatorClient(IdentityBackend())
    sent = client.translate_sentence(["De", "man", "rint", "."])
    assert sent.pivot_tokens == ["De", "man", "rint", "."]
    assert sent.fallbacks == [False, False, False, False]


def test_static_lexicon_backend_misses_fall_back():
    client = TranslatorClient(StaticLexiconBackend({"man": "man_nl"}), max_retries=0)
    sent = client.translate_sentence(["man", "gjalp"])
    assert sent.pivot_tokens == ["man_nl", "gjalp"]
    assert sent.fallbacks == [False, True]
    assert client.fallback_count == 1


def test_a_lexicon_miss_costs_one_call_and_logs_nothing(caplog):
    client = TranslatorClient(StaticLexiconBackend({"man": "man_nl"}))
    with caplog.at_level(logging.DEBUG):
        assert client.translate_word("gjalp") == "gjalp"
    assert client.remote_calls == 1
    assert client.fallback_count == 1
    assert caplog.records == []


class CountingBackend:
    """A lexicon backend that records every word it is asked for and
    raises for each word listed in `errors` as often as listed there."""

    def __init__(self, lexicon: dict, errors: dict | None = None):
        self.lexicon = lexicon
        self.errors = dict(errors or {})
        self.calls: list[str] = []

    def translate(self, word):
        self.calls.append(word)
        if self.errors.get(word):
            self.errors[word] -= 1
            raise OSError("backend down")
        return self.lexicon.get(word)


def test_a_word_without_translation_is_asked_for_once(tmp_path):
    cache_path = str(tmp_path / "cache.tsv")
    backend = CountingBackend({"ien": "een", "leech": "  "})
    client = TranslatorClient(backend, cache=LexiconCache(cache_path))
    sent = client.translate_sentence(["mis", "ien", "mis", "leech", "leech", "mis", "ien"])
    assert sent.pivot_tokens == ["mis", "een", "mis", "leech", "leech", "mis", "een"]
    assert sent.fallbacks == [True, False, True, True, True, True, False]
    assert backend.calls == ["mis", "ien", "leech"]
    assert client.remote_calls == 3
    assert client.fallback_count == 5
    # misses live only as long as the client: the cache file holds none
    client.cache.save()
    assert load_lexicon(cache_path) == {"ien": "een"}
    assert TranslatorClient(backend).translate_word("mis") == "mis"
    assert backend.calls[-1] == "mis"


def test_a_word_whose_attempts_failed_is_asked_for_again():
    backend = CountingBackend({"wurd": "woord"}, errors={"wurd": 2})
    client = TranslatorClient(backend, max_retries=1)
    assert client.translate_word("wurd") == "wurd"
    assert client.fallback_count == 1
    assert client.translate_word("wurd") == "woord"
    assert backend.calls == ["wurd"] * 3
    assert client.fallback_count == 1


def test_a_dead_backend_is_called_no_more():
    backend = CountingBackend({}, errors={w: 99 for w in "abcdef"})
    client = TranslatorClient(backend, max_retries=2)
    sent = client.translate_sentence(list("abcdefa"))
    assert sent.pivot_tokens == list("abcdefa")
    assert sent.fallbacks == [True] * 7
    assert client.fallback_count == 7
    assert DEAD_AFTER == 3
    assert backend.calls == ["a"] * 3 + ["b"] * 3 + ["c"] * 3
    assert client.remote_calls == 9


def test_a_translation_or_a_miss_resets_the_dead_count(tmp_path):
    errors = {w: 99 for w in ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]}
    backend = CountingBackend({"ok": "goed"}, errors=errors)
    client = TranslatorClient(backend, max_retries=1, cache=LexiconCache())
    words = ["e1", "e2", "ok", "e3", "e4", "mis", "e5", "e6", "e7", "e8", "ok", "mis"]
    sent = client.translate_sentence(words)
    # e1, e2 and e3, e4 fail, but a translation and a miss come between;
    # e5, e6 and e7 fail in a row, so e8 and the second miss are not sent,
    # and the cached translation still holds
    assert sent.pivot_tokens == words[:2] + ["goed"] + words[3:10] + ["goed", "mis"]
    assert sent.fallbacks == [True, True, False] + [True] * 7 + [False, True]
    assert backend.calls == (
        ["e1", "e1", "e2", "e2", "ok", "e3", "e3", "e4", "e4", "mis"]
        + ["e5", "e5", "e6", "e6", "e7", "e7"]
    )
    assert client.fallback_count == 10


def test_a_remote_backend_on_a_closed_port_is_given_up():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # nothing listens on the port now, so every connection is refused
    client = TranslatorClient(RemoteServiceBackend(f"http://127.0.0.1:{port}/translate"))
    sent = client.translate_sentence(["de", "man", "rint", "nei", "hûs", "."])
    assert sent.pivot_tokens == ["de", "man", "rint", "nei", "hûs", "."]
    assert sent.fallbacks == [True] * 6
    assert client.remote_calls == 3 * DEAD_AFTER
    assert client.fallback_count == 6


def test_multiword_answer_collapses_to_first():
    class Wordy:
        def translate(self, word):
            return "twa wurden"

    client = TranslatorClient(Wordy())
    assert client.translate_word("x") == "twa"


def test_empty_answer_falls_back():
    class Silent:
        def translate(self, word):
            return "  "

    client = TranslatorClient(Silent())
    assert client.translate_word("x") == "x"
    assert client.fallback_count == 1


def test_a_quoted_blank_answer_falls_back():
    class QuotedBlank:
        def translate(self, word):
            return "'  '"

    client = TranslatorClient(QuotedBlank(), quoting=Quoting.SINGLE)
    assert client.translate_word("x") == "x"
    assert client.fallback_count == 1


def test_rejects_non_words():
    client = TranslatorClient(IdentityBackend())
    with pytest.raises(DataError):
        client.translate_word("")
    with pytest.raises(DataError):
        client.translate_word("two words")


def test_cache_hit_skips_backend_and_only_successes_are_cached(tmp_path):
    cache_path = str(tmp_path / "cache.tsv")
    cache = LexiconCache()
    failing = TranslatorClient(
        StaticLexiconBackend({"ien": "een"}), cache=cache, max_retries=0
    )
    assert failing.translate_word("ien") == "een"
    assert failing.translate_word("mis") == "mis"  # fallback, must not be cached
    assert cache.lookup("ien") == "een"
    assert cache.lookup("mis") is None
    assert failing.remote_calls == 1 + 1

    # a second client with the primed cache never touches its backend
    client = TranslatorClient(StaticLexiconBackend({}), cache=cache, max_retries=0)
    assert client.translate_word("ien") == "een"
    assert client.remote_calls == 0

    cache.save(cache_path)
    assert load_lexicon(cache_path) == {"ien": "een"}
    assert LexiconCache(cache_path).lookup("ien") == "een"


def test_cache_counts_hits_and_misses():
    cache = LexiconCache()
    cache.store("a", "b")
    assert cache.lookup("a") == "b"
    assert cache.lookup("zz") is None
    assert cache.hits == 1
    assert cache.misses == 1
    assert len(cache) == 1


def test_pivot_sentence_validates_lengths():
    with pytest.raises(DataError):
        PivotSentence(["a", "b"], ["x"])
    with pytest.raises(DataError):
        PivotSentence(["a"], ["x"], fallbacks=[False, True])


def test_quoting_enum_chars():
    assert Quoting.NONE.char == ""
    assert Quoting.SINGLE.char == "'"
    assert Quoting.DOUBLE.char == '"'


def test_negative_retries_are_rejected():
    with pytest.raises(DataError, match="max_retries"):
        TranslatorClient(IdentityBackend(), max_retries=-1)


def test_a_reply_utf8_cannot_encode_falls_back_and_keeps_the_cache(tmp_path):
    cache = tmp_path / "cache.tsv"
    cache.write_text("hûs\thuis\n", encoding="utf-8")
    stub = EchoStub()  # echoes the lone surrogate back as the translation
    out, err = io.StringIO(), io.StringIO()
    try:
        argv = ["translate", "--backend", "remote", "--endpoint", stub.endpoint, "--cache", str(cache)]
        code = main(argv, stdin=io.StringIO("hûs \udc80\n"), stdout=out, stderr=err)
    finally:
        stub.close()
    assert code == 0
    assert len(stub.bodies) == 3  # every attempt failed, then the word fell back
    assert out.getvalue() == "huis \udc80\n"
    assert err.getvalue() == "fallbacks: 1\n"
    assert cache.read_text(encoding="utf-8") == "hûs\thuis\n"


def test_a_cache_that_cannot_be_saved_keeps_its_old_file(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("hûs\thuis\n", encoding="utf-8")
    cache = LexiconCache(str(path))
    cache.store("man", "\udc80")
    with pytest.raises(UnicodeEncodeError):
        cache.save()
    assert path.read_text(encoding="utf-8") == "hûs\thuis\n"
    assert os.listdir(tmp_path) == ["cache.tsv"]


def test_output_utf8_cannot_encode_is_exit_2():
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    assert main(["translate"], stdin=io.StringIO("\udc80\n"), stdout=stdout, stderr=err) == 2
    assert err.getvalue().startswith("error: ") and "surrogate" in err.getvalue()
