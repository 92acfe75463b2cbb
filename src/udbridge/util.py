"""Small shared helpers: rounding, hashing, reading and writing text files,
the TSV layout and the rule of the scoring memos."""

import contextlib
import hashlib
import os
import secrets
from decimal import ROUND_HALF_UP, Decimal

from .errors import DataError

# How many entries each scoring memo holds before it is cleared and starts
# over (see remember).
MEMO_ENTRIES = 1 << 12


def remember(memo: dict, key, value):
    """Store `value` under `key` in `memo` and return it; a memo that holds
    MEMO_ENTRIES entries is cleared first, so its memory is bounded
    whatever the input.

    Every scoring memo (the tagger's, the lemmatizer's and the parser's)
    stores through this, and handler threads share them: a dict get, set
    or clear() is atomic; two threads that miss the same key store equal
    values; a key lost to another thread's clear() is only computed again;
    and threads that pass the size check together may each add one entry
    past the bound before the next clear().
    """
    if len(memo) >= MEMO_ENTRIES:
        memo.clear()
    memo[key] = value
    return value


def round_half_up(value: float, decimals: int = 0) -> float:
    """Round with ties going away from zero, e.g. 15.5 -> 16, 75.05 -> 75.1.

    Banker's rounding (the builtin round) would send 15.5 to 16 but 16.5 to
    16; published percentage tables use the away-from-zero convention.
    """
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def percentage(count: int, total: int, decimals: int = 1) -> float:
    if total == 0:
        raise ZeroDivisionError("percentage of an empty total")
    return round_half_up(100.0 * count / total, decimals)


def short_hash(data: bytes, length: int = 12) -> str:
    """Stable short identifier for model files and corpora."""
    return hashlib.sha256(data).hexdigest()[:length]


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a missing or undecodable file is a
    DataError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path}: {err}") from None


def tsv(rows) -> str:
    """Rows as TSV: values as str, joined by tabs, each row ended by a
    newline (an empty row is a blank line)."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def write_atomically(path: str, text: str) -> None:
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
