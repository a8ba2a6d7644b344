"""Strict JSON: one encoder/decoder pair for every artifact the library trusts.

Writes reject ``NaN``/``Infinity`` (:func:`line`, :func:`canonical`); reads
reject them too and name ``path:lineno`` (:func:`read_jsonl`,
:func:`read_json`); :func:`atomic_write` replaces a file via tmp + rename;
:func:`canonical` is the byte form every content digest is computed over.
:mod:`repro.analyze.certcheck` keeps its own canonicaliser on purpose: the
independent checker shares no code with what it checks.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from pathlib import Path
from typing import Any, NoReturn

from repro.errors import EbdaError

__all__ = [
    "atomic_write",
    "canonical",
    "line",
    "loads",
    "read_json",
    "read_jsonl",
    "write_jsonl",
]


def _reject_constant(token: str) -> NoReturn:
    raise ValueError(f"non-strict JSON constant {token!r}")


_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
)
_LINE = json.JSONEncoder(ensure_ascii=True, allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

#: A JSON string literal, or (group 1) a bare non-finite constant.
_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def canonical(obj: Any) -> str:
    """Sorted keys, ``(",", ":")`` separators, ASCII: equal bytes iff equal values."""
    return _CANONICAL.encode(obj)


def line(obj: Any) -> str:
    """One strict JSON line (``json.dumps`` layout, insertion-ordered keys)."""
    return _LINE.encode(obj)


def loads(text: str) -> Any:
    """Decode strict JSON; ``ValueError`` on bad syntax or ``NaN``/``Infinity``."""
    return _DECODER.decode(text)


def _read(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise EbdaError(f"cannot read {what} file {path}: not found") from None
    except (OSError, UnicodeError) as exc:
        raise EbdaError(f"cannot read {what} file {path}: {exc}") from None


def _lineno(text: str, exc: ValueError) -> int:
    """The line a decode error points at (a rejected constant has no position)."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.lineno
    for match in _CONSTANT.finditer(text):
        if match.group(1):
            return text.count("\n", 0, match.start()) + 1
    return 1


def read_json(path: str | Path, what: str) -> dict[str, Any]:
    """Load a file holding one strict JSON object; :class:`EbdaError` otherwise."""
    text = _read(path, what)
    try:
        value = _DECODER.decode(text)
    except ValueError as exc:
        raise EbdaError(f"{path}:{_lineno(text, exc)}: not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise EbdaError(f"{path}: {what} file must hold a JSON object")
    return value


def read_jsonl(path: str | Path, what: str) -> list[tuple[int, dict[str, Any]]]:
    """``(lineno, object)`` for every non-blank line of a strict JSONL file."""
    records = []
    for lineno, text in enumerate(_read(path, what).splitlines(), start=1):
        if not text.strip():
            continue
        try:
            record = _DECODER.decode(text)
        except ValueError as exc:
            raise EbdaError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise EbdaError(f"{path}:{lineno}: {what} line must be a JSON object")
        records.append((lineno, record))
    return records


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write one strict :func:`line` per record; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_LINE.encode(record) + "\n")
            count += 1
    return count


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a tmp file + ``os.replace``."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
