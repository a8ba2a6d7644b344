"""The regression corpus: persisted witnesses with exact-replay metadata.

Each entry is one JSON file holding a :class:`FuzzDesign` recipe plus
provenance (generator seed/trial when the fuzzer found it, a free-form
note, and the expected classification).  File names are content-addressed
— ``fuzz-<sha256 prefix of the canonical design JSON>.json`` — so saving
the same witness twice is idempotent and entries never collide.

The committed corpus under ``tests/fuzz/corpus/`` is a set of known-unsafe
designs that every release must keep detecting; :func:`replay_entry` runs
one through a fresh :class:`~repro.fuzz.oracle.DifferentialOracle` and
compares against the recorded expectation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro import jsonio
from repro.fuzz.design import FuzzDesign
from repro.fuzz.oracle import DifferentialOracle, TrialResult

__all__ = [
    "CorpusEntry",
    "entry_id",
    "load_corpus",
    "load_entry",
    "replay_entry",
    "save_entry",
]


def entry_id(design: FuzzDesign) -> str:
    """Stable content hash of a design recipe (12 hex chars)."""
    return hashlib.sha256(jsonio.canonical(design.to_dict()).encode()).hexdigest()[:12]


@dataclass
class CorpusEntry:
    """One persisted witness."""

    design: FuzzDesign
    #: What the oracle is expected to classify this design as.
    expect: str
    #: Why this entry exists (human-readable).
    note: str = ""
    #: Replay provenance: generator seed / trial index, or "handcrafted".
    origin: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return entry_id(self.design)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "design": self.design.to_dict(),
            "expect": self.expect,
            "note": self.note,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            design=FuzzDesign.from_dict(data["design"]),
            expect=data["expect"],
            note=data.get("note", ""),
            origin=data.get("origin", {}),
        )


def save_entry(entry: CorpusEntry, corpus_dir: str | Path) -> Path:
    """Write one entry (idempotent: content-addressed filename)."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-{entry.id}.json"
    text = jsonio.pretty(entry.to_dict(), sort_keys=True) + "\n"
    jsonio.atomic_write(path, text.encode())
    return path


def load_entry(path: str | Path) -> CorpusEntry:
    return CorpusEntry.from_dict(jsonio.read_json(path, "corpus entry"))


def load_corpus(corpus_dir: str | Path) -> list[CorpusEntry]:
    """All entries under ``corpus_dir``, sorted by filename."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    return [load_entry(p) for p in sorted(directory.glob("fuzz-*.json"))]


def replay_entry(
    entry: CorpusEntry, oracle: DifferentialOracle | None = None
) -> tuple[bool, TrialResult]:
    """Re-run one witness; (still_detected, trial).

    ``still_detected`` means the oracle's classification matches the
    recorded expectation — for unsafe entries, that the design is still
    being caught.
    """
    oracle = oracle or DifferentialOracle()
    trial = oracle.run(entry.design)
    return (trial.classification == entry.expect, trial)
