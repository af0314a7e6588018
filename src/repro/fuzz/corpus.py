"""The on-disk divergence corpus.

Every divergent or crashing seed the campaign finds is persisted as one
JSON file under the corpus directory (default
``~/.cache/repro/fuzz-corpus/``, overridable via ``--corpus-dir`` or
``$REPRO_CACHE_DIR``).  A witness records everything needed to replay
it without the generator: the J32 source itself, the (variant, machine)
cell that diverged, the divergence kind and detail, the generator seed,
and the package version that found it.

Witness ids are content-addressed over ``(source, variant, machine,
kind)``, so re-finding the same divergence on a later run updates the
existing file instead of accumulating duplicates.  Campaigns load the
corpus *first* (regression mode): known witnesses are re-checked before
any new seed is generated, which turns every past miscompile into a
permanent regression test.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..decode import Fields
from ..driver.cache import default_cache_dir

SCHEMA_VERSION = 1


def default_corpus_dir() -> Path:
    """``<cache dir>/fuzz-corpus`` — ``~/.cache/repro/fuzz-corpus``."""
    return default_cache_dir() / "fuzz-corpus"


def witness_id(source: str, variant: str, machine: str, kind: str) -> str:
    """Content-addressed id of one (program, cell, kind) divergence."""
    payload = "\x00".join((source, variant, machine, kind))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class Witness:
    """One persisted divergence."""

    seed: int
    variant: str
    machine: str
    kind: str
    detail: str
    source: str
    reduced_source: str | None = None
    package_version: str = ""
    created: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION

    @property
    def id(self) -> str:
        return witness_id(self.source, self.variant, self.machine,
                          self.kind)

    @property
    def best_source(self) -> str:
        """The smallest source known to reproduce the divergence."""
        return self.reduced_source or self.source

    def reduction_ratio(self) -> float | None:
        """``len(reduced)/len(original)``; ``None`` before reduction."""
        if self.reduced_source is None or not self.source:
            return None
        return len(self.reduced_source) / len(self.source)

    def to_dict(self) -> dict:
        document = asdict(self)
        document["id"] = self.id
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "Witness":
        """Decode one witness: its schema version and every field's
        type; raises :class:`DocumentError`."""
        read = Fields(document, "witness", schema_version=SCHEMA_VERSION)
        return cls(
            seed=read("seed", int),
            **{key: read(key, str) for key in (
                "variant", "machine", "kind", "detail", "source")},
            reduced_source=read("reduced_source", str, None),
            package_version=read("package_version", str, ""),
            created=read("created", float, 0.0),
        )


class Corpus:
    """All witnesses under one corpus directory."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else default_corpus_dir())

    def add(self, witness: Witness) -> Path:
        """Persist (or update) one witness; returns its file path."""
        if not witness.package_version:
            from .. import __version__

            witness.package_version = __version__
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{witness.id}.json"
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(witness.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        tmp.replace(path)  # atomic: concurrent campaigns never see halves
        return path

    def entries(self) -> list[Witness]:
        """Every witness that loads, oldest first (stable replay order)."""
        witnesses = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                with open(path) as handle:
                    witnesses.append(Witness.from_dict(json.load(handle)))
            except (OSError, ValueError, RecursionError):
                continue  # a bad entry never kills a campaign
        witnesses.sort(key=lambda w: (w.created, w.id))
        return witnesses

    def __len__(self) -> int:
        return len(self.entries())
