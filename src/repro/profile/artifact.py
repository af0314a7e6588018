"""Reading and writing profile artifacts.

One artifact is one JSON file named ``<stem>.profile.json``.  Dumps are
deterministic (``sort_keys``, ranked rows, no timestamps), so repeated
profiling of the same program diffs cleanly — and the embedded
content fingerprint makes any two artifacts comparable by identity.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .model import ExecutionProfile

ARTIFACT_SUFFIX = ".profile.json"


def artifact_stem(*parts: str) -> str:
    """A filesystem-safe stem from identifying parts (workload, variant,
    machine...); empty parts are dropped."""
    cleaned = [re.sub(r"[^A-Za-z0-9._-]+", "-", part).strip("-")
               for part in parts if part]
    return "__".join(p for p in cleaned if p) or "profile"


def artifact_path(directory: str | Path, *parts: str) -> Path:
    return Path(directory) / (artifact_stem(*parts) + ARTIFACT_SUFFIX)


def write_profile(profile: ExecutionProfile,
                  path: str | Path) -> Path:
    """Serialize one profile; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_profile(path: str | Path) -> ExecutionProfile:
    """Load and decode one artifact; raises ``OSError``, ``ValueError``,
    or ``RecursionError`` for JSON nested too deep to parse."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return ExecutionProfile.from_dict(document)


def load_profiles(directory: str | Path) -> list[ExecutionProfile]:
    """Every artifact under ``directory`` that loads, in name order."""
    profiles = []
    for path in sorted(Path(directory).glob(f"*{ARTIFACT_SUFFIX}")):
        try:
            profiles.append(load_profile(path))
        except (OSError, ValueError, RecursionError):
            continue  # skip foreign, truncated or malformed files
    return profiles


def validate_artifact_file(path: str | Path) -> list[str]:
    """Problems loading one on-disk artifact: ``[]``, or the one message
    of the file system, the JSON parser or the decoder."""
    try:
        load_profile(path)
    except (OSError, ValueError, RecursionError) as exc:
        return [str(exc)]
    return []
