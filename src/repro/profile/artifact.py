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

from .model import ExecutionProfile, validate_profile

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
    """Load and schema-validate one artifact."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return ExecutionProfile.from_dict(document)


def load_profiles(directory: str | Path) -> list[ExecutionProfile]:
    """Every valid artifact under ``directory``, in name order."""
    directory = Path(directory)
    profiles = []
    if not directory.is_dir():
        return profiles
    for path in sorted(directory.glob(f"*{ARTIFACT_SUFFIX}")):
        try:
            profiles.append(load_profile(path))
        except (ValueError, json.JSONDecodeError, OSError):
            continue  # skip foreign or truncated files, keep the rest
    return profiles


def validate_artifact_file(path: str | Path) -> list[str]:
    """Schema-check one on-disk artifact; returns problem strings."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable artifact: {exc}"]
    return validate_profile(document)
