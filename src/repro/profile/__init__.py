"""Execution observatory: per-block hotness profiles and their artifacts.

The profiling subsystem answers *where* a run spends its time and its
sign extensions, block by block, over both execution engines:

* :mod:`~repro.profile.model` — the :class:`ExecutionProfile` data
  model and the versioned, content-fingerprinted artifact schema;
* :mod:`~repro.profile.builder` — :func:`build_profile`, which derives
  every number from the ``ExecResult`` the engines already produce
  (no new per-instruction work in either hot loop);
* :mod:`~repro.profile.artifact` — deterministic JSON read/write;
* :mod:`~repro.profile.render` — the annotated IR dump and the
  collapsed-stack flamegraph export;
* :mod:`~repro.profile.heatmap` — the self-contained HTML heatmap
  panel, also embeddable into the perf dashboard.

Surface: ``repro profile <workload>``, ``repro bench --profile-dir``,
``repro perf report --profiles``, ``CampaignConfig.profile_dir``, and
``repro.api.profile``.  See docs/PROFILING.md.
"""

from .artifact import (
    ARTIFACT_SUFFIX,
    artifact_path,
    artifact_stem,
    load_profile,
    load_profiles,
    validate_artifact_file,
    write_profile,
)
from .builder import build_profile
from .heatmap import heatmap_section, render_heatmap_html
from .model import (
    ARTIFACT_KIND,
    SCHEMA_VERSION,
    BlockProfile,
    ExecutionProfile,
    ExtendSite,
    FunctionProfile,
    validate_profile,
)
from .render import (
    format_annotated_ir,
    format_flamegraph,
    format_profile_summary,
)

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SUFFIX",
    "BlockProfile",
    "ExecutionProfile",
    "ExtendSite",
    "FunctionProfile",
    "SCHEMA_VERSION",
    "artifact_path",
    "artifact_stem",
    "build_profile",
    "format_annotated_ir",
    "format_flamegraph",
    "format_profile_summary",
    "heatmap_section",
    "load_profile",
    "load_profiles",
    "render_heatmap_html",
    "validate_artifact_file",
    "validate_profile",
    "write_profile",
]
