"""repro — a faithful reimplementation of "Effective Sign Extension
Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).

The supported public surface is the :mod:`repro.api` facade, re-exported
here::

    import repro

    result = repro.compile("kernel.j32")          # CompileResult
    outcome = repro.run("kernel.j32")             # RunResult (verified)
    suite = repro.bench(["huffman"],              # SuiteResult
                        options=repro.CompileOptions(jobs=2, cache=True))

Lower layers stay importable for IR-level work:

* :mod:`repro.frontend` — compile a Java-like mini language to the IR.
* :mod:`repro.core` — the paper's sign-extension elimination pipeline.
* :mod:`repro.driver` — batch compilation: compile cache + process pool.
* :mod:`repro.interp` — machine-faithful execution and measurement.
* :mod:`repro.harness` — regenerate the paper's tables and figures.
* :mod:`repro.fuzz` — differential fuzzing campaigns, divergence
  corpus, and witness reduction (``repro.fuzz_campaign``).
* :mod:`repro.profile` — the execution observatory: per-block hotness
  profiles, artifacts, and renderers.  The facade verb lives on the
  api module (``repro.api.profile`` — compile + execute + profile in
  one call; not re-exported here, where the name would shadow the
  submodule).
"""

__version__ = "1.9.0"

from .api import (  # noqa: E402
    CampaignConfig,
    CampaignResult,
    CompileOptions,
    CompileResult,
    ProfileResult,
    RunResult,
    SuiteResult,
    bench,
    compile,
    fuzz_campaign,
    run,
)
from .core import SignExtConfig, VARIANTS  # noqa: E402

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CompileOptions",
    "CompileResult",
    "ProfileResult",
    "RunResult",
    "SignExtConfig",
    "SuiteResult",
    "VARIANTS",
    "__version__",
    "bench",
    "compile",
    "fuzz_campaign",
    "run",
]
