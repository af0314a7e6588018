"""Record perfbench/expected.json, the benchmark's reference outputs.

Run once, from the repository root, at the commit whose behaviour the
benchmark pins::

    python3 perfbench/record_expected.py

For each of the 17 paper programs it stores the checksum and return
value of the unoptimized program run by the reference interpreter in
``ideal`` mode, an oracle independent of the optimizer.  For each of
the 17 x 12 x 2 (program, variant, machine) cells it stores the
compiled program's static extend count and eliminated count.  Later
runs must reproduce both exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro
    from repro.core.config import VARIANTS
    from repro.interp import collect_branch_profiles, execute
    from repro.workloads import all_workloads

    programs, cells = {}, {}
    for workload in all_workloads():
        program = workload.program()
        gold = execute(program, engine="reference", mode="ideal")
        programs[workload.name] = {"checksum": gold.checksum,
                                   "ret_value": gold.ret_value}
        profiles = collect_branch_profiles(program)
        for variant in VARIANTS:
            for machine in ("ia64", "ppc64"):
                result = repro.compile(
                    workload.source,
                    repro.CompileOptions(variant=variant, machine=machine),
                    profiles=profiles,
                )
                cells[f"{workload.name}|{variant}|{machine}"] = [
                    result.static_extend_count, result.total_eliminated]
        print(f"recorded {workload.name}", file=sys.stderr)
    document = {
        "recorded_with": {"version": repro.__version__,
                          "engine": "reference", "mode": "ideal"},
        "programs": programs,
        "cells": cells,
    }
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
