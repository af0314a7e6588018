"""PerfRecorder + the harness hook, end to end.

The acceptance pair for the perf observatory:

* two consecutive recordings of the same cell grid compare with zero
  false regressions at the default threshold;
* a cell artificially slowed by an injected sleep is flagged
  ``regressed``.
"""

import time

import pytest

import repro.harness.runner as runner_module
from repro.core import VARIANTS
from repro.harness import measure_workload
from repro.perf import (
    HistoryStore,
    PerfRecorder,
    compare_records,
    recorder_from_env,
)
from repro.perf.grid import record_grid
from repro.workloads import Workload

_SOURCE = """
void main() {
    int[] a = new int[40];
    int t = 0;
    for (int i = 0; i < 40; i++) { a[i] = i * 3; }
    for (int i = 39; i > 0; i--) { t += a[i] & 0x0fffffff; }
    sink(t);
}
"""

_FAST = Workload(name="fast", suite="jbytemark",
                 description="perf test kernel", source=_SOURCE)

_GRID = {name: VARIANTS[name]
         for name in ("baseline", "new algorithm (all)")}


def _record_run(store, run_id, *, repeats=2):
    recorder = PerfRecorder(store, source="test", run_id=run_id)
    for index in range(repeats):
        measure_workload(_FAST, _GRID, recorder=recorder,
                         repeat_index=index)
    return recorder


class TestHarnessHook:
    def test_records_carry_the_full_schema(self, tmp_path):
        store = HistoryStore(tmp_path / "h")
        _record_run(store, "r1", repeats=1)
        records = store.records()
        assert {r.key().label() for r in records} == {
            "fast/ia64/baseline/closure",
            "fast/ia64/new algorithm (all)/closure",
        }
        for record in records:
            assert record.phases["execute"] > 0
            assert set(record.phases) >= {"sign_ext", "chains",
                                          "others", "execute"}
            assert record.measures["steps"] > 0
            assert record.measures["cycles"] > 0
            assert record.config_fingerprint
            assert record.host["host_id"]
            assert record.package_version
            assert record.run_id == "r1"

    def test_baseline_variant_counts_dominate(self, tmp_path):
        """The recorded measures reflect the paper's result: the full
        algorithm leaves fewer dynamic 32-bit extensions than the
        baseline."""
        store = HistoryStore(tmp_path / "h")
        _record_run(store, "r1", repeats=1)
        by_variant = {r.variant: r for r in store.records()}
        assert (by_variant["new algorithm (all)"]
                .measures["dyn_extend32"]
                < by_variant["baseline"].measures["dyn_extend32"])

    def test_two_consecutive_runs_compare_clean(self, tmp_path):
        """Acceptance: record twice back to back, compare with the
        default threshold — zero false regressions."""
        store = HistoryStore(tmp_path / "h")
        _record_run(store, "r1", repeats=3)
        _record_run(store, "r2", repeats=3)
        runs = store.latest_runs(2)
        report = compare_records(runs[0], runs[1])
        assert report.ok, (
            "false regression on identical back-to-back runs:\n"
            + "\n".join(c.key.label() for c in report.regressed)
        )
        assert len(report.cells) == len(_GRID)

    def test_injected_sleep_is_flagged_regressed(self, tmp_path,
                                                 monkeypatch):
        """Acceptance: slow one run's execute phase artificially and
        the compare engine must say so."""
        store = HistoryStore(tmp_path / "h")
        _record_run(store, "base")

        real_execute = runner_module.execute

        def slow_execute(*args, **kwargs):
            result = real_execute(*args, **kwargs)
            if kwargs.get("metrics") is not None or "traits" in kwargs:
                time.sleep(0.02)  # only the per-cell runs, not gold
            return result

        monkeypatch.setattr(runner_module, "execute", slow_execute)
        _record_run(store, "slowed")
        runs = store.latest_runs(2)
        report = compare_records(runs[0], runs[1])
        assert not report.ok
        for cell in report.regressed:
            assert any(m.metric == "execute"
                       for m in cell.regressions())


class TestRecorderPlumbing:
    def test_record_grid_counts_a_one_shot_engine_iterable(self, tmp_path):
        recorder = PerfRecorder(tmp_path / "h", source="test")
        result = record_grid(("fourier",),
                             engines=(name for name in ("closure",)),
                             variants=("baseline",), repeat=1,
                             recorder=recorder)
        assert result["cells"] == 1
        assert result["recorded"] == 1

    def test_dedup_counted(self, tmp_path, make_record):
        recorder = PerfRecorder(tmp_path / "h", source="test",
                                run_id="r")
        kwargs = dict(workload="w", variant="v", engine="closure",
                      machine="ia64", fuel=10,
                      measures={"steps": 1})
        recorder.record_cell(**kwargs)
        recorder.record_cell(**kwargs)
        assert recorder.recorded == 1
        assert recorder.deduplicated == 1

    def test_recorder_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_DIR", raising=False)
        assert recorder_from_env("test") is None
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "envh"))
        recorder = recorder_from_env("test")
        assert recorder is not None
        assert recorder.store.directory == tmp_path / "envh"

    def test_provenance_attached_once_per_run(self, tmp_path):
        recorder = PerfRecorder(tmp_path / "h", source="test")
        a = recorder.record_cell(workload="w", variant="v",
                                 engine="closure", machine="ia64",
                                 fuel=10, measures={"steps": 1})
        b = recorder.record_cell(workload="w2", variant="v",
                                 engine="closure", machine="ia64",
                                 fuel=10, measures={"steps": 2})
        assert a.run_id == b.run_id
        assert a.host == b.host
        assert a.git_rev == b.git_rev
