"""One decoder per saved document.

A perf-history record, a profile artifact and a fuzz-corpus witness are
each read back through one ``from_dict``.  Every single-field mutation
of a real document either decodes to something its readers can render,
or raises :class:`DocumentError`.  The CLI commands that read these
documents skip a malformed one (``tests/test_cli.py``).
"""

import json
from pathlib import Path

import pytest

from repro.api import CompileOptions, profile as profile_run
from repro.decode import DocumentError, Fields
from repro.fuzz import Corpus, Witness
from repro.perf import (
    RunRecord,
    compare_records,
    format_compare,
    format_history_summary,
    load_jsonl,
)
from repro.profile import (
    ExecutionProfile,
    format_flamegraph,
    format_profile_summary,
    heatmap_section,
    load_profiles,
    validate_artifact_file,
    validate_profile,
)
from repro.profile.model import _digest
from repro.workloads import get_workload

BASELINE = Path(__file__).resolve().parents[1] / "perf" / "baseline.jsonl"

_DROP = object()
#: what each field is mutated to: dropped, or replaced by one of these
MUTATIONS = (_DROP, None, "x", [], -1)


def _paths(value, path=()):
    """Every key path inside a JSON value, parents before children."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def mutations(document):
    """``(path, mutation, copy)`` for every single-field mutation."""
    text = json.dumps(document)
    for path in _paths(document):
        for mutation in MUTATIONS:
            mutated = json.loads(text)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if mutation is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = json.loads(json.dumps(mutation))
            yield path, mutation, mutated


def _refingerprint(document):
    """Re-seal a mutated artifact, so the decoder reads past the
    fingerprint check to the mutated field."""
    body = {k: v for k, v in document.items() if k != "fingerprint"}
    document["fingerprint"] = _digest(body)


def _decode_all(decode, document, use, reseal=None):
    """Decode every mutation of ``document``; hand each success to
    ``use``.  Returns how many decoded and how many were rejected."""
    decoded = rejected = 0
    for path, mutation, mutated in mutations(document):
        if reseal is not None and path != ("fingerprint",):
            reseal(mutated)
        try:
            value = decode(mutated)
        except DocumentError:
            rejected += 1
            continue
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{path} -> {mutation!r}: {type(exc).__name__}: "
                        f"{exc}")
        use(value)
        decoded += 1
    return decoded, rejected


@pytest.fixture(scope="module")
def baseline_record():
    with open(BASELINE, encoding="utf-8") as handle:
        return json.loads(handle.readline())


@pytest.fixture(scope="module")
def artifact():
    """A real artifact with edges and extend sites carrying verdicts."""
    result = profile_run(get_workload("bitfield"),
                         CompileOptions(variant="basic ud/du"),
                         workload="bitfield")
    return result.profile.to_dict()


@pytest.fixture
def witness_document(tmp_path):
    corpus = Corpus(tmp_path)
    path = corpus.add(Witness(
        seed=7, variant="baseline", machine="ia64", kind="output",
        detail="checksum 0x1 != 0x2",
        source="void main() { int x = 1; sink(x); }\n",
        reduced_source="void main() { sink(1); }\n"))
    return json.loads(path.read_text())


class TestEveryFieldMutation:
    def test_run_record(self, baseline_record):
        original = RunRecord.from_dict(baseline_record)

        def use(record):
            report = compare_records([record], [original])
            format_compare(report, verbose=True)
            format_history_summary([record, original])

        decoded, rejected = _decode_all(RunRecord.from_dict,
                                        baseline_record, use)
        assert decoded and rejected

    def test_profile_artifact(self, artifact):
        def use(profile):
            heatmap_section(profile)
            format_profile_summary(profile)
            format_flamegraph(profile)
            profile.branch_profiles()

        decoded, rejected = _decode_all(ExecutionProfile.from_dict,
                                        artifact, use,
                                        reseal=_refingerprint)
        assert decoded and rejected

    def test_witness(self, witness_document):
        original = Witness.from_dict(witness_document)

        def use(witness):
            sorted([witness, original], key=lambda w: (w.created, w.id))
            assert isinstance(witness.best_source, str)
            witness.reduction_ratio()

        decoded, rejected = _decode_all(Witness.from_dict,
                                        witness_document, use)
        assert decoded and rejected


class TestFields:
    @pytest.mark.parametrize("value", [True, 2**63, -2**63 - 1,
                                       float("nan"), float("inf")])
    def test_numbers_must_fit_64_bits_and_be_finite(self, value):
        with pytest.raises(DocumentError, match=r"doc\.n"):
            Fields({"n": value}, "doc")("n", float)

    def test_integer_is_a_number_but_not_the_reverse(self):
        read = Fields({"i": 3, "f": 2.5}, "doc")
        assert read("i", float) == 3
        with pytest.raises(DocumentError, match="must be int, not float"):
            read("f", int)

    def test_null_only_where_the_default_is_none(self):
        read = Fields({"a": None}, "doc")
        assert read("a", str, None) is None
        with pytest.raises(DocumentError, match="must be str, not NoneType"):
            read("a", str, "")

    def test_not_an_object(self):
        with pytest.raises(DocumentError, match="must be dict, not list"):
            Fields(["x"], "doc")

    def test_exact_fields_match_in_type_too(self):
        Fields({"v": 1}, "doc", v=1)
        with pytest.raises(DocumentError, match="expected 1"):
            Fields({"v": True}, "doc", v=1)

    def test_map_keys_convert(self):
        read = Fields({"m": {"8": 1, "x": 2}}, "doc")
        with pytest.raises(DocumentError, match="bad key 'x'"):
            read.map("m", int, keys=int)


class TestValidators:
    def test_validate_profile_returns_the_decoders_message(self, artifact):
        document = json.loads(json.dumps(artifact))
        del document["functions"][0]["name"]
        _refingerprint(document)
        with pytest.raises(DocumentError) as raised:
            ExecutionProfile.from_dict(document)
        assert validate_profile(document) == [str(raised.value)]
        assert "'name'" in str(raised.value)

    def test_validate_artifact_file(self, artifact, tmp_path):
        good = tmp_path / "good.profile.json"
        good.write_text(json.dumps(artifact))
        assert validate_artifact_file(good) == []
        bad = tmp_path / "bad.profile.json"
        bad.write_text("{truncated")
        assert len(validate_artifact_file(bad)) == 1

    def test_load_jsonl_skips_non_objects(self, tmp_path, baseline_record):
        path = tmp_path / "h.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in (
            [1, 2], "record", None, baseline_record)))
        assert [r.workload for r in load_jsonl(path)] == ["fourier"]

    def test_loaders_skip_json_nested_too_deep(self, tmp_path,
                                               baseline_record, artifact):
        deep = "[" * 100_000 + "]" * 100_000
        history = tmp_path / "h.jsonl"
        history.write_text(deep + "\n" + json.dumps(baseline_record) + "\n")
        assert len(load_jsonl(history)) == 1
        (tmp_path / "a.profile.json").write_text(deep)
        (tmp_path / "b.profile.json").write_text(json.dumps(artifact))
        assert len(load_profiles(tmp_path)) == 1
        assert len(validate_artifact_file(tmp_path / "a.profile.json")) == 1
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "deep.json").write_text(deep)
        assert Corpus(corpus).entries() == []

    def test_baseline_record_ids_unchanged(self):
        stored = [json.loads(line)["record_id"]
                  for line in BASELINE.read_text().splitlines()]
        assert [r.record_id for r in load_jsonl(BASELINE)] == stored
