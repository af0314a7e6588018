"""RunRecord: identity, content addressing, (de)serialization."""

import pytest

from repro.decode import DocumentError
from repro.perf import RunRecord
from repro.perf.record import CellKey


class TestIdentity:
    def test_cell_key(self, make_record):
        record = make_record()
        assert record.key() == CellKey("fourier", "ia64", "baseline",
                                       "closure")
        assert record.key().label() == "fourier/ia64/baseline/closure"

    def test_record_id_stable_across_bookkeeping(self, make_record):
        """created/run_id are bookkeeping: changing them must not
        change the content address (that is what makes dedup work
        across re-imports)."""
        a = make_record(created=1.0, run_id="run-1")
        b = make_record(created=999.0, run_id="run-2")
        assert a.record_id == b.record_id

    def test_record_id_tracks_content(self, make_record):
        a = make_record()
        b = make_record(measures={**a.measures, "dyn_extend32": 101})
        assert a.record_id != b.record_id

    def test_record_id_tracks_repeat_index(self, make_record):
        assert (make_record(repeat=0).record_id
                != make_record(repeat=1).record_id)


class TestSerialization:
    def test_round_trip(self, make_record):
        record = make_record(created=5.0)
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.record_id == record.record_id

    def test_from_dict_ignores_unknown_fields(self, make_record):
        document = make_record().to_dict()
        document["future_field"] = {"x": 1}
        RunRecord.from_dict(document)  # no TypeError

    def test_from_dict_requires_the_cell_key(self, make_record):
        document = make_record().to_dict()
        del document["variant"]
        with pytest.raises(ValueError, match="variant"):
            RunRecord.from_dict(document)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(TypeError):
            RunRecord.from_dict(["not", "a", "record"])


class TestValidate:
    """The decoder's field checks (once a separate ``validate_record``
    walk): each problem is a :class:`DocumentError` naming the field."""

    def test_good_record_validates(self, make_record):
        record = make_record()
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_missing_key_reported(self, make_record):
        document = make_record().to_dict()
        del document["schema_version"]
        with pytest.raises(DocumentError, match="schema_version"):
            RunRecord.from_dict(document)

    def test_negative_phase_reported(self, make_record):
        document = make_record().to_dict()
        document["phases"]["execute"] = -0.5
        with pytest.raises(DocumentError, match="execute"):
            RunRecord.from_dict(document)

    def test_non_dict_blocks_reported(self, make_record):
        document = make_record().to_dict()
        document["measures"] = [1, 2, 3]
        with pytest.raises(DocumentError, match="measures"):
            RunRecord.from_dict(document)
