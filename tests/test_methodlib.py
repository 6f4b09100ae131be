"""Method library: schema validation, lookup, and deterministic retrieval."""

import json

import pytest

from biasaudit.errors import DuplicateIdError, SchemaError, UnknownIdError
from biasaudit.metrics import Scenario
from biasaudit.methodlib import (
    MethodEntry,
    RetrievalQuery,
    builtin_library,
    get_method_by_id,
    list_intentions,
    load_library,
    retrieve,
)


def entry(entry_id="X-1", intention="Detect imbalance in gender labels.",
          data_type="cat_dist", bias_type="distribution"):
    return MethodEntry(
        id=entry_id, intention=intention,
        method={"step_1": "Count categories.", "step_2": "Compare counts."},
        title="A method", article_link="https://example.org/x",
        field_name="General", year=2020,
        tags={"bias_type": bias_type, "data_type": data_type})


class TestBuiltinLibrary:
    def test_seed_entries_present(self):
        lib = builtin_library()
        ids = {e.id for e in lib}
        assert "A-0-1" in ids and "A-0-2" in ids
        assert len(lib) == 27

    def test_lookup_is_case_sensitive(self):
        lib = builtin_library()
        assert get_method_by_id(lib, "A-0-2").year == 2018
        with pytest.raises(UnknownIdError):
            get_method_by_id(lib, "a-0-2")

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            get_method_by_id(builtin_library(), "Z-9")

    def test_list_intentions_projection(self):
        pairs = list_intentions(builtin_library())
        assert len(pairs) == 27
        for method_id, intention in pairs:
            assert isinstance(method_id, str) and isinstance(intention, str)
            assert "step_" not in intention


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lib.json"
        entries = [entry("X-1"), entry("X-2", data_type="num_num",
                                       bias_type="correlation")]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([e.to_record() for e in entries], fh)
        back = load_library(path)
        assert back == entries

    def test_empty_file_is_empty_library(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text("[]", encoding="utf-8")
        assert load_library(path) == []

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "lib.json"
        recs = [entry("X-1").to_record(), entry("X-1").to_record()]
        path.write_text(json.dumps(recs), encoding="utf-8")
        with pytest.raises(DuplicateIdError):
            load_library(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "lib.json"
        rec = entry("X-1").to_record()
        del rec["intention"]
        path.write_text(json.dumps([rec]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_library(path)

    def test_bad_tag(self):
        rec = entry("X-1").to_record()
        rec["tags"]["data_type"] = "images"
        with pytest.raises(SchemaError):
            MethodEntry.from_record(rec)


class TestRetrieve:
    def test_seed_ranking(self):
        lib = builtin_library()
        hits = retrieve(lib, RetrievalQuery(Scenario.CAT_DIST,
                                            "gender balance entropy", top_k=27))
        ids = [e.id for e in hits]
        assert ids.index("A-0-1") < ids.index("A-0-2")

    def test_tag_filter_excludes_other_scenarios(self):
        lib = [e for e in builtin_library() if e.id.startswith("A-")]
        hits = retrieve(lib, RetrievalQuery(Scenario.NUM_NUM, "anything"))
        assert hits == []

    def test_top_k_larger_than_library(self):
        lib = [entry("X-1"), entry("X-2")]
        hits = retrieve(lib, RetrievalQuery(Scenario.CAT_DIST, "gender", top_k=50))
        assert len(hits) == 2

    def test_tie_break_by_id(self):
        lib = [entry("X-2"), entry("X-1")]  # identical intentions
        hits = retrieve(lib, RetrievalQuery(Scenario.CAT_DIST, "gender", top_k=2))
        assert [e.id for e in hits] == ["X-1", "X-2"]

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            RetrievalQuery(Scenario.CAT_DIST, "x", top_k=0)
