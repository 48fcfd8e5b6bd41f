from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun.output import ManifestWriter, format_value, write_csv

from conftest import format_value_reference

SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1.0e-310]
# Every type a CSV cell takes, with infinities, NaN, -0.0 and subnormals.
cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from(SPECIAL_FLOATS).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    st.none(),
    st.text(alphabet=st.characters(blacklist_characters=",\n\r")))


def rows_then_fail(n: int):
    for i in range(n):
        yield [i, 0.5 * i]
    raise RuntimeError("row source failed")


class TestAtomicWrites:
    def test_failing_rows_leave_no_csv(self, tmp_path):
        path = tmp_path / "out" / "data.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["i", "v"], rows_then_fail(1000))
        assert list(path.parent.iterdir()) == []

    def test_failing_rows_keep_the_previous_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        assert write_csv(path, ["i", "v"], [[1, 0.25], [2, None]]) == 2
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_csv(path, ["i", "v"], rows_then_fail(3))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b", "c"], [[0.1, True, None], [3, "x", 1e-300]])
        assert path.read_bytes() == (
            b"a,b,c\n0.10000000000000001,true,\n3,x,1e-300\n")

    def test_unserialisable_manifest_keeps_the_previous_one(self, tmp_path):
        man = ManifestWriter("rates", tmp_path)
        man.add_json("extra.json", {"k": 1})
        path = man.finish()
        before = path.read_bytes()
        man.set("bad", object())
        with pytest.raises(TypeError):
            man.finish()
        assert path.read_bytes() == before
        assert json.loads(before)["outputs"] == [{"file": "extra.json"}]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "extra.json", "manifest.json"]


class TestCellFormat:
    @settings(max_examples=500, deadline=None)
    @given(v=cells)
    def test_cells_equal_the_reference(self, v):
        assert format_value(v) == format_value_reference(v)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.lists(cells, min_size=3, max_size=3), max_size=8))
    def test_csv_equals_the_reference_cells(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        assert write_csv(path, ["a", "b", "c"], rows) == len(rows)
        want = "a,b,c\n" + "".join(
            ",".join(format_value_reference(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode("utf-8")
