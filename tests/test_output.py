from __future__ import annotations

import json

import pytest

from thermorun.output import ManifestWriter, write_csv


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
