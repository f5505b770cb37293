"""Benchmark harness tests (small sizes; scaling ratios live in acceptance)."""

import json

import pytest

from linkclust import InvalidInput, bench
from linkclust.cli import run_cli


class TestBench:
    def test_kcolor_rows(self):
        rows = bench("kcolor", [60, 120], seed=1, num_classes=3)
        assert [row["n"] for row in rows] == [60, 120]
        for row in rows:
            assert row["verdict"] == "yes"
            assert row["distance_evals"] <= row["eval_budget"]
            assert row["seconds"] >= 0.0

    def test_hom_work_scales_cubically(self):
        rows = bench("hom", [60, 120], seed=1)
        ratio = rows[1]["work_units"] / rows[0]["work_units"]
        assert 6.0 <= ratio <= 10.0

    def test_shom_and_avg_run(self):
        shom = bench("shom", [50], seed=1)
        assert shom[0]["verdict"] == "yes"
        avg = bench("avg", [130], seed=1, slack=2)
        assert avg[0]["verdict"] == "yes"

    def test_unknown_scenario(self):
        with pytest.raises(InvalidInput):
            bench("nope", [10])


class TestBenchCommand:
    def test_text_rows(self, capsys):
        argv = ["bench", "--scenario", "avg", "--sizes", "130,132", "--seed", "1", "--k", "2"]
        assert run_cli(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "scenario,n,seconds,distance_evals,work_units,eval_budget,verdict"
        rows = [line.split(",") for line in lines]
        assert all(float(row.pop(2)) >= 0.0 for row in rows)
        assert rows == [
            ["avg", "130", "129", "33662", "260", "yes"],
            ["avg", "132", "131", "34708", "264", "yes"],
        ]

    def test_json_report(self, capsys):
        argv = ["bench", "--scenario", "kcolor", "--sizes", "60,90", "--seed", "1"]
        assert run_cli([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["results"]["rows"]
        assert all(row.pop("seconds") >= 0.0 for row in rows)
        assert rows == [
            {"scenario": "kcolor", "n": n, "distance_evals": evals, "work_units": work,
             "eval_budget": 3 * n, "verdict": "yes"}
            for n, evals, work in ((60, 118, 9480), (90, 178, 21420))
        ]
        assert report["command"] == "bench" and report["seed"] == 1
        assert report["params"] == {"scenario": "kcolor", "sizes": [60, 90], "l": 3}
        assert report["input_digests"] == {}
