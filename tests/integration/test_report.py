"""Tests for the benchmark report renderer."""

import json

import pytest

from benchmarks.report import format_value, group_by_module, load, render


@pytest.fixture
def sample(tmp_path):
    data = {
        "benchmarks": [
            {
                "fullname": "benchmarks/bench_alpha.py::test_one[3]",
                "name": "test_one[3]",
                "stats": {"mean": 0.0123, "stddev": 0.001},
                "extra_info": {"nodes": 7, "cost": 6.0},
            },
            {
                "fullname": "benchmarks/bench_alpha.py::test_one[5]",
                "name": "test_one[5]",
                "stats": {"mean": 0.0004, "stddev": 0.00001},
                "extra_info": {"nodes": 9},
            },
            {
                "fullname": "benchmarks/bench_beta.py::test_two",
                "name": "test_two",
                "stats": {"mean": 2.5, "stddev": 0.2},
                "extra_info": {},
            },
        ]
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestReport:
    def test_load(self, sample):
        assert len(load(sample)) == 3

    def test_grouping_by_module(self, sample):
        groups = group_by_module(load(sample))
        assert list(groups) == ["bench_alpha.py", "bench_beta.py"]
        assert len(groups["bench_alpha.py"]) == 2

    def test_render_has_tables_and_units(self, sample):
        text = render(load(sample))
        assert "### bench_alpha.py" in text
        assert "12.30 ms" in text
        assert "400 µs" in text
        assert "2.50 s" in text

    def test_extra_info_columns_merged(self, sample):
        text = render(load(sample))
        # Both keys appear as columns even though one row lacks 'cost'.
        assert "| nodes | cost |" in text
        assert "| test_one[3] | 12.30 ms" in text

    def test_format_value_list_arrow(self):
        assert format_value([11.0, 8.0, 6.0]) == "11 → 8 → 6"

    def test_format_value_float_precision(self):
        assert format_value(0.123456) == "0.1235"


class TestFaultsRenderer:
    def test_render_faults_tables(self):
        from benchmarks.report import render_faults

        report = {
            "mode": "smoke",
            "scenario": "example5[3]",
            "retries": 4,
            "transient": {
                "trials": 5,
                "rows": [
                    {
                        "rate": 0.2,
                        "unprotected": {
                            "success_rate": 0.0,
                            "mean_sim_latency": 0.1,
                        },
                        "resilient": {
                            "success_rate": 1.0,
                            "identical_to_reference": True,
                            "mean_retries": 3.2,
                            "mean_backoff": 0.25,
                            "mean_sim_latency": 0.35,
                        },
                    }
                ],
            },
            "outage": {
                "scenario": "example5[3]",
                "methods": 4,
                "complete": 3,
                "partial": 1,
                "failed": 0,
                "success_rate": 0.75,
                "served_rate": 1.0,
                "rows": [
                    {
                        "victim": "mt_udirect1",
                        "outcome": "complete",
                        "failovers": 1,
                        "rows": 1,
                    }
                ],
            },
        }
        text = render_faults(report)
        assert "unprotected vs resilient" in text
        assert "| 0.2 | 0% | 100% | yes | 3.2 |" in text
        assert "success rate 75%" in text
        assert "| mt_udirect1 | complete | 1 | 1 |" in text
