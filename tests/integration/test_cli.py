"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.scenarios import example1
from repro.schema.serialize import schema_to_dict


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_dict(example1().schema)))
    return str(path)


class TestDemo:
    def test_example1_demo_succeeds(self, capsys):
        assert main(["demo", "example1"]) == 0
        out = capsys.readouterr().out
        assert "complete: yes" in out
        assert "mt_udir" in out

    def test_chain_demo(self, capsys):
        assert main(["demo", "chain"]) == 0
        assert "complete: yes" in capsys.readouterr().out

    def test_budget_too_small_exit_code(self, capsys):
        assert main(["demo", "example2", "--max-accesses", "1"]) == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "not-a-scenario"])


class TestEngineAndCalibrationEntryPoints:
    """A plain ``demo`` run is where the columnar engine is reached from
    the command line; serving runs the interpreter and takes no
    calibration file."""

    def test_columnar_demo_succeeds(self, capsys):
        assert main(["demo", "example1", "--executor", "columnar"]) == 0
        assert "complete: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("executor", ["columnar", "differential"])
    def test_failover_refuses_another_engine(self, executor, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["demo", "example5", "--failover", "--executor", executor])
        assert refused.value.code == 2
        assert "demo --failover runs the interpreter" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag", [["--executor", "columnar"], ["--calibration-file", "c.json"]]
    )
    def test_serving_takes_no_engine_or_calibration_flag(self, flag):
        with pytest.raises(SystemExit):
            main(["serve-demo", "example1", *flag])


class TestServeDemoResilience:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("tier", ["none", "process"])
    def test_hedge_delay_hedges_accesses_on_every_tier(self, tier, capsys):
        code = main(
            [
                "serve-demo",
                "example1",
                "--worker-tier", tier,
                "--tier-workers", "1",
                "--hedge-delay", "0.05",
                "--requests", "4",
                "--latency", "0",
            ]
            + (["--watchdog-seconds", "5"] if tier == "process" else [])
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "hedging: 0.05s per access" in out
        assert "note:" not in out
        if tier == "process":
            assert "'watchdog_seconds': 5.0" in out
            assert "counted in each worker" in out
        else:
            # No access outlived 50 ms, so none was hedged.
            assert "0 hedges (0 wins, 0 waste)" in out

    def test_resilience_flags_without_a_tier_print_a_note(self, capsys):
        code = main(
            [
                "serve-demo",
                "example1",
                "--hedge-delay", "0.05",
                "--watchdog-seconds", "5",
                "--requests", "2",
                "--latency", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        # Only the watchdog needs a tier; the hedge wraps the source.
        assert "note: --watchdog-seconds applies" in out
        assert "pass --worker-tier process" in out
        assert "hedging: 0.05s per access" in out

    def test_chaos_scenario_flag_runs_the_matrix_entry(self, capsys):
        code = main(
            ["serve-demo", "example1", "--chaos-scenario", "latency_storm"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "latency_storm[seed=0]: OK" in out
        assert "0 violations" in out

    def test_unknown_chaos_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-demo", "example1", "--chaos-scenario", "meteor"])


class TestServeDemoPlanCache:
    def test_plan_cache_searches_once_and_writes_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["serve-demo", "example1", "--plan-cache", "--requests", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "plan cache: hits=7 misses=1 searches run=1" in out
        assert list(tmp_path.iterdir()) == []


class TestPlan:
    def test_plan_query_over_schema_file(self, schema_file, capsys):
        code = main(
            ["plan", schema_file, "q(eid) :- Profinfo(eid, o, 'smith')"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mt_prof" in out
        assert "static cost" in out

    def test_plan_sql_flag(self, schema_file, capsys):
        main(
            [
                "plan",
                schema_file,
                "q(eid) :- Profinfo(eid, o, 'smith')",
                "--sql",
            ]
        )
        out = capsys.readouterr().out
        assert "CREATE TEMP TABLE" in out

    def test_unanswerable_exit_code(self, schema_file, capsys):
        # Two-variable query over Udirect is answerable; use a fresh
        # schema with a hidden relation for the negative case.
        code = main(
            [
                "plan",
                schema_file,
                "q() :- Profinfo(e, o, l)",
                "--max-accesses",
                "1",
            ]
        )
        assert code == 2


class TestCheck:
    def test_answerable(self, schema_file, capsys):
        assert (
            main(["check", schema_file, "q() :- Profinfo(e, o, l)"]) == 0
        )
        assert "answerable" in capsys.readouterr().out

    def test_not_answerable_within_budget(self, schema_file):
        code = main(
            [
                "check",
                schema_file,
                "q() :- Profinfo(e, o, l)",
                "--max-accesses",
                "1",
            ]
        )
        assert code == 2
