"""ExecStats / CommandStats survive the dict trip across processes.

Workers ship their stats as ``as_dict()`` payloads; the parent
rebuilds them with ``from_dict`` as the response's record and absorbs
that into the service ledger.  The totals must be *recounted* from the
command records -- never trusted from the payload -- so a corrupted or
stale total cannot poison the ledger.  The generic round trip of every
stats record is ``tests/test_obs.py``'s.
"""

import json

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.context import ExecutionContext
from repro.exec.stats import CommandStats, ExecStats
from repro.plans.commands import AccessCommand, identity_output_map
from repro.plans.expressions import Singleton
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder


def executed_stats():
    schema = (
        SchemaBuilder("stats")
        .relation("R", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .build()
    )
    source = InMemorySource(
        schema, Instance({"R": [("a", "1"), ("b", "2")]})
    )
    plan = Plan(
        (
            AccessCommand(
                "T", "mt_R", Singleton(), (), identity_output_map(("x", "y"))
            ),
        ),
        "T",
    )
    stats = ExecStats()
    plan.execute(source, ExecutionContext(stats=stats))
    return stats


class TestExecStats:
    def test_totals_recomputed_not_trusted(self):
        stats = executed_stats()
        shipped = json.loads(json.dumps(stats.as_dict()))
        # A tampered top-level total must not survive the rebuild: the
        # command records are the ground truth.
        shipped["accesses_dispatched"] = 999999
        shipped["source_invocations"] = -1
        revived = ExecStats.from_dict(shipped)
        assert revived.accesses_dispatched == stats.accesses_dispatched
        assert revived.source_invocations == stats.source_invocations
        assert revived.as_dict() == stats.as_dict()

    def test_absorb_after_round_trip(self):
        left = executed_stats()
        right = ExecStats.from_dict(executed_stats().as_dict())
        before = left.as_dict()["accesses_dispatched"]
        left.absorb(right)
        # Totals fold; the transcript is the run's own.
        assert left.as_dict()["accesses_dispatched"] == 2 * before
        assert left.runs == 2
        assert len(left.commands) == 1


class TestCalibrationFields:
    """The per-method row-flow fields survive the trip and default sanely."""

    def test_method_and_rows_fetched_recorded(self):
        stats = executed_stats()
        command = stats.commands[0]
        assert command.method == "mt_R"
        assert command.rows_fetched == 2
        assert command.rows_out <= command.rows_fetched

    def test_round_trip_preserves_calibration_fields(self):
        stats = executed_stats()
        revived = ExecStats.from_dict(stats.as_dict())
        assert revived.commands[0].method == "mt_R"
        assert revived.commands[0].rows_fetched == 2

    def test_old_payloads_without_the_fields_still_parse(self):
        # A worker running the previous stats schema ships no method /
        # rows_fetched keys; the parent must not reject the payload.
        payload = {"index": 0, "target": "T", "kind": "access"}
        revived = CommandStats.from_dict(payload)
        assert revived.method is None
        assert revived.rows_fetched == 0
