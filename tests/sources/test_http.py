"""HTTPSource over StubTransport: pagination, 429s, faults, batching."""

import pytest

from repro.data.instance import Instance, _to_constant
from repro.data.source import InMemorySource
from repro.errors import (
    AccessTimeout,
    AccessViolation,
    RateLimited,
    SourceUnavailable,
)
from repro.faults.policy import KIND_UNAVAILABLE, FaultPolicy
from repro.schema.core import SchemaBuilder
from repro.sources import HTTPSource, SQLiteSource, StubTransport, http
from repro.sources.http import EPOCH_HEADER


def web_schema():
    return (
        SchemaBuilder("web")
        .relation("T", 2)
        .access("mt_T", "T", inputs=[0], cost=1.0)
        .access("mt_all", "T", inputs=[], cost=1.0)
        .build()
    )


def web_instance():
    return Instance(
        {"T": [("a", f"r{i}") for i in range(5)] + [("b", "solo")]}
    )


def oracle():
    return InMemorySource(web_schema(), web_instance())


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestPagination:
    def test_paged_answers_are_byte_identical_to_the_oracle(self):
        transport = StubTransport(web_schema(), web_instance(), page_size=2)
        client = HTTPSource(transport)
        assert client.access("mt_T", ("a",)) == oracle().access(
            "mt_T", ("a",)
        )
        # Five matching rows at two per page: three round trips.
        assert transport.counters()["requests"] == 3
        assert client.access("mt_all") == oracle().access("mt_all")

    def test_epoch_change_mid_sequence_restarts_the_page_chain(self):
        class MovingSnapshotTransport(StubTransport):
            """Mutates the backend right after serving the first page."""

            moved = False

            def request(self, verb, path, params):
                """Serve, then move the snapshot once mid-pagination."""
                response = super().request(verb, path, params)
                if (
                    not self.moved
                    and response.payload.get("next_page") is not None
                ):
                    self.moved = True
                    self.instance.add("T", ("a", "late"))
                return response

        instance = web_instance()
        transport = MovingSnapshotTransport(
            web_schema(), instance, page_size=2
        )
        client = HTTPSource(transport)
        answer = client.access("mt_T", ("a",))
        # The restarted sequence reads purely from the new snapshot --
        # never a mix of rows from before and after the mutation.
        assert client.snapshot_restarts == 1
        assert answer == InMemorySource(web_schema(), instance).access(
            "mt_T", ("a",)
        )
        assert any(row[1].value == "late" for row in answer)


class TestMixedTypeRows:
    def test_rows_of_mixed_cell_types_are_all_returned(self):
        """``1`` and ``"1"`` under one key: the stub orders them without
        comparing an int with a str, on every page and in a batch, and
        the client answers what the other two backends answer."""
        schema = (
            SchemaBuilder("mixed")
            .relation("T", 2)
            .access("mt_T", "T", inputs=[1], cost=1.0)
            .build()
        )
        instance = Instance({"T": [(1, "a"), ("1", "a"), (1.5, "a")]})
        expected = InMemorySource(schema, instance).access("mt_T", ("a",))
        assert len(expected) == 3
        assert SQLiteSource(schema, instance).access("mt_T", ("a",)) == expected
        for page_size in (None, 1):
            client = HTTPSource(
                StubTransport(schema, instance, page_size=page_size)
            )
            assert client.access("mt_T", ("a",)) == expected
        batched = HTTPSource(StubTransport(schema, instance)).access_batch(
            "mt_T", [("a",)]
        )
        assert batched[(_to_constant("a"),)] == expected


class TestRetryAfter:
    def test_client_honours_retry_after_and_converges(self):
        clock = FakeClock()
        transport = StubTransport(
            web_schema(), web_instance(),
            rate_limit=1.0, burst=1.0, clock=clock,
        )
        client = HTTPSource(transport, sleep=clock.sleep)
        first = client.access("mt_T", ("a",))
        second = client.access("mt_T", ("b",))
        assert first == oracle().access("mt_T", ("a",))
        assert second == oracle().access("mt_T", ("b",))
        assert client.retry_after_waits >= 1
        assert transport.counters()["over_budget"] >= 1

    def test_out_of_patience_is_typed_rate_limited(self):
        clock = FakeClock()
        transport = StubTransport(
            web_schema(), web_instance(),
            rate_limit=1.0, burst=1.0, clock=clock,
        )
        client = HTTPSource(
            transport, max_retry_after_waits=0, sleep=lambda _s: None
        )
        client.access("mt_T", ("a",))
        with pytest.raises(RateLimited):
            client.access("mt_T", ("b",))


class TestFaultMapping:
    def test_simulated_timeout_maps_to_access_timeout_then_recovers(self):
        transport = StubTransport(
            web_schema(), web_instance(),
            fault_policy=FaultPolicy(seed=0, timeout_rate=1.0, burst=1),
        )
        client = HTTPSource(transport)
        with pytest.raises(AccessTimeout):
            client.access("mt_T", ("a",))
        # The burst drains per key: the retry reaches the real answer.
        assert client.access("mt_T", ("a",)) == oracle().access(
            "mt_T", ("a",)
        )
        assert transport.counters()["timeouts_injected"] == 1

    def test_injected_5xx_maps_to_source_unavailable_then_recovers(self):
        transport = StubTransport(
            web_schema(), web_instance(),
            fault_policy=FaultPolicy(seed=0, unavailable_rate=1.0, burst=1),
        )
        client = HTTPSource(transport)
        with pytest.raises(SourceUnavailable):
            client.access("mt_T", ("a",))
        assert client.access("mt_T", ("a",)) == oracle().access(
            "mt_T", ("a",)
        )

    def test_wrong_input_count_is_typed_access_violation(self):
        client = HTTPSource(StubTransport(web_schema(), web_instance()))
        with pytest.raises(AccessViolation):
            client.access("mt_T", ())


class TestEpochToken:
    def test_epoch_reflects_the_last_observed_response_header(self):
        instance = web_instance()
        transport = StubTransport(web_schema(), instance)
        client = HTTPSource(transport)
        client.access("mt_all")
        seen = client.epoch()
        assert seen == transport.epoch()
        instance.add("T", ("c", "new"))
        # No request since the mutation: the client still reports the
        # snapshot it actually read from, not the backend's new state.
        assert client.epoch() == seen
        client.access("mt_all")
        assert client.epoch() == transport.epoch() > seen


class TestBatching:
    def test_batch_endpoint_matches_per_key_answers_and_metering(self):
        transport = StubTransport(web_schema(), web_instance())
        client = HTTPSource(transport)
        keys = [("a",), ("b",), ("nope",)]
        batched = client.access_batch("mt_T", keys)
        assert client.batched_calls == 1
        assert transport.counters()["requests"] == 1
        assert client.total_invocations == len(keys)
        reference = oracle()
        for key in keys:
            values = tuple(_to_constant(v) for v in key)
            assert batched[values] == reference.access("mt_T", key)

    def test_faulted_batch_falls_back_to_per_key_and_converges(self):
        policy = FaultPolicy(seed=3, unavailable_rate=0.5, burst=1)
        candidates = [(f"k{i}",) for i in range(20)]
        faulty = [
            key
            for key in candidates
            if policy.kind_for("mt_T", tuple(map(_to_constant, key)))
            == KIND_UNAVAILABLE
        ]
        clean = [
            key
            for key in candidates
            if policy.kind_for("mt_T", tuple(map(_to_constant, key)))
            is None
        ]
        assert faulty and clean  # the schedule must exercise both paths
        instance = Instance(
            {"T": [(key[0], "row") for key in candidates]}
        )
        transport = StubTransport(
            web_schema(), instance, fault_policy=policy
        )
        client = HTTPSource(transport)
        keys = [clean[0], faulty[0], clean[1]]
        batched = client.access_batch("mt_T", keys)
        # The bulk request failed on the faulty key, so the client fell
        # back to per-key lookups -- where the burst drains per key and
        # every answer still lands byte-identical to the oracle.
        assert transport.counters()["requests"] >= 1 + len(keys)
        reference = InMemorySource(web_schema(), instance)
        for key in keys:
            values = tuple(_to_constant(v) for v in key)
            assert batched[values] == reference.access("mt_T", key)


class TestPagedLookupScansOnce:
    """A paged lookup's sorted matches are kept between its pages."""

    def big(self):
        return Instance({"T": [("k", f"r{i:04d}") for i in range(4000)]})

    def spy_builds(self, instance, monkeypatch):
        """The relations ``Instance.access_index`` builds an index of."""
        builds = []
        real = instance.rows

        def rows(relation):
            builds.append(relation)
            return real(relation)

        monkeypatch.setattr(instance, "rows", rows)
        return builds

    def spy_sorts(self, monkeypatch):
        """How many buckets the stub sorts."""
        sorts = []
        real = http._sorted_rows

        def sorted_rows(bucket):
            sorts.append(len(bucket))
            return real(bucket)

        monkeypatch.setattr(http, "_sorted_rows", sorted_rows)
        return sorts

    def test_a_4000_row_lookup_at_40_a_page_scans_once(self, monkeypatch):
        instance = self.big()
        builds = self.spy_builds(instance, monkeypatch)
        sorts = self.spy_sorts(monkeypatch)
        transport = StubTransport(web_schema(), instance, page_size=40)
        paged = HTTPSource(transport).access("mt_T", ("k",))
        assert transport.counters()["requests"] == 100
        assert builds == ["T"] and sorts == [4000]
        unpaged = HTTPSource(StubTransport(web_schema(), instance)).access(
            "mt_T", ("k",)
        )
        assert paged == unpaged and len(paged) == 4000
        # The pages, in order, are the unpaged answer's sorted rows.
        pages = [
            transport.request(
                "GET", "/access/mt_T", {"inputs": ["k"], "page": page}
            ).payload["rows"]
            for page in range(100)
        ]
        assert [row for page in pages for row in page] == sorted(
            [row[0].value, row[1].value] for row in unpaged
        )
        # One index for all three lookups; one sort for each.
        assert builds == ["T"] and sorts == [4000] * 3
        assert not transport._paged

    def test_a_write_to_the_relation_between_pages_rescans(self, monkeypatch):
        instance = self.big()
        transport = StubTransport(web_schema(), instance, page_size=40)
        builds = self.spy_builds(instance, monkeypatch)
        sorts = self.spy_sorts(monkeypatch)

        def page(number):
            return transport.request(
                "GET", "/access/mt_T", {"inputs": ["k"], "page": number}
            )

        first = page(0)
        page(1)
        instance.add("Other", ("x",))
        assert page(2).payload["next_page"] == 3
        assert builds == ["T"] and sorts == [4000]
        instance.add("T", ("k", "a0000"))
        moved = page(0)
        assert builds == ["T", "T"] and sorts == [4000, 4001]
        assert moved.payload["rows"][0] == ["k", "a0000"]
        assert moved.headers[EPOCH_HEADER] != first.headers[EPOCH_HEADER]


class TestBatchScansOnce:
    """A batch request reads the relation once, however many keys."""

    def big(self):
        return Instance(
            {"T": [(f"k{i % 100:03d}", f"r{i:04d}") for i in range(4000)]}
        )

    def spy_reads(self, instance, monkeypatch):
        reads = []
        for name in ("tuples", "rows"):
            real = getattr(instance, name)

            def read(relation, real=real, name=name):
                reads.append((name, relation))
                return real(relation)

            monkeypatch.setattr(instance, name, read)
        return reads

    def batch(self, transport, keys):
        return transport.request(
            "GET", "/batch/mt_T", {"inputs_list": [list(key) for key in keys]}
        ).payload["results"]

    def per_key(self, transport, method, keys):
        return [
            {
                "inputs": list(key),
                "rows": transport._rows_for(
                    method, tuple(map(_to_constant, key))
                ),
            }
            for key in keys
        ]

    def test_a_100_key_batch_over_4000_rows_scans_once(self, monkeypatch):
        instance = self.big()
        transport = StubTransport(web_schema(), instance)
        keys = [(f"k{i:03d}",) for i in reversed(range(100))] + [("absent",)]
        reads = self.spy_reads(instance, monkeypatch)
        results = self.batch(transport, keys)
        # One index build, no scan per key.
        assert reads == [("rows", "T")]
        expected = self.per_key(transport, web_schema().method("mt_T"), keys)
        assert results == expected and reads == [("rows", "T")]
        assert all(len(result["rows"]) == 40 for result in results[:-1])
        assert results[-1]["rows"] == []

    def test_free_access_repeated_keys_and_mixed_types(self):
        schema = (
            SchemaBuilder("mixed")
            .relation("T", 2)
            .access("mt_T", "T", inputs=[1], cost=1.0)
            .access("mt_all", "T", inputs=[], cost=1.0)
            .build()
        )
        instance = Instance(
            {"T": [(1, "a"), ("1", "a"), (1.5, "a"), (2, 1), (3, 1.0), (4, True)]}
        )
        transport = StubTransport(schema, instance)
        for method, keys in (
            ("mt_T", [("a",), (1,), ("a",), (True,), ("1",)]),
            ("mt_all", [(), ()]),
        ):
            results = transport.request(
                "GET", f"/batch/{method}", {"inputs_list": [list(k) for k in keys]}
            ).payload["results"]
            assert results == self.per_key(transport, schema.method(method), keys)

    def test_nan_keys_are_answered_as_per_key(self):
        # A NaN cell equals only itself: the stored object matches, a
        # fresh NaN matches nothing, on either path.
        instance = Instance({"T": [(float("nan"), "x"), ("k", "y")]})
        transport = StubTransport(web_schema(), instance)
        (stored,) = [row[0].value for row in instance.tuples("T") if row[1].value == "x"]
        keys = [(stored,), (float("nan"),), ("k",)]
        results = self.batch(transport, keys)
        assert results == self.per_key(transport, web_schema().method("mt_T"), keys)
        assert [len(result["rows"]) for result in results] == [1, 0, 1]

    def test_fault_draws_stay_per_key_in_key_order(self):
        policy = FaultPolicy(seed=3, unavailable_rate=0.5, burst=1)
        keys = [(f"k{i}",) for i in range(20)]
        first_faulty = next(
            i
            for i, key in enumerate(keys)
            if policy.kind_for("mt_T", tuple(map(_to_constant, key)))
            == KIND_UNAVAILABLE
        )
        instance = Instance({"T": [(key[0], "row") for key in keys]})
        transport = StubTransport(web_schema(), instance, fault_policy=policy)
        response = transport.request(
            "GET", "/batch/mt_T", {"inputs_list": [list(key) for key in keys]}
        )
        assert response.status == 500
        # The keys up to the faulty one drew their attempt; none after.
        drawn = {key[1][0].value for key in transport._attempts}
        assert drawn == {key[0] for key in keys[: first_faulty + 1]}
