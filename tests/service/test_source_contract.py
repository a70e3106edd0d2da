"""One source contract: every spec-able class, one table of cases.

A source crosses the process boundary as ``source.to_spec()`` and comes
back through ``spec_to_source``'s kind -> class table.  Before the
``isinstance`` chains that did this were deleted, the spec of every
case below was dumped at the parent commit (e78f8b6) into
``golden/source_specs.json``; the specs the classes now write about
themselves must equal that file, and a source rebuilt from one must
answer, log and charge exactly like the source it describes.
``PYTHONPATH=src python -m tests.service.test_source_contract`` rewrites
the file, which is only right for a change that means to alter the wire
format.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.decorators import (
    HedgedSource,
    LatencySource,
    StormyLatencySource,
)
from repro.data.source import InMemorySource
from repro.errors import ReproError
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.scenarios import example1
from repro.service import SourceSpecError, source_to_spec, spec_to_source
from repro.service.workers import SPEC_CLASSES
from repro.source_contract import SourceWrapper
from repro.sources import (
    HTTPSource,
    PacedSource,
    SQLiteSource,
    StubTransport,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "source_specs.json"

#: Faults on roughly every other key, one failed attempt each.
POLICY = FaultPolicy(seed=7, unavailable_rate=0.3, timeout_rate=0.2, burst=1)


def scenario_data():
    scenario = example1(professors=8, directory_extra=3)
    return scenario.schema, scenario.instance(0)


def memory():
    return InMemorySource(*scenario_data())


def sqlite():
    return SQLiteSource(
        *scenario_data(), max_reconnects=2, backoff=0.005, drop_every=3
    )


def http():
    transport = StubTransport(
        *scenario_data(),
        page_size=2,
        rate_limit=5000.0,
        burst=64.0,
        fault_policy=FaultPolicy(seed=5, unavailable_rate=0.25, burst=1),
    )
    return HTTPSource(transport, max_retry_after_waits=3)


#: Golden key -> factory of the source whose spec was recorded: one row
#: per kind in ``spec_to_source``'s table, plus a representative stack.
CASES = {
    "memory": memory,
    "memory-unindexed": lambda: InMemorySource(
        *scenario_data(), indexed=False
    ),
    "sqlite": sqlite,
    "http": http,
    "latency": lambda: LatencySource(memory(), 0.001),
    "storm": lambda: StormyLatencySource(
        memory(), base_latency=0.0, slow_latency=0.002, slow_every=5
    ),
    "hedge": lambda: HedgedSource(memory(), delay=0.05),
    "paced": lambda: PacedSource(
        memory(), rate=100000.0, capacity=64.0, max_wait=0.5
    ),
    "faults": lambda: FaultInjectingSource(memory(), POLICY),
    "stack": lambda: FaultInjectingSource(
        PacedSource(LatencySource(sqlite(), 0.0), rate=100000.0, capacity=64.0),
        POLICY,
    ),
}

class Undeclared(SourceWrapper):
    """Intercepts nothing and names no ``spec_kind``."""


#: Every wrapper class, spec-able or not, over an in-memory source.
WRAPPERS = {
    "undeclared": lambda: Undeclared(memory()),
    **{
        name: CASES[name]
        for name in (
            "latency",
            "storm",
            "hedge",
            "paced",
            "faults",
        )
    },
}


def golden():
    return json.loads(GOLDEN_PATH.read_text())


def canonical(spec):
    return json.dumps(spec, sort_keys=True)


def probes(source):
    """Inputs for every method: a key that is there, and one that is not."""
    for method in source.schema.methods:
        rows = sorted(
            source.instance.tuples(method.relation), key=repr
        )
        present = tuple(rows[0][p] for p in method.input_positions)
        yield method.name, present
        if present:
            yield method.name, ("no-such-key",) * len(present)


def observe(source):
    """What a caller sees: each probe asked twice (a retry), then the books."""
    seen = []
    for method_name, inputs in list(probes(source)) * 2:
        try:
            rows = source.access(method_name, inputs)
        except ReproError as error:
            seen.append((method_name, inputs, type(error).__name__))
        else:
            seen.append((method_name, inputs, sorted(rows, key=repr)))
    return seen, list(source.log), source.charged_cost()


@pytest.mark.parametrize("name", CASES)
class TestEverySpecableSource:
    def test_spec_is_the_parents(self, name):
        spec = source_to_spec(CASES[name]())
        assert canonical(spec) == canonical(golden()[name])

    def test_rebuilt_source_answers_logs_and_charges_identically(self, name):
        original = CASES[name]()
        rebuilt = spec_to_source(
            json.loads(json.dumps(source_to_spec(original)))
        )
        layer, twin = original, rebuilt
        while True:  # the whole stack comes back, class for class
            assert type(twin) is type(layer)
            if not hasattr(layer, "inner"):
                break
            layer, twin = layer.inner, twin.inner
        assert observe(rebuilt) == observe(original)

    def test_batch_endpoint_is_the_class_own_or_absent(self, name):
        original = CASES[name]()
        rebuilt = spec_to_source(source_to_spec(original))
        for source in (original, rebuilt):
            while True:
                batch = getattr(source, "access_batch", None)
                if batch is not None:
                    assert batch.__self__ is source
                    assert batch.__func__ is type(source).access_batch
                if not hasattr(source, "inner"):
                    break
                source = source.inner


def test_a_process_importing_only_the_worker_module_rehydrates_every_spec():
    """The spawn worker's import set: ``repro.service.workers``, no more."""
    script = (
        "import json, sys\n"
        "from repro.service.workers import spec_to_source\n"
        "specs = json.load(open(sys.argv[1]))\n"
        "print(json.dumps({name: type(spec_to_source(spec)).__name__"
        " for name, spec in specs.items()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(GOLDEN_PATH)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        name: type(build()).__name__ for name, build in CASES.items()
    }


class TestNotSpecable:
    def test_a_wrapper_that_declares_no_kind_is_refused_by_the_base(self):
        # Refused, not quietly described as the source it wraps.
        wrapper = Undeclared(memory())
        with pytest.raises(SourceSpecError, match="spec_kind"):
            source_to_spec(wrapper)
        with pytest.raises(SourceSpecError, match="spec_kind"):
            source_to_spec(LatencySource(wrapper, 0.0))

    def test_a_transport_without_spec_config_is_refused(self):
        class OpaqueTransport:
            """A live-socket stand-in: nothing to rebuild it from."""

            schema, instance = scenario_data()

        with pytest.raises(SourceSpecError, match="is not spec-able"):
            source_to_spec(HTTPSource(OpaqueTransport()))

    def test_an_unknown_kind_is_refused(self):
        spec = source_to_spec(memory())
        with pytest.raises(SourceSpecError, match="unknown"):
            spec_to_source({**spec, "kind": "tape"})
        with pytest.raises(SourceSpecError, match="unknown"):
            spec_to_source({"wrap": "caching", "inner": spec})

    @pytest.mark.parametrize(
        "key,kind",
        [("kind", "sharded"), ("wrap", "aimd"), ("wrap", "coalescing")],
    )
    def test_a_kind_the_table_no_longer_holds_is_unknown(self, key, kind):
        spec = source_to_spec(memory())
        stale = (
            {**spec, "kind": kind}
            if key == "kind"
            else {"wrap": kind, "inner": spec}
        )
        with pytest.raises(SourceSpecError, match="unknown source spec kind"):
            spec_to_source(stale)

    def test_the_golden_file_names_every_kind_in_the_table(self):
        named = {
            spec.get("wrap") or spec["kind"] for spec in golden().values()
        }
        assert named == set(SPEC_CLASSES)
        assert len(SPEC_CLASSES) == 8


@pytest.mark.parametrize("name", WRAPPERS)
class TestEveryWrapper:
    def test_copy_does_not_recurse(self, name):
        """``copy`` probes ``__setstate__`` before ``inner`` is set."""
        wrapper = WRAPPERS[name]()
        clone = copy.copy(wrapper)
        assert type(clone) is type(wrapper)
        assert clone.inner is wrapper.inner
        assert clone.access("mt_udir") == wrapper.inner.access("mt_udir")

    def test_everything_but_access_reaches_the_wrapped_source(self, name):
        wrapper = WRAPPERS[name]()
        assert wrapper.schema is wrapper.inner.schema
        assert wrapper.log is wrapper.inner.log
        assert wrapper.access_batch is None or (
            wrapper.access_batch.__func__ is type(wrapper).access_batch
        )
        with pytest.raises(AttributeError):
            wrapper.no_such_attribute


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(  # one case a line, so a diff names the case
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: {canonical(source_to_spec(build()))}"
            for name, build in CASES.items()
        )
        + "\n}\n"
    )
