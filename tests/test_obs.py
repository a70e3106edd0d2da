"""One stats record: every counter class is a ``repro.obs.Record``.

Parametrised over every subclass of :class:`~repro.obs.Record` in the
package, with instances drawn from each class's own field types:

* the dict form survives JSON and comes back as the same record;
* ``absorb`` folds field by field -- numbers add, ``MAX`` fields keep the
  larger, lists extend, dicts add per key, strings keep the first
  non-empty value, nested records absorb, ``PER_RUN`` fields stay -- and
  the rules are worked out here from the declarations, not read off
  ``repro.obs``;
* a ``derived`` name in the dict form is the property's value, and a
  payload's copy of it is never read back;
* ``repro.obs`` imports nothing from ``repro``.
"""

import ast
import json
import typing
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.obs
from repro.exec.stats import ExecStats
from repro.obs import Record

#: The seven stats classes, then the serving layer's books.
RECORD_CLASSES = {
    "HomStats", "ChaseStats", "DominationStats", "SearchStats",
    "CommandStats", "ExecStats", "FaultStats",
    "ServiceBooks", "ServiceHealth", "TierBooks",
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = sorted(set(subclasses(Record)), key=lambda cls: cls.__name__)


def is_record(hint):
    return isinstance(hint, type) and issubclass(hint, Record)


def values(hint):
    """A strategy for one field's values, from its declared type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_record(hint):
        return records(hint)
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(0, 10**6)
    if hint is float:
        return st.floats(0, 1e6, allow_nan=False)
    if hint is str:
        return st.text(max_size=4)
    if origin is typing.Union:  # Optional[X]
        return st.none() | values(args[0])
    if origin is list:
        return st.lists(values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(
            st.text(max_size=3), st.integers(0, 100), max_size=3
        )
    if hint is Counter:
        return st.dictionaries(
            st.integers(0, 50), st.integers(1, 100), max_size=3
        ).map(Counter)
    raise AssertionError(f"no strategy for {hint!r}")


def recounted(stats):
    """An ``ExecStats`` whose totals are those of its commands, as the
    command loop (and ``from_dict``) makes them."""
    for record in stats.commands:
        stats.count(record)
    return stats


#: ExecStats's totals: counted from its commands, never drawn.
EXEC_TOTALS = (
    "accesses_dispatched", "accesses_deduped", "cache_hits", "rows_out",
    "retries", "faults", "breaker_trips",
)


def records(cls):
    hints = typing.get_type_hints(cls)
    drawn = {
        spec.name: values(hints[spec.name])
        for spec in fields(cls)
        if not (cls is ExecStats and spec.name in EXEC_TOTALS)
    }
    built = st.builds(cls, **drawn)
    return built.map(recounted) if cls is ExecStats else built


def folded(cls, mine, theirs):
    """What ``absorb`` must make of two records' dict forms."""
    hints = typing.get_type_hints(cls)
    out = {}
    for spec in fields(cls):
        m, t = mine[spec.name], theirs[spec.name]
        marked = spec.metadata.get("absorb")
        if marked == "max":
            value = max(m, t)
        elif marked == "per_run":
            value = m
        elif is_record(hints[spec.name]):
            value = folded(hints[spec.name], m, t)
        elif isinstance(m, list):
            value = m + t
        elif isinstance(m, dict):
            value = {k: m.get(k, 0) + t.get(k, 0) for k in {**m, **t}}
        elif m is None or isinstance(m, str):
            value = m or t
        else:
            value = m + t
        out[spec.name] = value
    return out


def without_derived(cls, data):
    """A dict form with the derived names (here and nested) dropped."""
    hints = typing.get_type_hints(cls)
    return {
        spec.name: (
            without_derived(hints[spec.name], data[spec.name])
            if is_record(hints[spec.name])
            else data[spec.name]
        )
        for spec in fields(cls)
    }


def test_the_record_classes_are_named():
    assert {cls.__name__ for cls in RECORDS} == RECORD_CLASSES
    for cls in RECORDS:
        for name in ("absorb", "as_dict"):
            assert name not in vars(cls), (cls.__name__, name)
    # The one codec of its own: ExecStats rebuilds its command list.
    assert [c.__name__ for c in RECORDS if "from_dict" in vars(c)] == [
        "ExecStats"
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_fresh_record_round_trips(cls):
    fresh = cls()
    assert cls.from_dict(fresh.as_dict()) == fresh


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip(cls, data):
    record = data.draw(records(cls))
    text = json.dumps(record.as_dict())
    back = cls.from_dict(json.loads(text))
    assert type(back) is cls
    assert json.dumps(back.as_dict()) == text


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_absorb_folds_field_by_field(cls, data):
    mine = data.draw(records(cls))
    theirs = data.draw(records(cls))
    expected = folded(
        cls,
        without_derived(cls, mine.as_dict()),
        without_derived(cls, theirs.as_dict()),
    )
    mine.absorb(theirs)
    got = mine.as_dict()
    assert without_derived(cls, got) == expected
    for name in cls.derived:
        assert got[name] == getattr(mine, name)


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c.derived], ids=lambda cls: cls.__name__
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_derived_names_are_recomputed_not_read(cls, data):
    record = data.draw(records(cls))
    payload = record.as_dict()
    for name in cls.derived:
        payload[name] = "tampered"
    back = cls.from_dict(payload)
    for name in cls.derived:
        assert back.as_dict()[name] == getattr(record, name) != "tampered"


def test_absorbing_into_a_fresh_record_copies_the_totals():
    run = ExecStats()
    record = run.command(0, "T", "access", method="m")
    record.dispatched, record.retries, record.breaker_trips = 4, 2, 1
    run.count(record)
    run.runs, run.peak_resident_rows = 1, 7
    ledger = ExecStats()
    ledger.absorb(run)
    ledger.absorb(run)
    assert ledger.commands == []
    assert (ledger.runs, ledger.accesses_dispatched, ledger.retries) == (
        2, 8, 4,
    )
    assert (ledger.breaker_trips, ledger.peak_resident_rows) == (2, 7)


def test_obs_imports_nothing_from_repro():
    tree = ast.parse(open(repro.obs.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found: the parse is wrong"
    for name in imported:
        assert not name.startswith("."), name
        assert name != "repro" and not name.startswith("repro."), name
