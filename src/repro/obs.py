"""One stats record: the merge and the dict form every counter class shares.

Each stats class (``HomStats``, ``ChaseStats``, ``DominationStats``,
``SearchStats``, ``CommandStats``, ``ExecStats``, ``FaultStats``) and
each of the serving layer's books (``ServiceBooks`` with its
``ServiceHealth`` snapshot, ``TierBooks``, ``MethodCalibration``) is a
dataclass of fields over :class:`Record`.  ``absorb`` folds a record of
the same class in by a rule read off each field's default: a number
adds, a nested record absorbs, a list extends, a dict adds per key, a
string (or ``None``) keeps the first non-empty value.  A field declared
with ``metadata=MAX`` keeps the larger value; one with
``metadata=PER_RUN`` describes one run and is not carried, so an
aggregate holds totals only.  Imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import Any, ClassVar, Dict, Tuple

#: ``field(metadata=MAX)``: absorb keeps the larger value.
MAX = {"absorb": "max"}
#: ``field(metadata=PER_RUN)``: absorb leaves the field alone.
PER_RUN = {"absorb": "per_run"}

_RULES = ("add", "record", "first", "max", "extend", "keys", "per_run")


@cache
def _plan(cls: type) -> Tuple:
    """``cls``'s fields as ``(name, rule, type of the default)`` in
    declaration order, their names by rule, and the names of those whose
    value may need :func:`_plain` (any default but a number or a string);
    worked out once."""
    kinds = (
        ("record", Record), ("first", (str, type(None))),
        ("add", (int, float)), ("extend", list), ("keys", dict),
    )
    entries, by_rule, nested = [], {rule: [] for rule in _RULES}, []
    for spec in fields(cls):
        default = spec.default
        if spec.default_factory is not MISSING:
            default = spec.default_factory()
        rule = spec.metadata.get("absorb") or next(
            name for name, kind in kinds if isinstance(default, kind)
        )
        entries.append((spec.name, rule, type(default)))
        by_rule[rule].append(spec.name)
        if not isinstance(default, (int, float, str)):
            nested.append(spec.name)
    return tuple(entries), by_rule, tuple(nested)


def _plain(value: Any) -> Any:
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return dict(value) if isinstance(value, dict) else value


@dataclass
class Record:
    """A dataclass of counters that absorbs its like and ships as a dict.

    A subclass is a plain (unslotted) dataclass: it declares fields,
    each with a default, and may name read-only properties in
    ``derived`` for :meth:`as_dict` to include.
    """

    derived: ClassVar[Tuple[str, ...]] = ()

    def absorb(self, other: "Record") -> None:
        """Fold ``other``, a record of this class or a subclass, into
        this one (a subclass's own fields are not read)."""
        by_rule = _plan(type(self))[1]
        mine, theirs = self.__dict__, other.__dict__
        for name in by_rule["add"]:
            mine[name] += theirs[name]
        for name in by_rule["record"]:
            mine[name].absorb(theirs[name])
        for name in by_rule["first"]:
            if not mine[name]:
                mine[name] = theirs[name]
        for name in by_rule["max"]:
            if theirs[name] > mine[name]:
                mine[name] = theirs[name]
        for name in by_rule["extend"]:
            mine[name].extend(theirs[name])
        for name in by_rule["keys"]:
            counts = mine[name]
            for key, count in theirs[name].items():
                counts[key] = counts.get(key, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        """The fields in declaration order, then the derived names."""
        entries, _, nested = _plan(type(self))
        values = self.__dict__
        out = {name: values[name] for name, _, _ in entries}
        for name in nested:
            out[name] = _plain(out[name])
        for name in self.derived:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Record":
        """Inverse of :meth:`as_dict`.  A field the payload lacks keeps
        its default; a key that is not a field (a derived total) is
        ignored -- recomputed, never read."""
        values = {}
        for name, rule, kind in _plan(cls)[0]:
            if name in data:
                value = data[name]
                if rule == "record":
                    value = kind.from_dict(value)
                elif issubclass(kind, (list, dict)):
                    value = kind(value)
                values[name] = value
        return cls(**values)
