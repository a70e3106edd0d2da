"""The source contract, stated once.

In the paper a source *is* its access methods: a plan can only call
``mt(inputs)``, and the cost function charges each call.  What the
runtime asks of a source is all here, in a module that imports nothing
from :mod:`repro.data` or :mod:`repro.sources` and so sits below both:
the duck-typed protocol (:class:`SourceAdapter`) with its epoch token,
whole-source and per relation, read through any wrapper stack
(:func:`epoch_reader`, :func:`relation_epoch_reader`,
:func:`source_epoch`); what every backend inherits
(:class:`MeteredSourceMixin`); the one delegation base
(:class:`SourceWrapper`); and the spec a source writes about itself to
cross a process boundary (:class:`Specable`, :func:`source_to_spec`) --
the way back, ``spec_to_source``, sits beside the explicit kind -> class
table in :mod:`repro.service.workers`.

Inputs: an access supplies one constant per input position of its
method.  :func:`checked_inputs` is that check, the only copy of it --
every backend's ``access`` and ``access_batch`` start there.  Its common
case, an exact tuple of :class:`Constant` objects of the method's input
arity (what an access command dispatches), is decided in its own frame
and returns the caller's tuple itself; any other input goes through
:func:`constant_inputs`, the coercion of raw values that a wrapper
keying on the inputs (the fault schedule) shares, and is arity-checked
after it.

Batching: a backend that can answer several input tuples in one round
trip adds ``access_batch(method, inputs_list)``; the access-command
boundary uses it when present, and a wrapper never forwards it.

Metering: every backend logs each access as one :class:`AccessRecord`
in an :class:`AccessLog`.  The log keeps a record as its four fields in
one flat list, so an access adds no object the cyclic collector tracks;
records are built only when someone reads them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from functools import partial, reduce
from itertools import chain, repeat
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import AccessViolation
from repro.logic.terms import Constant, _to_constant
from repro.schema.serialize import schema_to_dict

#: Format marker stamped into every backend spec.
SPEC_KIND = "repro.source-spec"
SPEC_VERSION = 1


class SourceSpecError(ValueError):
    """Raised when a source (stack) cannot be described as a spec."""


@runtime_checkable
class SourceAdapter(Protocol):
    """The duck-typed contract every source backend satisfies.

    ``schema``
        the :class:`~repro.schema.core.Schema` whose access methods the
        adapter serves.
    ``access``
        invoke one method with values for all of its input positions;
        returns the matching relation tuples as a frozenset.
    ``log``
        the per-invocation metering log (an :class:`AccessLog` of
        :class:`AccessRecord`).
    ``epoch``
        a monotone snapshot token; answers observed under different
        epochs must never be mixed (see :func:`source_epoch`).

    A source may also offer ``relation_epoch(relation)``: the token of
    one relation, which moves only when that relation changes (and
    then ``epoch`` moves too).  An answer of a method over ``R`` reads
    ``R`` alone, so it stays good while ``R``'s token holds.  A source
    without the method is read as answering its ``epoch`` for every
    relation (:func:`relation_epoch_reader`).
    """

    schema: Any
    log: AccessLog

    def access(
        self, method_name: str, inputs: Sequence[object] = ()
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Invoke one access method with its bound input values."""
        ...

    def epoch(self) -> int:
        """The current monotone snapshot token."""
        ...


def constant_inputs(inputs: Sequence[object]) -> Tuple[Constant, ...]:
    """``inputs`` as a tuple of constants.

    A tuple that already holds nothing but :class:`Constant` objects --
    what an access command dispatches -- is returned as it is, the same
    object; anything else (a list, raw ``str``/``int``/``float``/``bool``
    values) is coerced value by value, and a value no constant can hold
    raises :class:`~repro.logic.terms.InstanceError`.
    """
    if type(inputs) is tuple:
        for value in inputs:
            if type(value) is not Constant:
                break
        else:
            return inputs
    return tuple(map(_to_constant, inputs))


def checked_inputs(method, inputs: Sequence[object]) -> Tuple[Constant, ...]:
    """The input tuple of one access to ``method``, or ``AccessViolation``.

    ``method`` is the :class:`~repro.schema.core.AccessMethod`; the
    access must supply exactly one value per input position, in the
    order the method declares them.  The common case -- an exact tuple
    of :class:`Constant` objects of the method's input arity, what an
    access command dispatches -- is decided in this frame and comes
    back as the same object; anything else is coerced
    (:func:`constant_inputs`) and then arity-checked.
    """
    arity = len(method.input_positions)
    if type(inputs) is tuple and len(inputs) == arity:
        for value in inputs:
            if type(value) is not Constant:
                break
        else:
            return inputs
    values = constant_inputs(inputs)
    if len(values) != arity:
        raise AccessViolation(
            f"method {method.name} needs {arity} "
            f"inputs, got {len(values)}",
            method=method.name,
            relation=method.relation,
            inputs=values,
        )
    return values


class AccessRecord(NamedTuple):
    """One logged invocation of an access method.

    What reading an :class:`AccessLog` yields: the log itself stores
    the four fields, and builds a record only when one is read.
    """

    method: str
    relation: str
    inputs: Tuple[Constant, ...]
    results: int


# An ``AccessRecord`` from a 4-tuple (or a list of four), without the
# Python frame of the generated ``__new__``.
_record_of = partial(tuple.__new__, AccessRecord)

# Fields per record in an ``AccessLog``'s flat list, and the offsets of
# the two the metering readers need.
_WIDTH = len(AccessRecord._fields)
_METHOD = AccessRecord._fields.index("method")
_INPUTS = AccessRecord._fields.index("inputs")


class AccessLog(SequenceABC):
    """A source's metering log: a read-only sequence of :class:`AccessRecord`.

    The records are kept as their fields, four to a record, in one flat
    list.  An access logs itself through :attr:`record`, which *is* the
    list's ``extend``: one C call with a 4-tuple adds a whole record,
    so no reader ever sees half of one, with or without the source's
    lock.  The log gains no object the cyclic collector tracks -- the
    method and relation names and the result count are atoms, and
    ``inputs`` is the tuple the caller already held -- where a record
    object (a tuple subclass) would stay tracked for as long as the log
    lives.  An :class:`AccessRecord` is built only when the log is read
    by index, slice or iteration; :meth:`fields` is what the metering
    readers read instead.
    """

    __slots__ = ("_fields", "record")

    def __init__(self) -> None:
        self._fields: List[Any] = []
        #: Log one access: ``record((method, relation, inputs, results))``.
        self.record: Callable[[Tuple[Any, ...]], None] = self._fields.extend

    def append(self, record: Sequence[Any]) -> None:
        """Log one access given as an :class:`AccessRecord` (any four fields)."""
        method, relation, inputs, results = record
        self.record((method, relation, inputs, results))

    def record_batch(
        self,
        method: str,
        relation: str,
        inputs: Sequence[Tuple[Any, ...]],
        results: Iterable[int],
    ) -> None:
        """Log one access per tuple of ``inputs``, in order, as one append.

        ``results`` gives each access's result count.  The records'
        fields are built into a list first and then added by one
        ``extend`` of it, so a reader (:meth:`fields`) sees all of a
        batch or none of it.
        """
        self._fields.extend(
            list(
                chain.from_iterable(
                    zip(repeat(method), repeat(relation), inputs, results)
                )
            )
        )

    def clear(self) -> None:
        """Drop every record."""
        self._fields.clear()

    def fields(self) -> Tuple[Any, ...]:
        """A point-in-time copy of the flat field list, whole records only.

        One C call: an access logging itself meanwhile lands wholly
        before or wholly after it.
        """
        return tuple(self._fields)

    def __len__(self) -> int:
        return len(self._fields) // _WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        position = operator.index(index)
        if position < 0:
            position += len(self)
        start = position * _WIDTH
        fields = self._fields[start : start + _WIDTH] if start >= 0 else ()
        if len(fields) != _WIDTH:
            raise IndexError("access log index out of range")
        return _record_of(fields)

    def __iter__(self) -> Iterator[AccessRecord]:
        fields = iter(self.fields())
        return map(_record_of, zip(*[fields] * _WIDTH))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AccessLog):
            return self._fields == other._fields
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"AccessLog({list(self)!r})"


def epoch_reader(source) -> Callable[[], Any]:
    """How to read a source's snapshot token, resolved once.

    Prefers a callable ``epoch()`` (the adapter protocol), falls back
    to ``instance.version`` (the in-memory sources), and answers 0 for
    sources with neither -- so epoch-less callers keep the exact
    pre-adapter cache semantics.  Wrappers delegate ``epoch`` via
    ``__getattr__``, so resolving through a stack reaches the backend.
    The reader returned is what a caller with many reads to make (the
    :class:`~repro.exec.cache.AccessCache`, once per key of an access
    command) calls for each; which of the three it is cannot change
    while a source object lives.
    """
    epoch = getattr(source, "epoch", None)
    if callable(epoch):
        return epoch
    instance = getattr(source, "instance", None)
    if getattr(instance, "version", None) is not None:
        return lambda: source.instance.version
    return lambda: 0


def relation_epoch_reader(source) -> Callable[[str], Any]:
    """How to read one relation's snapshot token, resolved once.

    A callable ``relation_epoch(relation)`` when the source offers one
    (every :class:`MeteredSourceMixin` backend does; wrappers delegate
    it via ``__getattr__``); otherwise the whole-source token of
    :func:`epoch_reader`, answered for every relation.
    """
    relation_epoch = getattr(source, "relation_epoch", None)
    if callable(relation_epoch):
        return relation_epoch
    read_epoch = epoch_reader(source)
    return lambda relation: read_epoch()


def source_epoch(source) -> int:
    """The source's current snapshot token, through any wrapper stack.

    One read through :func:`epoch_reader`.
    """
    return int(epoch_reader(source)())


class Specable:
    """A class names its ``spec_kind`` and the constructor fields to ship.

    A backend's spec is the format header, schema and instance dump plus
    those fields; a wrapper's ``{"wrap": kind, **fields, "inner": ...}``.
    """

    #: ``None``: instances cannot be shipped (a :class:`SourceSpecError`).
    spec_kind: Optional[str] = None
    #: Constructor keywords that are also attributes of the instance.
    spec_fields: Tuple[str, ...] = ()

    def to_spec(self) -> Dict[str, Any]:
        """This source (and what it wraps) as a plain dict."""
        if self.spec_kind is None:
            raise SourceSpecError(
                f"{type(self).__name__} declares no spec_kind: it cannot "
                "be described as a worker source spec"
            )
        return self._write_spec(self.spec_config())

    def spec_config(self) -> Dict[str, Any]:
        """The JSON form of the constructor fields named in ``spec_fields``."""
        return {name: getattr(self, name) for name in self.spec_fields}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], *built):
        """``cls(*built, **fields)``; a field the spec lacks keeps its default.

        ``built`` is the rebuilt inner source of a wrapper, the schema
        and instance of a backend.
        """
        fields = {n: spec[n] for n in cls.spec_fields if n in spec}
        return cls(*built, **fields)


class MeteredSourceMixin(Specable):
    """What every backend shares: metering, the epoch, the spec's shape.

    Subclasses provide ``self.log`` (an :class:`AccessLog`),
    ``self._lock`` (held around log mutation), ``self.schema`` and
    ``self.instance``, so benchmarks, the CLI and the worker tier treat
    every backend alike.  The metering readers read the log's fields
    (:meth:`AccessLog.fields`) and build no records.
    """

    def epoch(self) -> int:
        """The snapshot token: the ground-truth instance's mutation counter.

        Stable across a reconnect (which reloads the *same* snapshot),
        bumped by a mutation -- what the
        :class:`~repro.exec.cache.AccessCache` invalidates on.
        """
        return self.instance.version

    def relation_epoch(self, relation: str) -> int:
        """One relation's snapshot token: ``Instance.version_of(relation)``.

        It moves only when that relation grows, and :meth:`epoch` moves
        with it; the :class:`~repro.exec.cache.AccessCache` keeps each
        entry under it.  A backend whose only token covers the whole
        source answers that token here for every relation.
        """
        return self.instance.version_of(relation)

    def reset_log(self) -> None:
        """Clear the access log and counters."""
        with self._lock:
            self.log.clear()

    @property
    def total_invocations(self) -> int:
        """Every logged call, including repeats."""
        return len(self.log)

    def distinct_accesses(self):
        """The set of (method, inputs) pairs -- Theorem 8's access measure."""
        fields = self.log.fields()
        return frozenset(
            zip(fields[_METHOD::_WIDTH], fields[_INPUTS::_WIDTH])
        )

    def invocations_of(self, method_name: str) -> int:
        """Logged invocation count for one method."""
        return self.log.fields()[_METHOD::_WIDTH].count(method_name)

    def charged_cost(
        self, per_method: Optional[Dict[str, float]] = None
    ) -> float:
        """Total runtime cost: per-method weight (default: declared cost)."""
        methods = self.log.fields()[_METHOD::_WIDTH]
        weight = {}
        for name in dict.fromkeys(methods):
            if per_method is not None and name in per_method:
                weight[name] = per_method[name]
            else:
                weight[name] = self.schema.method(name).cost
        # Added one record at a time in log order, as a loop would: the
        # same float, which ``sum`` (compensated since 3.12) is not.
        return reduce(operator.add, map(weight.__getitem__, methods), 0.0)

    def _write_spec(self, config: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "format": SPEC_KIND,
            "version": SPEC_VERSION,
            "kind": self.spec_kind,
            "schema": schema_to_dict(self.schema),
            "instance": self.instance.to_dict(),
            **config,
        }


class SourceWrapper(Specable):
    """Delegate everything to ``inner``; subclasses intercept ``access``."""

    #: Never delegate the batch endpoint: a wrapper that intercepts
    #: ``access`` but silently forwarded ``access_batch`` would let the
    #: batch path route around its pacing/fault logic.
    #: Wrappers that can batch safely override this with a real method.
    access_batch = None

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def schema(self):
        """The wrapped source's schema."""
        return self.inner.schema

    def __getattr__(self, name):
        # ``copy`` and ``pickle`` probe an instance whose __init__ never
        # ran: an unset ``inner`` is a missing attribute, not a lookup
        # on ``self.inner`` that comes straight back here.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def _write_spec(self, config: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "wrap": self.spec_kind,
            **config,
            "inner": source_to_spec(self.inner),
        }


def source_to_spec(source) -> Dict[str, Any]:
    """Describe a source (possibly a wrapper stack) as a plain dict.

    What is an observation of the run so far -- logs, attempt counters,
    a bucket's token level -- is never in it: each worker starts its own.
    """
    to_spec = getattr(source, "to_spec", None)
    if not callable(to_spec):
        raise SourceSpecError(
            f"cannot describe {type(source).__name__} as a worker source spec"
        )
    return to_spec()
