"""Live columns and the bind probe against the plan as built.

A Hypothesis property draws chains of commands -- literal tables,
access commands on an :class:`InMemorySource` with the tables that read
them back, σ/π/⋈/ρ readers, unions and differences, a re-defined
target, unread tables -- and runs each plan under both engines.  The
reference evaluates the plan as built, command by command, with the
row-by-row ``reference`` of ``test_expressions`` and one access per
distinct key.  Output rows, the number of accesses and each access
command's multiset of keys must agree; every table left in
``run_with_env``'s environment must be the reference's table or, for a
read intermediate, its projection onto the columns the executable form
kept.

The property fails if the rewrite prunes through a ``Difference``
(``π(L − R) ≠ π(L) − π(R)``), if a join stops requiring one of its
shared attributes (the natural join loses a condition), or if the
join probes an access table's answers keyed on a strict subset of the
shared attributes (rows the other shared attributes reject join).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, MiddlewareCommand
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder
from tests.plans.test_expressions import reference

DOMAIN = [Constant(v) for v in ("a", "b", "c")]

SCHEMA = (
    SchemaBuilder("live")
    .relation("R", 2)
    .relation("S", 3)
    .access("mt_R", "R", inputs=[], cost=1.0)
    .access("mt_R0", "R", inputs=[0], cost=1.0)
    .access("mt_S0", "S", inputs=[0], cost=1.0)
    .access("mt_S01", "S", inputs=[0, 1], cost=1.0)
    .access("mt_S2", "S", inputs=[2], cost=1.0)
    .build()
)
METHODS = {
    m.name: (SCHEMA.relation(m.relation).arity, m.input_positions)
    for m in SCHEMA.methods
}


# ------------------------------------------------------------ the reference
def evaluate(expr, env):
    """``(attributes, rows)`` of an expression of the plan as built."""
    if isinstance(expr, Literal):
        return expr.table.attributes, set(expr.table.rows)
    if isinstance(expr, Singleton):
        return (), {()}
    if isinstance(expr, (Union, Difference)):
        left_attrs, left_rows = evaluate(expr.left, env)
        right_attrs, right_rows = evaluate(expr.right, env)
        order = [right_attrs.index(a) for a in left_attrs]
        right_rows = {tuple(row[i] for i in order) for row in right_rows}
        if isinstance(expr, Union):
            return left_attrs, left_rows | right_rows
        return left_attrs, left_rows - right_rows
    return reference(expr, env)


def map_output(output_map, accessed):
    """``b_out`` on one accessed tuple; ``None`` when a filter fails."""
    row = []
    for _attr, positions in output_map:
        values = [accessed[p] for p in positions]
        if any(v != values[0] for v in values):
            return None
        row.append(values[0])
    return tuple(row)


def run_reference(plan, source):
    """The plan as built, one access per distinct key.

    Returns the environment and, per access command, the multiset of
    keys it sent.
    """
    env, keys_sent = {}, []
    for command in plan.commands:
        if isinstance(command, AccessCommand):
            attrs, rows = evaluate(command.input_expr, env)
            keys = {
                tuple(
                    entry if isinstance(entry, Constant) else row[attrs.index(entry)]
                    for entry in command.input_binding
                )
                for row in rows
            }
            produced = set()
            for key in keys:
                for accessed in source.access(command.method, key):
                    row = map_output(command.output_map, accessed)
                    if row is not None:
                        produced.add(row)
            env[command.target] = NamedTable.from_rows(
                [attr for attr, _ in command.output_map], produced
            )
            keys_sent.append((command.method, Counter(keys)))
        else:
            attrs, rows = evaluate(command.expr, env)
            env[command.target] = NamedTable.from_rows(attrs, rows)
    return env, keys_sent


# ------------------------------------------------------------ the plans
class Chain:
    """A plan under construction: commands and each table's attributes."""

    def __init__(self):
        self.commands = []
        self.attrs = {}
        self.names = 0

    def fresh(self, prefix):
        self.names += 1
        return f"{prefix}{self.names}"

    def add(self, command, attrs):
        self.commands.append(command)
        self.attrs[command.target] = tuple(attrs)

    def middleware_target(self, draw):
        """A fresh name, or now and then one a middleware command wrote."""
        written = sorted(
            c.target for c in self.commands if isinstance(c, MiddlewareCommand)
        )
        if written and draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(written))
        return self.fresh("T")


def literal(draw, chain):
    width = draw(st.integers(1, 3))
    attrs = [chain.fresh("x") for _ in range(width)]
    rows = draw(
        st.lists(st.tuples(*[st.sampled_from(DOMAIN)] * width), min_size=1, max_size=6)
    )
    target = chain.fresh("L")
    chain.add(MiddlewareCommand(target, Literal(NamedTable.from_rows(attrs, rows))), attrs)


def output_map_for(draw, prefix, arity):
    """Identity (mostly), permuted, or an equality filter on 0 and 1."""
    kind = draw(st.sampled_from(["identity", "identity", "permuted", "filter"]))
    if kind == "permuted" and arity > 1:
        return tuple((f"{prefix}_p{i}", (i,)) for i in reversed(range(arity)))
    if kind == "filter" and arity > 1:
        rest = tuple((f"{prefix}_p{i}", (i,)) for i in range(2, arity))
        return ((f"{prefix}_p0", (0, 1)),) + rest
    return tuple((f"{prefix}_p{i}", (i,)) for i in range(arity))


def access_and_read_back(draw, chain):
    """``A <- mt <- E`` over a table ``T``, then often ``T ⋈ ρ(A)``.

    The rename names each input position's attribute after the one that
    fed it, so the join's shared attributes are the key; now and then
    it also shares a non-input position (shared ⊋ key), and a constant
    input or an input-free method leave the key unshared or empty.
    """
    table = draw(st.sampled_from(sorted(chain.attrs)))
    attrs = chain.attrs[table]
    method = draw(st.sampled_from(sorted(METHODS)))
    arity, inputs = METHODS[method]
    entry = st.sampled_from(DOMAIN)
    if attrs:
        entry = st.one_of(st.sampled_from(attrs), st.sampled_from(attrs), entry)
    binding = tuple(draw(entry) for _ in inputs)
    used = tuple(dict.fromkeys(e for e in binding if isinstance(e, str)))
    source_expr = Scan(table)
    if used and draw(st.booleans()):
        source_expr = Project(source_expr, used)
    if not inputs and draw(st.booleans()):
        source_expr = Singleton()
    target = chain.fresh("A")
    output_map = output_map_for(draw, target, arity)
    chain.add(
        AccessCommand(target, method, source_expr, binding, output_map),
        [a for a, _ in output_map],
    )
    if not draw(st.integers(0, 3)):
        return  # the access table is read some other way, or never
    feeding = {}
    for attr, positions in output_map:
        for position in positions:
            feeding.setdefault(position, attr)
    mapping, taken = {}, set()
    for position, value in zip(inputs, binding):
        attr = feeding.get(position)
        if isinstance(value, str) and attr and attr not in mapping and value not in taken:
            mapping[attr] = value
            taken.add(value)
    spare = [a for a, _ in output_map if a not in mapping]
    others = [a for a in attrs if a not in taken]
    if spare and others and draw(st.integers(0, 3)) == 0:
        mapping[draw(st.sampled_from(spare))] = draw(st.sampled_from(others))
    renamed = Rename(Scan(target), tuple(mapping.items()))
    pair = (Scan(table), renamed)
    if draw(st.booleans()):
        pair = pair[::-1]
    expr = Join(*pair)
    if draw(st.booleans()):
        expr = Project(expr, some_of(draw, attrs_of(chain, expr)))
    chain.add(MiddlewareCommand(chain.middleware_target(draw), expr), attrs_of(chain, expr))


def condition_on(draw, attrs):
    one, other = draw(st.sampled_from(attrs)), draw(st.sampled_from(attrs))
    return draw(
        st.sampled_from(
            [EqConst(one, draw(st.sampled_from(DOMAIN))), EqAttr(one, other), NeqAttr(one, other)]
        )
    )


def sharing(chain, attrs):
    """The tables that share an attribute with ``attrs``."""
    return sorted(t for t, a in chain.attrs.items() if set(a) & set(attrs))


def reader(draw, chain):
    """A σ, π, ⋈ or ρ over the tables so far.

    A join prefers two tables with a shared attribute and is often
    projected onto fewer columns, so a shared attribute that nothing
    above reads must still be kept below it.
    """
    table = draw(st.sampled_from(sorted(chain.attrs)))
    attrs = chain.attrs[table]
    kind = draw(st.sampled_from(["project", "select", "join", "join", "rename"]))
    if kind == "project" or (kind in ("select", "rename") and not attrs):
        expr = Project(Scan(table), some_of(draw, attrs))
    elif kind == "select":
        expr = Select(Scan(table), (condition_on(draw, attrs),))
    elif kind == "join":
        partners = sharing(chain, attrs) or sorted(chain.attrs)
        expr = Join(Scan(table), Scan(draw(st.sampled_from(partners))))
        if draw(st.integers(0, 3)):
            expr = Project(expr, some_of(draw, attrs_of(chain, expr)))
    else:
        expr = Rename(Scan(table), ((draw(st.sampled_from(attrs)), chain.fresh("r")),))
    chain.add(MiddlewareCommand(chain.middleware_target(draw), expr), attrs_of(chain, expr))


def join_of_copies(draw, chain):
    """``P := σ(T)``, ``Q := ρ(T)`` sharing one attribute, ``π(P ⋈ Q)`` without it.

    Nothing but the join needs the shared attribute of ``P`` and ``Q``.
    """
    wide = sorted(t for t, a in chain.attrs.items() if a)
    if not wide:
        return
    table = draw(st.sampled_from(wide))
    attrs = chain.attrs[table]
    key = draw(st.sampled_from(attrs))
    copy = Scan(table)
    if draw(st.booleans()):
        copy = Select(copy, (condition_on(draw, attrs),))
    chain.add(MiddlewareCommand(chain.fresh("P"), copy), attrs)
    first = chain.commands[-1].target
    renamed = tuple((a, chain.fresh("c")) for a in attrs if a != key)
    chain.add(MiddlewareCommand(chain.fresh("Q"), Rename(Scan(table), renamed)), ())
    second = chain.commands[-1].target
    chain.attrs[second] = attrs_of(chain, chain.commands[-1].expr)
    joined = Join(Scan(first), Scan(second))
    kept = [a for a in attrs_of(chain, joined) if a != key]
    expr = Project(joined, some_of(draw, kept))
    chain.add(MiddlewareCommand(chain.fresh("J"), expr), attrs_of(chain, expr))


def set_operation(draw, chain):
    """``V := π[C](T)``, ``W := π[C](σ(T'))``, ``V ∪ W`` or ``V − W``, then π.

    ``T'`` holds every attribute of ``C`` (often it is ``T``), and the
    last command reads the result on fewer columns than it has.
    """
    first = draw(st.sampled_from(sorted(chain.attrs)))
    common = some_of(draw, chain.attrs[first])
    holders = sorted(t for t, a in chain.attrs.items() if set(common) <= set(a))
    second = draw(st.sampled_from([first] + holders))
    left, right = chain.fresh("V"), chain.fresh("W")
    chain.add(MiddlewareCommand(left, Project(Scan(first), common)), common)
    filtered = Scan(second)
    if chain.attrs[second] and draw(st.booleans()):
        filtered = Select(filtered, (condition_on(draw, chain.attrs[second]),))
    swapped = common[::-1]
    chain.add(MiddlewareCommand(right, Project(filtered, swapped)), swapped)
    operator = draw(st.sampled_from([Union, Difference]))
    combined = chain.fresh("U")
    chain.add(MiddlewareCommand(combined, operator(Scan(left), Scan(right))), common)
    narrower = common[: draw(st.integers(0, max(len(common) - 1, 0)))]
    chain.add(MiddlewareCommand(chain.fresh("T"), Project(Scan(combined), narrower)), narrower)


def some_of(draw, attrs):
    """A duplicate-free selection of ``attrs``, in the order drawn."""
    if not attrs:
        return ()
    return tuple(draw(st.lists(st.sampled_from(list(attrs)), unique=True)))


def attrs_of(chain, expr):
    return expr.attributes(chain.attrs)


@st.composite
def plans(draw):
    chain = Chain()
    for _ in range(draw(st.integers(1, 2))):
        literal(draw, chain)
    steps = [
        access_and_read_back,
        access_and_read_back,
        reader,
        join_of_copies,
        set_operation,
    ]
    for _ in range(draw(st.integers(1, 6))):
        draw(st.sampled_from(steps))(draw, chain)
    if draw(st.booleans()):
        last = draw(st.sampled_from(sorted(chain.attrs)))
        picked = some_of(draw, chain.attrs[last])
        chain.add(MiddlewareCommand("OUT", Project(Scan(last), picked)), picked)
        output = "OUT"
    else:
        output = draw(st.sampled_from(sorted(chain.attrs)))
    relation_rows = {
        name: draw(
            st.lists(
                st.tuples(*[st.sampled_from(DOMAIN)] * arity), min_size=3, max_size=12
            )
        )
        for name, arity in (("R", 2), ("S", 3))
    }
    return Plan(tuple(chain.commands), output), Instance(relation_rows)


# ------------------------------------------------------------ the property
def blocks(source, keys_sent):
    """The engine's log cut into one multiset of keys per access command."""
    log, start, cut = list(source.log), 0, []
    for method, expected in keys_sent:
        records = log[start : start + sum(expected.values())]
        start += len(records)
        assert all(r.method == method for r in records)
        cut.append((method, Counter(r.inputs for r in records)))
    assert start == len(log)
    return cut


def kept_attributes(plan):
    """Tables whose attributes the executable form must leave alone."""
    read = Counter(t for c in plan.commands for t in c.tables_read())
    defined = Counter(c.target for c in plan.commands)
    return {
        c.target
        for c in plan.commands
        if isinstance(c, AccessCommand)
        or c.target == plan.output_table
        or not read[c.target]
        or defined[c.target] > 1
    }


class TestAgainstThePlanAsBuilt:
    @settings(max_examples=250, deadline=None)
    @given(plans())
    def test_both_engines_match_the_reference(self, case):
        plan, instance = case
        expected_env, keys_sent = run_reference(
            plan, InMemorySource(SCHEMA, instance)
        )
        expected = expected_env[plan.output_table]
        for executor in ("interpreter", "columnar"):
            source = InMemorySource(SCHEMA, instance)
            out = plan.execute(source, executor=executor)
            assert (out.attributes, out.rows) == (
                expected.attributes,
                expected.rows,
            ), executor
            assert source.total_invocations == sum(
                sum(keys.values()) for _, keys in keys_sent
            )
            assert blocks(source, keys_sent) == keys_sent, executor

    @settings(max_examples=150, deadline=None)
    @given(plans())
    def test_each_table_is_its_live_projection(self, case):
        plan, instance = case
        expected_env, _ = run_reference(plan, InMemorySource(SCHEMA, instance))
        _out, env = plan.run_with_env(InMemorySource(SCHEMA, instance))
        kept = kept_attributes(plan)
        assert env.keys() == expected_env.keys()
        for name, table in env.items():
            declared = expected_env[name]
            if name in kept:
                assert table.attributes == declared.attributes, name
                assert table.rows == declared.rows, name
                continue
            order = [declared.attributes.index(a) for a in table.attributes]
            assert order == sorted(order), name
            assert table.rows == {
                tuple(row[i] for i in order) for row in declared.rows
            }, name
