"""The one σ/π-over-⋈ rewrite: a plan's executable form.

A plan as the planner builds it -- and as :mod:`repro.plans.ir`
serializes, fingerprints and caches it -- says *what* to compute.  This
module decides, once per plan, how the selections and projections around
its joins are evaluated, and both engines run the result: the
interpreter (:meth:`Expression.evaluate
<repro.plans.expressions.Expression.evaluate>`) and the columnar backend
(:mod:`repro.exec.columnar`).  Neither inspects a child node to fuse.

Per expression, bottom-up:

* every operator's attributes are resolved statically, each command's
  output attributes feeding the later commands' scans; an unknown name
  is an :class:`~repro.plans.expressions.EvaluationError` raised here,
  before any access is dispatched;
* a selection's conditions are split over a join's inputs
  (:func:`split_conditions`): one that reads a single input becomes a
  ``Select`` under that input, ``σ_c(L ⋈ R) = σ_c(L) ⋈ R`` when
  ``attrs(c) ⊆ attrs(L)``, so every intermediate is bounded by the
  *filtered* inputs;
* the residual conditions and a projection directly above a join fold
  into that :class:`~repro.plans.expressions.Join`, which evaluates
  ``π(σ(⋈))`` in one pass;
* an empty selection and an identity projection disappear.

Then, backward over the commands, each read intermediate keeps only its
*live* columns: a middleware target defined once, not the output and
read by a later command is projected onto the attributes its readers
take from it (:func:`_live_columns`; the projection folds into a top
join's ``project_to``).  A reader takes what it outputs plus what its
conditions read and, at a join, every shared attribute, so π passes
through σ, ⋈ and ρ without changing a row that survives; a union or
difference takes every column, since π does not distribute over −.
Access targets, the output and unread tables keep the attributes the
plan gave them.  A pruned table may have fewer rows (its projection
drops duplicates), so an access command reading it dispatches the same
set of keys, possibly in another order.

The form is memoised per plan object (:meth:`Plan.executable
<repro.plans.plan.Plan.executable>`) and never serialized: the IR
refuses a fused join, so plan IR, fingerprints and plan-cache keys still
describe the plan as built.  It carries what every run of it would
otherwise derive again: for each table its last reader, and from those
the command loop's free schedule (:func:`free_schedule`).  A bound
request runs the same form, the bindings read where a constant is
(:mod:`repro.plans.expressions`), so no request builds a form of its own.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

from repro.plans.commands import AccessCommand, Command, MiddlewareCommand
from repro.plans.expressions import (
    EvaluationError,
    Expression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    condition_reads,
)

Schema = Mapping[str, Tuple[str, ...]]


class Executable(NamedTuple):
    """A plan's executable form: what both engines run."""

    commands: Tuple[Command, ...]
    output_table: str
    #: For each table, the index of the last command reading it.
    last_read: Dict[str, int]
    #: The tables the command loop may drop after each command, by index.
    frees: Dict[int, List[str]]


def last_readers(commands: Sequence) -> Dict[str, int]:
    """For each table: the index of the last command reading it.

    Tables never read map to ``-1`` (free immediately after their
    defining command unless they are the output).
    """
    last: Dict[str, int] = {command.target: -1 for command in commands}
    for index, command in enumerate(commands):
        for table in command.tables_read():
            last[table] = index
    return last


def free_schedule(
    commands: Sequence, output_table: str, last_read: Dict[str, int]
) -> Dict[int, List[str]]:
    """The tables that may be dropped after each command, by index.

    A table (never the output) is dropped after the first command at
    or after its last reader that finds it in the environment, and
    again after any later command that writes it anew.  Commands only
    add their target, so those are the only indexes at which it can be
    present with its last reader done: :func:`repro.plans.plan.run_commands`
    checks these candidates, and only these, against the environment.
    """
    frees: Dict[int, List[str]] = {}
    for table, last in last_read.items():
        if table != output_table:
            frees.setdefault(max(last, 0), []).append(table)
    for index, command in enumerate(commands):
        table = command.target
        last = last_read.get(table)
        if last is not None and index > max(last, 0) and table != output_table:
            frees.setdefault(index, []).append(table)
    return frees


def split_conditions(
    conditions: Iterable[object],
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
) -> Tuple[Tuple[object, ...], Tuple[object, ...], Tuple[object, ...]]:
    """Partition a join's selection into (left-only, right-only, residual).

    A condition whose attributes all belong to one input can be applied
    to that input before the join.  One that reads only shared
    attributes goes left -- the natural join equates the shared columns,
    so either side would do.  Everything else (two-sided conditions,
    names in neither input) is residual and must see the joined row.
    """
    left_only, right_only, residual = [], [], []
    for cond in conditions:
        read = condition_reads(cond)
        if all(a in left_attrs for a in read):
            left_only.append(cond)
        elif all(a in right_attrs for a in read):
            right_only.append(cond)
        else:
            residual.append(cond)
    return tuple(left_only), tuple(right_only), tuple(residual)


def _select(expr: Expression, conditions, schema: Schema) -> Expression:
    """``σ[conditions](expr)`` with each condition as low as it goes."""
    if not conditions:
        return expr
    if isinstance(expr, Join):
        left, right, residual = split_conditions(
            conditions, expr.left.attributes(schema), expr.right.attributes(schema)
        )
        return Join(
            _select(expr.left, left, schema),
            _select(expr.right, right, schema),
            expr.conditions + residual,
            expr.project_to,
        )
    if isinstance(expr, Select):
        return Select(expr.child, expr.conditions + tuple(conditions))
    return Select(expr, tuple(conditions))


def _project(expr: Expression, attrs, schema: Schema) -> Expression:
    """``π[attrs](expr)``, folded into a join or a projection below."""
    attrs = tuple(attrs)
    if attrs == expr.attributes(schema):
        return expr
    if isinstance(expr, Join):
        return Join(expr.left, expr.right, expr.conditions, attrs)
    if isinstance(expr, Project):
        return Project(expr.child, attrs)
    return Project(expr, attrs)


def rewrite_expression(expr: Expression, schema: Schema) -> Expression:
    """``expr`` with selections pushed down and σ/π fused into joins.

    ``schema`` maps each temporary table to its attributes.  Raises
    :class:`EvaluationError` when an operator reads a name its input
    lacks.  Idempotent: a fused join is taken apart and re-placed.
    Every node the rewrite leaves as it was is shared, not copied.
    """
    expr.attributes(schema)  # every name checked once, before anything moves
    return _rewrite(expr, schema)


def _rewrite(expr: Expression, schema: Schema) -> Expression:
    node = expr.map_children(lambda child: _rewrite(child, schema))
    if isinstance(node, Select):
        rewritten = _select(node.child, node.conditions, schema)
    elif isinstance(node, Project):
        rewritten = _project(node.child, node.attrs, schema)
    elif isinstance(node, Join) and node.is_fused:
        rewritten = _select(Join(node.left, node.right), node.conditions, schema)
        if node.project_to is not None:
            rewritten = _project(rewritten, node.project_to, schema)
    else:
        return node
    return node if rewritten == node else rewritten


def _require(
    expr: Expression,
    needed: Set[str],
    schema: Schema,
    live: Dict[str, Set[str]],
) -> None:
    """Record in ``live`` what ``expr`` reads of each table to yield ``needed``.

    ``needed`` is a set of ``expr``'s output attributes; the walk
    takes it down to the scans, each adding what it receives to its
    table's entry.  π, σ, ⋈ and ρ let a narrower input through -- a
    join keeps its conditions' and all its shared attributes, so no
    pair changes -- and anything else (∪, −) reads every attribute of
    its inputs: π does not distribute over −, and a union's two sides
    must keep equal attribute sets.
    """
    if isinstance(expr, Scan):
        live.setdefault(expr.table, set()).update(needed)
    elif isinstance(expr, Project):
        _require(expr.child, set(expr.attrs), schema, live)
    elif isinstance(expr, Select):
        read = chain.from_iterable(map(condition_reads, expr.conditions))
        _require(expr.child, needed.union(read), schema, live)
    elif isinstance(expr, Join):
        left = expr.left.attributes(schema)
        right = expr.right.attributes(schema)
        wanted = set(needed if expr.project_to is None else expr.project_to)
        wanted.update(chain.from_iterable(map(condition_reads, expr.conditions)))
        wanted.update(a for a in right if a in left)
        _require(expr.left, wanted.intersection(left), schema, live)
        _require(expr.right, wanted.intersection(right), schema, live)
    elif isinstance(expr, Rename):
        renames = dict(expr.mapping)
        back = {renames.get(a, a): a for a in expr.child.attributes(schema)}
        _require(expr.child, {back[a] for a in needed}, schema, live)
    else:
        for child in expr.children():
            _require(child, set(child.attributes(schema)), schema, live)


def _live_columns(
    commands: Sequence[Command],
    schemas: Sequence[Schema],
    output_table: str,
) -> List[Command]:
    """``commands`` with each read intermediate cut to the columns read.

    Backward over the commands: a middleware target defined once, not
    the output and read by a later command is projected onto the
    attributes its readers take from it (the projection folds into a
    top join's ``project_to``), and then its expression says what it
    reads in turn.  ``schemas[i]`` holds the attributes, as built, of
    each table command ``i`` reads.  Access targets keep their
    attributes, and so do unread tables and the output.
    """
    definitions = Counter(command.target for command in commands)
    live: Dict[str, Set[str]] = {}
    pruned = list(commands)
    for index in reversed(range(len(commands))):
        command, schema = commands[index], schemas[index]
        if isinstance(command, AccessCommand):
            _require(
                command.input_expr, set(command.input_attrs), schema, live
            )
            continue
        target, expr = command.target, command.expr
        attrs = expr.attributes(schema)
        needed = live.get(target)
        if (
            needed is not None
            and definitions[target] == 1
            and target != output_table
        ):
            attrs = tuple(a for a in attrs if a in needed)
            expr = _project(expr, attrs, schema)
            if expr is not command.expr:
                pruned[index] = MiddlewareCommand(target, expr)
        _require(expr, set(attrs), schema, live)
    return pruned


def rewrite(plan) -> Executable:
    """The executable form of ``plan`` (see the module docstring)."""
    schema: Dict[str, Tuple[str, ...]] = {}
    schemas: List[Schema] = []
    commands: List[Command] = []
    for command in plan.commands:
        schemas.append({table: schema[table] for table in command.tables_read()})
        if isinstance(command, AccessCommand):
            expr = rewrite_expression(command.input_expr, schema)
            available = expr.attributes(schema)
            for attr in command.input_attrs:
                if attr not in available:
                    raise EvaluationError(
                        f"access {command.method}: input expression lacks "
                        f"attributes {command.input_attrs}: no attribute "
                        f"{attr!r} in {available}"
                    )
            if expr is not command.input_expr:
                command = AccessCommand(
                    command.target,
                    command.method,
                    expr,
                    command.input_binding,
                    command.output_map,
                )
            schema[command.target] = command.output_attrs
        else:
            expr = rewrite_expression(command.expr, schema)
            if expr is not command.expr:
                command = MiddlewareCommand(command.target, expr)
            schema[command.target] = expr.attributes(schema)
        commands.append(command)
    commands = _live_columns(commands, schemas, plan.output_table)
    last_read = last_readers(commands)
    return Executable(
        tuple(commands),
        plan.output_table,
        last_read,
        free_schedule(commands, plan.output_table, last_read),
    )
