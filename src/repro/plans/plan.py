"""Plans: command sequences with a distinguished output table.

A plan's *language class* (Section 2) is determined by the operators its
expressions use:

* ``SPJ``      -- select / project / join only,
* ``USPJ``     -- plus union,
* ``USPJ_NEG`` -- plus difference (the paper's USPJ with atomic negation;
  this classifier does not police that differences are against accessed
  relations -- the generators guarantee it),
* ``RA``       -- anything else (full relational algebra).

``E``-variants (with inequalities) are reported through
:attr:`Plan.uses_inequality`.

A plan runs as its executable form (:meth:`Plan.executable`, derived
once per plan object), through :func:`run_commands`, the command loop
both engines share.  The loop takes a request's bindings and hands them
to every command, so a bound request runs the cached plan's form as it
stands (:func:`repro.exec.batch.run_request`); nothing of the plan is
rebuilt, revalidated or rescheduled per request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.context import ExecutionContext
from repro.plans.commands import AccessCommand, Command, MiddlewareCommand
from repro.plans.expressions import NO_BINDINGS, Bindings, Expression, NamedTable
from repro.plans.rewrite import Executable, rewrite


class PlanValidationError(ValueError):
    """Raised when a plan is structurally ill-formed."""


class PlanKind(enum.Enum):
    """Plan language class, by the operators the plan's expressions use."""

    SPJ = "SPJ"
    USPJ = "USPJ"
    USPJ_NEG = "USPJ¬"
    RA = "RA"


@dataclass(frozen=True)
class Plan:
    """An immutable access plan."""

    commands: Tuple[Command, ...]
    output_table: str
    name: str = "plan"

    def __post_init__(self) -> None:
        if not isinstance(self.commands, tuple):
            object.__setattr__(self, "commands", tuple(self.commands))
        self.validate()

    # ------------------------------------------------------- validation
    def validate(self) -> None:
        """Check def-before-use of temporary tables and output presence."""
        defined: Set[str] = set()
        for command in self.commands:
            for table in command.tables_read():
                if table not in defined:
                    raise PlanValidationError(
                        f"{command!r} reads undefined table {table!r}"
                    )
            defined.add(command.target)
        if self.output_table not in defined:
            raise PlanValidationError(
                f"output table {self.output_table!r} never assigned"
            )

    # -------------------------------------------------------- execution
    def executable(self) -> Executable:
        """The plan's executable form, computed once per plan object.

        :func:`repro.plans.rewrite.rewrite`: attributes resolved
        statically (an unknown name raises here, before any access),
        selections pushed below joins, σ/π over a join fused into it,
        each read intermediate cut to the columns later commands read.
        Every way to run the plan runs this form.
        """
        try:
            return self._executable  # type: ignore[attr-defined]
        except AttributeError:
            form = rewrite(self)
            object.__setattr__(self, "_executable", form)
            return form

    def run(self, source) -> NamedTable:
        """Execute every command in sequence; returns the output table.

        This is the plain reference loop: no cache, no temp-table
        freeing, no instrumentation.  :meth:`execute` is the tuned
        runtime entry point; the two are proven equivalent in
        ``tests/exec/test_exec_soundness.py``.
        """
        return self.run_with_env(source)[0]

    def execute(
        self,
        source,
        context: Optional[ExecutionContext] = None,
        *,
        executor: str = "interpreter",
    ) -> NamedTable:
        """Run the plan's executable form through the execution runtime.

        ``context``
            the run's :class:`~repro.exec.context.ExecutionContext`
            (``None``: a bare one).  Its ``cache`` memoizes
            ``(method, inputs)`` results across commands, plans and
            requests; its ``stats`` collect per-command wall time, row
            flow and the dispatch breakdown; its ``resilience``
            dispatcher puts every access under retry/backoff, a
            per-method circuit breaker and the run's deadline; its
            ``budget`` caps result rows (truncated to a deterministic
            prefix, or an error, per its overflow policy), and the
            rows dropped are written to the context's
            ``truncated_rows``.
            :func:`run_commands` checks the deadline before every
            command, whichever engine runs it.
        ``executor``
            which backend runs the plan.  ``"interpreter"`` (the
            default) evaluates the commands of :meth:`executable` as
            they stand; ``"columnar"`` compiles that same form into
            operators over numpy column arrays
            (:mod:`repro.exec.columnar`; same answers, same stats and
            budget accounting, faster where every joined pair must be
            checked); ``"differential"`` runs both and raises unless
            their sorted answers are byte-identical -- the interpreter
            stays the oracle.  The compiled form is cached on the plan,
            so repeated ``executor="columnar"`` runs pay compilation
            once.

        Each temporary table is dropped right after its last reader ran
        (the output table is always kept), so peak intermediate state is
        bounded by what is still needed; :meth:`run` keeps everything.
        """
        if context is None:
            context = ExecutionContext()
        if executor != "interpreter":
            # Imported lazily: repro.exec.columnar imports this module
            # (and numpy, which the interpreter path never needs).
            from repro.exec import columnar as _columnar

            if executor == "columnar":
                return _columnar.compile_columnar(self).execute(
                    source, context
                )
            if executor == "differential":
                return _columnar.execute_differential(self, source, context)
            raise ValueError(
                f"unknown executor {executor!r} "
                "(expected 'interpreter', 'columnar' or 'differential')"
            )
        form = self.executable()
        return run_commands(
            form.commands,
            form.output_table,
            form.frees,
            {},
            source,
            context,
            len,
        )

    def run_with_env(self, source) -> Tuple[NamedTable, Dict[str, NamedTable]]:
        """Execute and also return the full temporary-table environment.

        The tables are the executable form's: the output, every access
        table and every table no command reads hold the plan's declared
        attributes; a read intermediate holds its projection onto the
        attributes later commands read (:mod:`repro.plans.rewrite`).
        """
        env: Dict[str, NamedTable] = {}
        for command in self.executable().commands:
            command.execute(env, source)
        return env[self.output_table], env

    # ----------------------------------------------------- inspection
    @property
    def access_commands(self) -> Tuple[AccessCommand, ...]:
        """The plan's access commands, in order."""
        return tuple(
            c for c in self.commands if isinstance(c, AccessCommand)
        )

    @property
    def middleware_commands(self) -> Tuple[MiddlewareCommand, ...]:
        """The plan's middleware commands, in order."""
        return tuple(
            c for c in self.commands if isinstance(c, MiddlewareCommand)
        )

    def methods_used(self) -> Tuple[str, ...]:
        """Methods of the access commands, in command order (with repeats)."""
        return tuple(c.method for c in self.access_commands)

    def _expressions(self) -> List[Expression]:
        return [
            c.input_expr if isinstance(c, AccessCommand) else c.expr
            for c in self.commands
        ]

    @property
    def kind(self) -> PlanKind:
        """Language class by the operators the plan's expressions use."""
        uses_union = any(e.uses_union for e in self._expressions())
        uses_difference = any(e.uses_difference for e in self._expressions())
        if uses_difference:
            return PlanKind.USPJ_NEG
        if uses_union:
            return PlanKind.USPJ
        return PlanKind.SPJ

    @property
    def uses_inequality(self) -> bool:
        """True when some expression uses an inequality condition (E-fragment)."""
        return any(e.uses_inequality for e in self._expressions())

    def describe(self) -> str:
        """A readable listing of the plan."""
        lines = [f"plan {self.name} ({self.kind.value}):"]
        for i, command in enumerate(self.commands):
            lines.append(f"  {i:2d}. {command!r}")
        lines.append(f"  output: {self.output_table}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Plan({self.name}: {len(self.commands)} commands, "
            f"{len(self.access_commands)} accesses, out={self.output_table})"
        )


def run_commands(
    commands: Sequence,
    output_table: str,
    frees: Dict[int, List[str]],
    env: Dict,
    source,
    context: ExecutionContext,
    row_count: Callable[[object], int],
    decode: Optional[Callable[[object], NamedTable]] = None,
    bindings: Bindings = NO_BINDINGS,
) -> NamedTable:
    """The command loop: the paper's plan semantics plus the runtime's books.

    Both engines run it.  An engine supplies its compiled ``commands``
    (each with ``target``, ``kind``, ``execute(env, source, context,
    bindings)``), their free schedule (:attr:`Executable.frees
    <repro.plans.rewrite.Executable.frees>`), the ``env`` they fill,
    how to count one of its tables' rows and, if they are not
    :class:`NamedTable`, how to ``decode`` the output; ``bindings``
    reach every command as they are.  Before each command the context's
    stop check runs; after it the resident rows are noted and every
    table the schedule names for it is dropped if present.  A command's
    record is added to the run's totals when the command ends, whether
    it returned or raised.  The output passes the context's budget, and
    the rows it dropped are the context's ``truncated_rows``.
    """
    stats = context.stats
    record = None
    started = perf_counter()
    for index, command in enumerate(commands):
        context.check_stop(index)
        if stats is not None:
            record = context.command_stats = stats.command(
                index,
                command.target,
                command.kind,
                method=getattr(command, "method", None),
            )
        command_started = perf_counter()
        try:
            command.execute(env, source, context, bindings)
            if record is not None:
                record.rows_out = row_count(env[command.target])
        finally:
            if record is not None:
                record.wall_time = perf_counter() - command_started
                stats.count(record)
        if stats is not None:
            stats.note_resident(sum(map(row_count, env.values())))
        freed = 0
        for table in frees.get(index, ()):
            if table in env:
                del env[table]
                freed += 1
        if record is not None:
            record.freed_tables = freed
    output = env[output_table]
    if decode is not None:
        output = decode(output)
    if context.budget is not None:
        output, context.truncated_rows = context.budget.admit_result(output)
    if stats is not None:
        stats.wall_time += perf_counter() - started
        stats.runs += 1
    return output
