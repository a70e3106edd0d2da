"""An explicit, JSON-serializable intermediate representation of plans.

``Plan`` objects are Python dataclass trees; that is fine inside one
process but useless the moment a plan must cross a boundary -- be
shipped to a worker process or handed to a non-interpreter backend.
This module makes the plan representation *explicit*:
:func:`plan_to_ir` lowers a plan to a plain JSON-able dict (lists,
strings, numbers only), :func:`ir_to_plan` reconstructs an **equal**
plan (dataclass equality, asserted by the round-trip tests), and
:class:`PlanIR` wraps the dict with the ``to_json`` / ``from_json`` /
``fingerprint`` conveniences the executor backends consume.

The encoding is canonical: literal-table rows are emitted in sorted
order and ``fingerprint`` hashes the key-sorted JSON, so the same plan
always serializes to the same bytes -- two processes can agree on "the
same plan" without exchanging pickles.

Consumers today: the worker tier (a plan crosses the process boundary
as IR) and the golden files under ``tests/plans/golden``, which pin
the format.  The IR describes a plan
as built; its executable form (:mod:`repro.plans.rewrite`, with fused
joins) is never lowered -- :func:`expr_to_ir` refuses a fused join.

The format is versioned (:data:`IR_VERSION`); loaders reject unknown
versions instead of guessing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.logic.terms import Constant, Null, Term
from repro.plans.commands import (
    AccessCommand,
    Command,
    MiddlewareCommand,
)
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    Expression,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union as UnionExpr,
)
from repro.plans.plan import Plan

#: Format marker + version stamped into every serialized plan.
IR_KIND = "repro.plan"
IR_VERSION = 1


class PlanIRError(ValueError):
    """Raised when a plan cannot be lowered to IR or an IR is malformed."""


# ------------------------------------------------------------------ terms
def term_to_ir(term: Term) -> Dict[str, Any]:
    """Encode a ground term (schema constant or labelled null)."""
    if isinstance(term, Constant):
        return {"k": "const", "v": term.value}
    if isinstance(term, Null):
        return {"k": "null", "v": term.name}
    raise PlanIRError(f"cannot serialize term {term!r} (variables never reach plans)")


def term_from_ir(obj: Mapping[str, Any]) -> Term:
    """Decode a term encoded by :func:`term_to_ir`."""
    kind = obj.get("k")
    if kind == "const":
        return Constant(obj["v"])
    if kind == "null":
        return Null(obj["v"])
    raise PlanIRError(f"unknown term kind {kind!r}")


# ------------------------------------------------------------- conditions
_COND_ENCODERS = {
    EqAttr: lambda c: {"cond": "eq_attr", "left": c.left, "right": c.right},
    NeqAttr: lambda c: {"cond": "neq_attr", "left": c.left, "right": c.right},
    EqConst: lambda c: {
        "cond": "eq_const", "attr": c.attribute, "value": term_to_ir(c.value)
    },
    NeqConst: lambda c: {
        "cond": "neq_const", "attr": c.attribute, "value": term_to_ir(c.value)
    },
}


def condition_to_ir(condition: object) -> Dict[str, Any]:
    """Encode one of the four built-in (in)equality conditions."""
    encoder = _COND_ENCODERS.get(type(condition))
    if encoder is None:
        raise PlanIRError(
            f"cannot serialize condition {condition!r} of type "
            f"{type(condition).__name__}: the plan IR covers the four "
            "built-in (in)equality conditions only"
        )
    return encoder(condition)


def condition_from_ir(obj: Mapping[str, Any]) -> object:
    """Decode a condition encoded by :func:`condition_to_ir`."""
    kind = obj.get("cond")
    if kind == "eq_attr":
        return EqAttr(obj["left"], obj["right"])
    if kind == "neq_attr":
        return NeqAttr(obj["left"], obj["right"])
    if kind == "eq_const":
        return EqConst(obj["attr"], term_from_ir(obj["value"]))
    if kind == "neq_const":
        return NeqConst(obj["attr"], term_from_ir(obj["value"]))
    raise PlanIRError(f"unknown condition kind {kind!r}")


# ------------------------------------------------------------ expressions
def expr_to_ir(expr: Expression) -> Dict[str, Any]:
    """Encode an RA expression tree as nested JSON-able dicts."""
    if isinstance(expr, Singleton):
        return {"op": "singleton"}
    if isinstance(expr, Scan):
        return {"op": "scan", "table": expr.table}
    if isinstance(expr, Literal):
        return {
            "op": "literal",
            "attrs": list(expr.table.attributes),
            # Sorted rows make the encoding canonical: frozenset
            # iteration order must never leak into serialized bytes.
            "rows": [
                [term_to_ir(cell) for cell in row]
                for row in sorted(expr.table.rows)
            ],
        }
    if isinstance(expr, Project):
        return {
            "op": "project",
            "child": expr_to_ir(expr.child),
            "attrs": list(expr.attrs),
        }
    if isinstance(expr, Select):
        return {
            "op": "select",
            "child": expr_to_ir(expr.child),
            "conditions": [condition_to_ir(c) for c in expr.conditions],
        }
    if isinstance(expr, Rename):
        return {
            "op": "rename",
            "child": expr_to_ir(expr.child),
            "mapping": [[old, new] for old, new in expr.mapping],
        }
    if isinstance(expr, Join):
        if expr.is_fused:
            raise PlanIRError(
                f"cannot serialize fused join {expr!r}: a plan's executable "
                "form is never lowered to IR"
            )
        return {
            "op": "join",
            "left": expr_to_ir(expr.left),
            "right": expr_to_ir(expr.right),
        }
    if isinstance(expr, UnionExpr):
        return {
            "op": "union",
            "left": expr_to_ir(expr.left),
            "right": expr_to_ir(expr.right),
        }
    if isinstance(expr, Difference):
        return {
            "op": "difference",
            "left": expr_to_ir(expr.left),
            "right": expr_to_ir(expr.right),
        }
    raise PlanIRError(
        f"cannot serialize expression {expr!r} of type {type(expr).__name__}"
    )


def expr_from_ir(obj: Mapping[str, Any]) -> Expression:
    """Decode an expression encoded by :func:`expr_to_ir`."""
    op = obj.get("op")
    if op == "singleton":
        return Singleton()
    if op == "scan":
        return Scan(obj["table"])
    if op == "literal":
        return Literal(
            NamedTable(
                tuple(obj["attrs"]),
                frozenset(
                    tuple(term_from_ir(cell) for cell in row)
                    for row in obj["rows"]
                ),
            )
        )
    if op == "project":
        return Project(expr_from_ir(obj["child"]), tuple(obj["attrs"]))
    if op == "select":
        return Select(
            expr_from_ir(obj["child"]),
            tuple(condition_from_ir(c) for c in obj["conditions"]),
        )
    if op == "rename":
        return Rename(
            expr_from_ir(obj["child"]),
            tuple((old, new) for old, new in obj["mapping"]),
        )
    if op == "join":
        return Join(expr_from_ir(obj["left"]), expr_from_ir(obj["right"]))
    if op == "union":
        return UnionExpr(expr_from_ir(obj["left"]), expr_from_ir(obj["right"]))
    if op == "difference":
        return Difference(
            expr_from_ir(obj["left"]), expr_from_ir(obj["right"])
        )
    raise PlanIRError(f"unknown expression op {op!r}")


# ------------------------------------------------------------------ tables
def table_to_ir(table: NamedTable) -> Dict[str, Any]:
    """Encode an answer table (attributes + sorted rows).

    This is how worker processes ship results back to the service: the
    rows are emitted in sorted order, so equal tables serialize to equal
    bytes and the parent's merge of several workers' answers is
    deterministic regardless of which worker finished first.
    """
    return {
        "attrs": list(table.attributes),
        "rows": [
            [term_to_ir(cell) for cell in row]
            for row in sorted(table.rows)
        ],
    }


def table_from_ir(obj: Mapping[str, Any]) -> NamedTable:
    """Decode a table encoded by :func:`table_to_ir`."""
    return NamedTable(
        tuple(obj["attrs"]),
        frozenset(
            tuple(term_from_ir(cell) for cell in row)
            for row in obj["rows"]
        ),
    )


# --------------------------------------------------------------- commands
def command_to_ir(command: Command) -> Dict[str, Any]:
    """Encode an access or middleware command."""
    if isinstance(command, AccessCommand):
        return {
            "cmd": "access",
            "target": command.target,
            "method": command.method,
            "input": expr_to_ir(command.input_expr),
            # Binding entries are either attribute names (plain strings)
            # or schema constants (term dicts) -- JSON keeps them apart.
            "binding": [
                term_to_ir(entry) if isinstance(entry, Constant) else entry
                for entry in command.input_binding
            ],
            "output": [
                [attr, list(positions)]
                for attr, positions in command.output_map
            ],
        }
    if isinstance(command, MiddlewareCommand):
        return {
            "cmd": "middleware",
            "target": command.target,
            "expr": expr_to_ir(command.expr),
        }
    raise PlanIRError(f"cannot serialize command {command!r}")


def command_from_ir(obj: Mapping[str, Any]) -> Command:
    """Decode a command encoded by :func:`command_to_ir`."""
    kind = obj.get("cmd")
    if kind == "access":
        return AccessCommand(
            target=obj["target"],
            method=obj["method"],
            input_expr=expr_from_ir(obj["input"]),
            input_binding=tuple(
                entry if isinstance(entry, str) else term_from_ir(entry)
                for entry in obj["binding"]
            ),
            output_map=tuple(
                (attr, tuple(positions)) for attr, positions in obj["output"]
            ),
        )
    if kind == "middleware":
        return MiddlewareCommand(obj["target"], expr_from_ir(obj["expr"]))
    raise PlanIRError(f"unknown command kind {kind!r}")


# ------------------------------------------------------------------ plans
def plan_to_ir(plan: Plan) -> Dict[str, Any]:
    """Lower a plan to its plain-dict IR (lists/strings/numbers only)."""
    return {
        "ir": IR_KIND,
        "version": IR_VERSION,
        "name": plan.name,
        "output": plan.output_table,
        "commands": [command_to_ir(c) for c in plan.commands],
    }


def ir_to_plan(ir: Mapping[str, Any]) -> Plan:
    """Reconstruct a plan from its IR; validates structure on the way.

    The resulting plan compares equal to the plan that produced the IR
    (``ir_to_plan(plan_to_ir(p)) == p``) and re-runs
    :meth:`Plan.validate <repro.plans.plan.Plan.validate>` through the
    ``Plan`` constructor, so a hand-edited IR with def-before-use
    violations is rejected here rather than at execution time.
    """
    if ir.get("ir") != IR_KIND:
        raise PlanIRError(
            f"not a plan IR document (ir={ir.get('ir')!r})"
        )
    version = ir.get("version")
    if version != IR_VERSION:
        raise PlanIRError(
            f"unsupported plan IR version {version!r} "
            f"(this build reads version {IR_VERSION})"
        )
    return Plan(
        commands=tuple(command_from_ir(c) for c in ir["commands"]),
        output_table=ir["output"],
        name=ir.get("name", "plan"),
    )


@dataclass(frozen=True)
class PlanIR:
    """A serialized plan: the dict IR plus JSON/fingerprint conveniences."""

    data: Dict[str, Any]

    @classmethod
    def from_plan(cls, plan: Plan) -> "PlanIR":
        """Lower a plan (see :func:`plan_to_ir`)."""
        return cls(plan_to_ir(plan))

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "PlanIR":
        """Parse serialized IR; validates the format marker and version."""
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("ir") != IR_KIND:
            raise PlanIRError("not a plan IR document")
        if data.get("version") != IR_VERSION:
            raise PlanIRError(
                f"unsupported plan IR version {data.get('version')!r}"
            )
        return cls(data)

    def to_plan(self) -> Plan:
        """Reconstruct the equal :class:`Plan` (see :func:`ir_to_plan`)."""
        return ir_to_plan(self.data)

    def to_json(self, indent: int = None) -> str:
        """Canonical JSON: key-sorted, so equal plans give equal bytes."""
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def fingerprint(self) -> str:
        """A stable content hash of the canonical JSON encoding.

        Suitable as a cross-process cache key: equal plans fingerprint
        identically regardless of set-iteration order or process.
        """
        return hashlib.blake2b(
            self.to_json().encode("utf-8"), digest_size=16
        ).hexdigest()

    @property
    def name(self) -> str:
        """The plan's name as recorded in the IR."""
        return self.data.get("name", "plan")

    @property
    def output_table(self) -> str:
        """The plan's output table as recorded in the IR."""
        return self.data["output"]

    def __repr__(self) -> str:
        return (
            f"PlanIR({self.name}: {len(self.data['commands'])} commands, "
            f"out={self.output_table}, fp={self.fingerprint()[:8]})"
        )
