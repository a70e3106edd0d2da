"""Schema (de)serialization to plain JSON-able dictionaries.

The on-disk format mirrors the builder API::

    {
      "name": "university",
      "relations": [{"name": "Profinfo", "arity": 3,
                     "attributes": ["eid", "onum", "lname"]}],
      "methods": [{"name": "mt_prof", "relation": "Profinfo",
                   "inputs": [0], "cost": 2.0}],
      "constants": ["smith"],
      "constraints": ["Profinfo(eid, onum, lname) -> Udirect(eid, lname)"]
    }

Constraints serialize as the ``parse_tgd`` text syntax, which keeps the
files human-editable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD, parse_tgd
from repro.logic.terms import Constant, Variable
from repro.schema.core import AccessMethod, Relation, Schema


def schema_to_dict(schema: Schema) -> Dict:
    """A JSON-able representation of a schema."""
    return {
        "name": schema.name,
        "relations": [
            {
                "name": r.name,
                "arity": r.arity,
                "attributes": list(r.attributes),
            }
            for r in schema.relations
        ],
        "methods": [
            {
                "name": m.name,
                "relation": m.relation,
                "inputs": list(m.input_positions),
                "cost": m.cost,
            }
            for m in schema.methods
        ],
        "constants": [c.value for c in schema.constants],
        "constraints": [_tgd_to_text(tgd) for tgd in schema.constraints],
    }


def schema_from_dict(data: Dict) -> Schema:
    """Inverse of :func:`schema_to_dict`."""
    relations = [
        Relation(
            entry["name"],
            entry["arity"],
            tuple(entry.get("attributes", ())),
        )
        for entry in data.get("relations", ())
    ]
    methods = [
        AccessMethod(
            entry["name"],
            entry["relation"],
            tuple(entry.get("inputs", ())),
            entry.get("cost", 1.0),
        )
        for entry in data.get("methods", ())
    ]
    constants = [Constant(v) for v in data.get("constants", ())]
    constraints = [
        parse_tgd(text) for text in data.get("constraints", ())
    ]
    return Schema(
        relations,
        methods,
        constants,
        constraints,
        name=data.get("name", "S"),
    )


def schema_fingerprint(schema: Schema) -> str:
    """A stable content hash of a schema.

    BLAKE2b over the key-sorted, separator-canonical JSON encoding of
    :func:`schema_to_dict`.  Two schemas fingerprint equal iff they
    serialize equal, independent of construction order or process --
    which is what makes the fingerprint usable as a component of
    plan-cache keys.  The value is golden-pinned in the test suite:
    changing the serialization format (or this encoding) must be a
    deliberate, visible act.
    """
    payload = json.dumps(
        schema_to_dict(schema),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


def _tgd_to_text(tgd: TGD) -> str:
    return f"{_atoms_to_text(tgd.body)} -> {_atoms_to_text(tgd.head)}"


def _atoms_to_text(atoms) -> str:
    return " & ".join(_atom_to_text(a) for a in atoms)


def _atom_to_text(atom: Atom) -> str:
    rendered = []
    for term in atom.terms:
        if isinstance(term, Variable):
            rendered.append(term.name)
        elif isinstance(term, Constant):
            if isinstance(term.value, str):
                rendered.append(f"'{term.value}'")
            else:
                rendered.append(str(term.value))
        else:
            raise ValueError(
                f"cannot serialize constraint term {term!r}"
            )
    return f"{atom.relation}({', '.join(rendered)})"
