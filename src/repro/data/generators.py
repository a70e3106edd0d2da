"""Random constraint-satisfying instance generation.

Benchmarks and soundness tests need many instances that satisfy a
schema's TGDs.  :func:`random_instance` draws tuples from a value pool;
:func:`repair_instance` then closes the data under the constraints by a
ground chase (existential positions are filled with fresh constants),
which terminates whenever the constraint set has a terminating chase and
is cut off by a budget otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.instance import Instance
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD
from repro.logic.homomorphisms import (
    FactIndex,
    find_homomorphism,
    find_homomorphisms,
)
from repro.logic.terms import Constant
from repro.schema.core import Schema


def random_instance(
    schema: Schema,
    sizes: Optional[Dict[str, int]] = None,
    default_size: int = 10,
    pool_size: int = 20,
    seed: int = 0,
    repair: bool = True,
    max_repair_rounds: int = 50,
) -> Instance:
    """A random instance for the schema, optionally constraint-repaired."""
    rng = random.Random(seed)
    pool = [Constant(f"v{i}") for i in range(pool_size)]
    # Schema constants should appear in the data too, so that selections
    # over them are non-trivially exercised.
    pool.extend(schema.constants)
    instance = Instance()
    for relation in schema.relations:
        count = (sizes or {}).get(relation.name, default_size)
        for _ in range(count):
            row = tuple(rng.choice(pool) for _ in range(relation.arity))
            instance.add(relation.name, row)
    if repair and schema.constraints:
        repair_instance(
            instance, schema.constraints, max_rounds=max_repair_rounds,
            seed=seed,
        )
    return instance


def repair_instance(
    instance: Instance,
    constraints: Sequence[TGD],
    max_rounds: int = 50,
    seed: int = 0,
) -> bool:
    """Chase the instance with ground facts until the constraints hold.

    Existential variables are witnessed by fresh constants.  Returns True
    when the instance satisfies all constraints on exit; False when the
    round budget ran out first (possible for non-terminating TGD sets).
    """
    counter = _FreshCounter(seed)
    for _ in range(max_rounds):
        fired = False
        for tgd in constraints:
            for violation in _violations(instance, tgd):
                binding = violation
                for variable in tgd.existential_order():
                    binding = binding.extended(variable, counter.fresh())
                for atom in tgd.head:
                    instance.add_fact(atom.apply(binding))
                fired = True
        if not fired:
            return True
    return instance.satisfies_all(constraints)


def _violations(instance: Instance, tgd: TGD) -> List[Substitution]:
    """Body matches with no head extension (a snapshot, for safe mutation).

    The matches come back in a canonical order -- by the printed form of
    their values at the body variables taken by name -- since that order
    names the repair's fresh constants: the homomorphism search's own
    order follows set iteration, which the per-process string-hash salt
    moves.  A constant's printed form tells ``1``, ``1.0``, ``True`` and
    ``'1'`` apart, where its equality does not.
    """
    index = FactIndex(instance.facts())
    variables = sorted(tgd.body_variables(), key=lambda v: v.name)
    out = []
    for hom in find_homomorphisms(list(tgd.body), index):
        binding = hom.restrict(tgd.frontier())
        if find_homomorphism(list(tgd.head), index, binding) is None:
            out.append(hom.restrict(variables))
    out.sort(key=lambda match: [repr(match[v]) for v in variables])
    return out


class _FreshCounter:
    """Mints fresh repair constants, deterministically per seed."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._count = 0

    def fresh(self) -> Constant:
        """A new constant never used before by this counter."""
        self._count += 1
        return Constant(f"fresh_{self._seed}_{self._count}")


@dataclass
class InstanceGenerator:
    """Reusable generator: one configuration, many seeded instances."""

    schema: Schema
    sizes: Optional[Dict[str, int]] = None
    default_size: int = 10
    pool_size: int = 20
    repair: bool = True

    def generate(self, seed: int) -> Instance:
        """One seeded instance from this generator's configuration."""
        return random_instance(
            self.schema,
            sizes=self.sizes,
            default_size=self.default_size,
            pool_size=self.pool_size,
            seed=seed,
            repair=self.repair,
        )

    def series(self, count: int, start_seed: int = 0) -> Iterable[Instance]:
        """A stream of instances over consecutive seeds."""
        for offset in range(count):
            yield self.generate(start_seed + offset)
