"""Unit tests for random instance generation and constraint repair."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.data.generators import (
    InstanceGenerator,
    random_instance,
    repair_instance,
)
from repro.data.instance import Instance
from repro.logic.dependencies import parse_tgd
from repro.schema.core import SchemaBuilder


def schema_with_constraints():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .relation("S", 1)
        .free_access("R")
        .tgd("R(x, y) -> S(y)")
        .build()
    )


class TestRandomInstance:
    def test_sizes_respected_before_repair(self):
        schema = SchemaBuilder("s").relation("R", 2).build()
        instance = random_instance(schema, sizes={"R": 5}, seed=1)
        assert instance.size("R") <= 5  # dedup can shrink

    def test_repair_makes_constraints_hold(self):
        schema = schema_with_constraints()
        instance = random_instance(schema, seed=2)
        assert instance.satisfies_all(schema.constraints)

    def test_deterministic_per_seed(self):
        schema = schema_with_constraints()
        a = random_instance(schema, seed=7)
        b = random_instance(schema, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        schema = schema_with_constraints()
        a = random_instance(schema, seed=1, default_size=20)
        b = random_instance(schema, seed=2, default_size=20)
        assert a != b

    def test_schema_constants_in_pool(self):
        schema = (
            SchemaBuilder("s").relation("R", 1).constant("special").build()
        )
        # With a tiny pool the constant almost surely appears somewhere
        # across seeds; just check generation does not crash and the pool
        # is honoured.
        instance = random_instance(schema, pool_size=1, seed=0)
        assert instance.size("R") >= 1


class TestRepair:
    def test_full_tgd_repair(self):
        instance = Instance({"R": [("a", "b")]})
        assert repair_instance(instance, [parse_tgd("R(x, y) -> S(y)")])
        assert instance.satisfies(parse_tgd("R(x, y) -> S(y)"))

    def test_existential_repair_invents_fresh_values(self):
        instance = Instance({"P": [("a",)]})
        tgd = parse_tgd("P(x) -> Q(x, y)")
        assert repair_instance(instance, [tgd])
        assert instance.size("Q") == 1

    def test_diverging_repair_gives_up_gracefully(self):
        instance = Instance({"R": [("a", "b")]})
        tgd = parse_tgd("R(x, y) -> R(y, z)")
        # Non-terminating: must return False, not hang.
        assert repair_instance(instance, [tgd], max_rounds=5) is False

    def test_noop_when_already_satisfied(self):
        instance = Instance({"S": [("a",)]})
        before = instance.copy()
        assert repair_instance(instance, [parse_tgd("R(x, y) -> S(y)")])
        assert instance == before


class TestGeneratorSeries:
    def test_series_distinct_seeds(self):
        schema = schema_with_constraints()
        generator = InstanceGenerator(schema, default_size=6)
        instances = list(generator.series(3))
        assert len(instances) == 3
        for instance in instances:
            assert instance.satisfies_all(schema.constraints)


GOLDEN = Path(__file__).parent / "golden" / "random_instances.json"

#: Three repaired instances, two of them with fresh repair constants.
#: The repair names its fresh constants in the canonical order of the
#: violations, so the bytes are the same under every string-hash salt.
GOLDEN_SCRIPT = """
import json, sys
from repro.scenarios import example2, example5, referential_chain
from repro.data.generators import random_instance

CALLS = [
    ("example2", example2, 3),
    ("chain[4]", lambda: referential_chain(4), 5),
    ("example5[3]", lambda: example5(3), 11),
]
out = {}
for name, factory, seed in CALLS:
    inst = random_instance(
        factory().schema, default_size=8, pool_size=6, seed=seed, repair=True
    )
    out[f"{name}@{seed}"] = inst.to_dict()
sys.stdout.write(json.dumps(out, indent=1, sort_keys=True) + "\\n")
"""


def repaired_instances(hash_seed: str) -> bytes:
    """What :data:`GOLDEN_SCRIPT` prints under one string-hash seed."""
    src = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", GOLDEN_SCRIPT],
        env=env,
        capture_output=True,
        check=True,
    ).stdout


def test_repaired_instances_match_their_goldens_byte_for_byte():
    golden = GOLDEN.read_bytes()
    for hash_seed in ("0", "1"):
        made = repaired_instances(hash_seed)
        assert made == golden, f"PYTHONHASHSEED={hash_seed}"
    assert b"fresh_" in golden
