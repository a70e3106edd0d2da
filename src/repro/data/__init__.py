"""Runtime data substrate: instances, access-enforced sources, AccPart.

The paper assumes remote datasources (web forms, services, legacy DBs)
reachable only through access methods, each access carrying a cost.  This
package simulates that substrate: :class:`Instance` is plain relational
data; :class:`InMemorySource` exposes an instance *only* through the
schema's access methods, logging and charging every access -- exactly the
interface plans run against.  ``accessible_part`` implements the
``AccPart(I)`` fixpoint of Section 3, and ``generators`` builds random
constraint-satisfying instances for tests and benchmarks.
"""

from repro.data.instance import Instance, InstanceError
from repro.data.source import (
    AccessRecord,
    AccessViolation,
    InMemorySource,
)
from repro.data.accessible_part import AccessiblePart, accessible_part
from repro.data.generators import (
    InstanceGenerator,
    random_instance,
    repair_instance,
)

__all__ = [
    "AccessRecord",
    "AccessViolation",
    "AccessiblePart",
    "InMemorySource",
    "Instance",
    "InstanceError",
    "InstanceGenerator",
    "accessible_part",
    "random_instance",
    "repair_instance",
]
