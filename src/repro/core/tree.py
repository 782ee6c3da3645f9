"""The query tree of §3.1 and random drill-down signatures.

Level ``i`` of the tree corresponds to one attribute; a node at depth ``d``
is the conjunctive query fixing the first ``d`` attributes of the tree's
*free order*.  A drill-down's entire randomness is a **signature**: one
value index per free attribute (equivalently, a uniformly chosen leaf).

Selection-condition pushdown (§3.3): aggregates whose selection is a
conjunction of categorical equalities can supply *fixed predicates*; the
tree then ranges over the corresponding subtree — every issued query carries
the fixed predicates, and drill-down randomness covers only the remaining
attributes.

``selection_probability(d)`` is the paper's ``p(q)``: the fraction of leaves
whose root-to-leaf path passes through the depth-``d`` node, i.e.
``1 / prod(|U| of the first d free attributes)``.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from ..errors import QueryError
from ..hiddendb.interface import TopKInterface
from ..hiddendb.query import ConjunctiveQuery
from ..hiddendb.schema import Schema

#: A drill-down signature: one chosen value index per free attribute.
Signature = tuple[int, ...]


class QueryTree:
    """Drill-down query tree over a schema, with optional fixed predicates."""

    def __init__(
        self,
        schema: Schema,
        fixed: Mapping[int, int] | None = None,
        free_order: Sequence[int] | None = None,
    ):
        self.schema = schema
        self.fixed = dict(fixed) if fixed else {}
        for attr_index, value_index in self.fixed.items():
            if attr_index >= schema.num_attributes:
                raise QueryError(f"fixed attribute index {attr_index} out of range")
            if value_index >= schema.attributes[attr_index].size:
                raise QueryError(
                    f"fixed value index {value_index} out of range for "
                    f"attribute {schema.attributes[attr_index].name!r}"
                )
        if free_order is None:
            free_order = [
                i for i in range(schema.num_attributes) if i not in self.fixed
            ]
        else:
            free_order = list(free_order)
            if set(free_order) & set(self.fixed):
                raise QueryError("free_order overlaps fixed attributes")
            expected = set(range(schema.num_attributes)) - set(self.fixed)
            if set(free_order) != expected:
                raise QueryError(
                    "free_order must cover exactly the non-fixed attributes"
                )
        self.free_order = tuple(free_order)
        #: Domain size of each free attribute, in drill-down order.
        self.free_sizes = tuple(
            schema.attributes[a].size for a in self.free_order
        )
        # randrange(size) draws getrandbits(size.bit_length()) until the
        # draw is below size; random_signatures runs that loop inline.
        self._draw_plan = tuple(
            (size, size.bit_length()) for size in self.free_sizes
        )
        # Base predicates shared by every node of this (sub)tree.
        self._fixed_predicates = tuple(sorted(self.fixed.items()))
        # Cumulative leaf-fraction denominators: _denominators[d] = number of
        # level-d nodes under the subtree root = prod of first d free sizes.
        denominators = [1]
        for size in self.free_sizes:
            denominators.append(denominators[-1] * size)
        self._denominators = tuple(denominators)
        # Attribute order for the prefix index: fixed attributes first (they
        # are "above the root" of the subtree), then the free order.
        self.attr_order = tuple(sorted(self.fixed)) + self.free_order
        # Index-side coordinates of this tree's root: the fixed prefix's
        # depth and mixed-radix code in ``attr_order`` (a node at tree
        # depth d sits at index depth ``root_depth + d``).
        self.root_depth = len(self.fixed)
        root_code = 0
        for attr_index in sorted(self.fixed):
            root_code = (
                root_code * schema.attributes[attr_index].size
                + self.fixed[attr_index]
            )
        self.root_code = root_code

    @property
    def max_depth(self) -> int:
        """Depth of the leaves (number of free attributes)."""
        return len(self.free_order)

    def register(self, interface: TopKInterface) -> None:
        """Pre-register this tree's attribute order so queries use the index."""
        interface.register_attr_order(self.attr_order)

    # ------------------------------------------------------------------
    # Signatures and node queries
    # ------------------------------------------------------------------
    def random_signature(self, rng: random.Random) -> Signature:
        """Uniformly choose a leaf, i.e. one value per free attribute."""
        return self.random_signatures(rng, 1)[0]

    def random_signatures(
        self, rng: random.Random, count: int
    ) -> list[Signature]:
        """``count`` signatures in one call.

        The stream and the RNG's final state equal ``count`` calls of
        ``tuple(rng.randrange(size) for size in free_sizes)``: each digit
        runs ``randrange``'s own rejection loop over ``rng.getrandbits``,
        with the bit lengths precomputed.
        """
        getrandbits = rng.getrandbits
        plan = self._draw_plan
        signatures = []
        for _ in range(count):
            digits = []
            for size, bits in plan:
                value = getrandbits(bits)
                while value >= size:
                    value = getrandbits(bits)
                digits.append(value)
            signatures.append(tuple(digits))
        return signatures

    def num_leaves(self) -> int:
        """Number of leaves of this (sub)tree."""
        return self._denominators[-1]

    def query_at(self, signature: Signature, depth: int) -> ConjunctiveQuery:
        """The node at ``depth`` on the path defined by ``signature``."""
        if depth < 0 or depth > self.max_depth:
            raise QueryError(f"depth {depth} out of range [0, {self.max_depth}]")
        free_predicates = tuple(
            (self.free_order[i], signature[i]) for i in range(depth)
        )
        return ConjunctiveQuery(self._fixed_predicates + free_predicates)

    def selection_probability(self, depth: int) -> float:
        """p(q): probability a random drill-down passes the depth-d node."""
        return 1.0 / self._denominators[depth]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"QueryTree(free={len(self.free_order)} attrs, "
            f"fixed={self.fixed})"
        )
