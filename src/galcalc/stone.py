"""Finite Boolean algebras and the finite slice of Stone duality.

Spec takes a finite Boolean algebra to its set of atoms; algebra_of_set
is the power-set algebra.  At finite scale these are mutually inverse up
to bijection/isomorphism.  Idempotent decompositions enumerate the ways
of splitting the top element into disjoint nonzero pieces; their count
is the Bell number of the atom count.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from .errors import MalformedAlgebra, SizeError

MAX_SET_SIZE = 16
FULL_CHECK_PAIRS = 4096  # exhaustively check pairwise axioms up to this |B|^2
FULL_CHECK_TRIPLES = 64  # exhaustively check distributivity up to this |B|


class BooleanAlgebra:
    """A finite Boolean algebra with explicit elements and operations.

    Elements are hashable labels; meet/join/complement are functions on
    labels (tables are wrapped into functions by ``from_tables``).
    """

    def __init__(
        self,
        elements: Sequence[Hashable],
        meet: Callable[[Hashable, Hashable], Hashable],
        join: Callable[[Hashable, Hashable], Hashable],
        complement: Callable[[Hashable], Hashable],
        bottom: Hashable,
        top: Hashable,
    ):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise MalformedAlgebra("duplicate elements")
        self._meet = meet
        self._join = join
        self._complement = complement
        self.bottom = bottom
        self.top = top
        if bottom not in self.elements or top not in self.elements:
            raise MalformedAlgebra("bottom/top not among the elements")

    def __len__(self) -> int:
        return len(self.elements)

    def meet(self, x: Hashable, y: Hashable) -> Hashable:
        return self._meet(x, y)

    def join(self, x: Hashable, y: Hashable) -> Hashable:
        return self._join(x, y)

    def complement(self, x: Hashable) -> Hashable:
        return self._complement(x)

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return self.meet(x, y) == x

    @classmethod
    def powerset(cls, atom_labels: Sequence[Hashable]) -> "BooleanAlgebra":
        """The power-set algebra on the given atoms, as frozenset labels."""
        atoms = tuple(atom_labels)
        if len(set(atoms)) != len(atoms):
            raise MalformedAlgebra("duplicate atom labels")
        n = len(atoms)
        if n > MAX_SET_SIZE:
            raise SizeError(f"power-set algebra bound {MAX_SET_SIZE} exceeded")
        elements = []
        for mask in range(1 << n):
            elements.append(frozenset(atoms[i] for i in range(n) if mask >> i & 1))
        full = frozenset(atoms)
        return cls(
            elements,
            meet=lambda x, y: x & y,
            join=lambda x, y: x | y,
            complement=lambda x: full - x,
            bottom=frozenset(),
            top=full,
        )

    @classmethod
    def from_tables(
        cls,
        size: int,
        meet_table: Sequence[Sequence[int]],
        join_table: Sequence[Sequence[int]],
        complement_table: Sequence[int],
        bottom: int,
        top: int,
    ) -> "BooleanAlgebra":
        """An algebra on labels 0..size-1 given by index tables."""
        if len(meet_table) != size or len(join_table) != size:
            raise MalformedAlgebra("table size mismatch")
        if len(complement_table) != size:
            raise MalformedAlgebra("complement table size mismatch")
        meet = [tuple(r) for r in meet_table]
        join = [tuple(r) for r in join_table]
        comp = tuple(complement_table)
        for table in (*meet, *join):
            if len(table) != size or any(not (0 <= v < size) for v in table):
                raise MalformedAlgebra("table entry out of range")
        if any(not (0 <= v < size) for v in comp):
            raise MalformedAlgebra("complement entry out of range")
        return cls(
            range(size),
            meet=lambda x, y: meet[x][y],
            join=lambda x, y: join[x][y],
            complement=lambda x: comp[x],
            bottom=bottom,
            top=top,
        )

    def validate(self) -> None:
        """Check the Boolean-algebra axioms, exhaustively while small.

        Pairwise laws (commutativity, absorption, idempotence x*x = x,
        complementation, identities) are checked up to FULL_CHECK_PAIRS
        pairs; distributivity up to FULL_CHECK_TRIPLES elements.  Raises
        MalformedAlgebra on the first failure.
        """
        els = self.elements
        eset = set(els)
        for x in els:
            if self.meet(x, x) != x or self.join(x, x) != x:
                raise MalformedAlgebra("idempotence fails")
            if self.meet(x, self.top) != x or self.join(x, self.bottom) != x:
                raise MalformedAlgebra("identity laws fail")
            c = self.complement(x)
            if c not in eset:
                raise MalformedAlgebra("complement leaves the algebra")
            if self.meet(x, c) != self.bottom or self.join(x, c) != self.top:
                raise MalformedAlgebra("complementation fails")
        if len(els) ** 2 <= FULL_CHECK_PAIRS:
            for x in els:
                for y in els:
                    if self.meet(x, y) not in eset or self.join(x, y) not in eset:
                        raise MalformedAlgebra("operation leaves the algebra")
                    if self.meet(x, y) != self.meet(y, x):
                        raise MalformedAlgebra("meet not commutative")
                    if self.join(x, y) != self.join(y, x):
                        raise MalformedAlgebra("join not commutative")
                    if self.meet(x, self.join(x, y)) != x:
                        raise MalformedAlgebra("absorption fails")
                    if self.join(x, self.meet(x, y)) != x:
                        raise MalformedAlgebra("absorption fails")
        if len(els) <= FULL_CHECK_TRIPLES:
            for x in els:
                for y in els:
                    for z in els:
                        if self.meet(x, self.join(y, z)) != self.join(
                            self.meet(x, y), self.meet(x, z)
                        ):
                            raise MalformedAlgebra("distributivity fails")

    def atoms(self) -> list[Hashable]:
        """Minimal nonzero elements, in element-list order."""
        out = []
        for x in self.elements:
            if x == self.bottom:
                continue
            if all(
                self.meet(y, x) in (self.bottom, x) for y in self.elements
            ):
                out.append(x)
        return out

    def atom_decomposition(self, x: Hashable) -> frozenset:
        """The set of atoms below x (finite algebras are atomic)."""
        return frozenset(a for a in self.atoms() if self.leq(a, x))

    def to_json(self) -> dict:
        """Serialize via atom-set bitmasks, one mask per element: bit i is
        set when the i-th atom is below it.  The atoms are found once."""
        atoms = self.atoms()
        masks = [
            sum(1 << i for i, a in enumerate(atoms) if self.leq(a, x))
            for x in self.elements
        ]
        return {
            "schema": 1,
            "atom_count": len(atoms),
            "elements": masks,
        }


def spectrum(B: BooleanAlgebra) -> list[Hashable]:
    """Spec of a finite Boolean algebra: its atoms.

    In the finite case atoms biject with prime ideals and ultrafilters.
    Raises MalformedAlgebra if the axioms fail.
    """
    B.validate()
    return B.atoms()


def algebra_of_set(labels: Sequence[Hashable]) -> BooleanAlgebra:
    """The power-set algebra of a finite set (|S| <= 16)."""
    return BooleanAlgebra.powerset(labels)


def set_partitions(items: Sequence[Hashable]) -> list[list[list[Hashable]]]:
    """All partitions of a finite set, deterministically ordered."""
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1 :])
        out.append([[first]] + part)
    return out


def idempotent_decompositions(B: BooleanAlgebra) -> list[tuple[Hashable, ...]]:
    """All families of pairwise-disjoint nonzero elements joining to top.

    Each decomposition is returned as a tuple of elements (one per block
    of a partition of the atom set); the count is the Bell number of the
    atom count.
    """
    atoms = B.atoms()
    if not atoms:
        return []
    out = []
    for part in set_partitions(atoms):
        blocks = []
        for block in part:
            e = block[0]
            for a in block[1:]:
                e = B.join(e, a)
            blocks.append(e)
        out.append(tuple(blocks))
    return out
