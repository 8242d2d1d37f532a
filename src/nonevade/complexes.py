"""Order complexes and the complex-level operations the certifier relies on.

A complex is stored by its maximal faces (facets); the full face list is
materialised lazily when Euler characteristics or collapse replays need
it.  The empty face is implicit and never listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EmptyInterior,
    EmptyLink,
    LastVertex,
    NotFreePair,
    ParseError,
    ReplayMismatch,
    UnknownVertex,
)
from .lattice import InteriorSet, _bits


def _maximalize(faces):
    out = []
    for f in sorted(set(faces), key=len, reverse=True):
        if not any(f <= g for g in out):
            out.append(f)
    return frozenset(out)


class Complex:
    """Abstract simplicial complex on labelled vertices.

    ``vertices`` is the canonical order; ``facets`` the maximal faces.
    Every vertex must lie in some facet (all singletons are faces), and
    no facet may contain another.
    """

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, vertices, faces):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a complex needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        vset = set(vertices)
        normalised = []
        for f in faces:
            fs = frozenset(f)
            if not fs:
                continue
            bad = fs - vset
            if bad:
                raise UnknownVertex(f"face uses unknown vertices {sorted(bad)}")
            normalised.append(fs)
        facets = _maximalize(normalised)
        covered = set().union(*facets) if facets else set()
        if covered != vset:
            missing = sorted(vset - covered)
            raise ValueError(f"vertices {missing} appear in no facet")
        self.vertices = vertices
        self.facets = facets
        self._faces = None

    # -- structure ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and set(self.vertices) == set(other.vertices)
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((frozenset(self.vertices), self.facets))

    def __repr__(self):
        return f"Complex({len(self.vertices)} vertices, {len(self.facets)} facets)"

    def all_faces(self):
        """Every nonempty face, as a frozenset of frozensets (cached)."""
        if self._faces is None:
            faces = set()
            for facet in self.facets:
                items = tuple(facet)
                for k in range(1, len(items) + 1):
                    faces.update(map(frozenset, combinations(items, k)))
            self._faces = frozenset(faces)
        return self._faces

    def face_count(self):
        return len(self.all_faces())

    def reduced_euler(self):
        """Alternating face-count sum, shifted so a point scores 0."""
        return sum(-1 if len(f) % 2 == 0 else 1 for f in self.all_faces()) - 1

    # -- vertex operations ------------------------------------------------------

    def _check_vertex(self, v):
        if v not in set(self.vertices):
            raise UnknownVertex(f"unknown vertex {v!r}")

    def link(self, v):
        """Faces whose union with v is a face, on the neighbours of v."""
        self._check_vertex(v)
        shrunk = [f - {v} for f in self.facets if v in f]
        shrunk = [f for f in shrunk if f]
        if not shrunk:
            raise EmptyLink(f"vertex {v!r} is isolated")
        keep = set().union(*shrunk)
        return Complex([u for u in self.vertices if u in keep], shrunk)

    def deletion(self, v):
        """The complex minus every face containing v."""
        self._check_vertex(v)
        if len(self.vertices) < 2:
            raise LastVertex("cannot delete the only vertex")
        faces = [f - {v} if v in f else f for f in self.facets]
        faces = [f for f in faces if f]
        return Complex([u for u in self.vertices if u != v], faces)

    # -- serialisation ------------------------------------------------------------

    def to_obj(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        facets = sorted(
            (sorted(f, key=order.get) for f in self.facets),
            key=lambda f: [order[v] for v in f],
        )
        return {"vertices": list(self.vertices), "facets": [list(f) for f in facets]}

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
            raise ParseError('complex document needs "vertices" and "facets"')
        return cls(obj["vertices"], [frozenset(f) for f in obj["facets"]])


@dataclass(frozen=True)
class CollapsePair:
    """A free face together with its unique proper coface."""

    free_face: frozenset
    coface: frozenset

    def __post_init__(self):
        object.__setattr__(self, "free_face", frozenset(self.free_face))
        object.__setattr__(self, "coface", frozenset(self.coface))
        if not (
            self.free_face < self.coface
            and len(self.coface) == len(self.free_face) + 1
        ):
            raise ValueError(
                "coface must extend the free face by exactly one vertex"
            )


@dataclass(frozen=True)
class CollapseSequence:
    """Ordered free-pair removals reducing a complex to ``final_vertex``."""

    pairs: tuple
    final_vertex: str

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self):
        return len(self.pairs)

    def to_obj(self):
        return {
            "pairs": [
                [sorted(p.free_face), sorted(p.coface)] for p in self.pairs
            ],
            "final": self.final_vertex,
        }

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "pairs" not in obj or "final" not in obj:
            raise ParseError('collapse document needs "pairs" and "final"')
        try:
            pairs = tuple(
                CollapsePair(frozenset(a), frozenset(b)) for a, b in obj["pairs"]
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad collapse pair: {exc}") from None
        return cls(pairs, obj["final"])


def order_complex(interior):
    """The complex whose faces are the chains of an interior poset.

    Facets are the maximal chains; they are enumerated by walking cover
    steps of the induced order from its minimal members.
    """
    if not isinstance(interior, InteriorSet):
        raise TypeError("order_complex expects an InteriorSet")
    members = interior.members
    if not members:
        raise EmptyInterior("the interior set is empty")
    poset = interior.lattice.poset
    k = len(members)
    idx = {m: i for i, m in enumerate(members)}
    above = [0] * k
    for i, u in enumerate(members):
        for v in poset.above(u):
            if v in idx:
                above[i] |= 1 << idx[v]
    covers = [0] * k
    for i in range(k):
        shadow = 0
        for j in _bits(above[i]):
            shadow |= above[j]
        covers[i] = above[i] & ~shadow
    is_minimal = [True] * k
    for i in range(k):
        for j in _bits(above[i]):
            is_minimal[j] = False
    facets = []

    def extend(i, chain):
        if not covers[i]:
            facets.append(frozenset(chain))
            return
        for j in _bits(covers[i]):
            chain.append(members[j])
            extend(j, chain)
            chain.pop()

    for i in range(k):
        if is_minimal[i]:
            extend(i, [members[i]])
    return Complex(members, facets)


def replay_collapses(complex_, sequence):
    """Apply a collapse sequence pair by pair, checking freeness at each step.

    Raises NotFreePair at the first bad step and ReplayMismatch if the
    surviving complex is not exactly the stated final vertex; returns the
    final (single-point) complex otherwise.
    """
    faces = set(complex_.all_faces())
    vertices = complex_.vertices
    for index, pair in enumerate(sequence.pairs):
        free, coface = pair.free_face, pair.coface
        if free not in faces:
            raise NotFreePair(index, "not-a-face", f"{sorted(free)}")
        cofaces = [
            free | {u} for u in vertices if u not in free and free | {u} in faces
        ]
        if len(cofaces) != 1:
            raise NotFreePair(
                index, "multiple-cofaces",
                f"{sorted(free)} has {len(cofaces)} cofaces",
            )
        if cofaces[0] != coface:
            raise NotFreePair(
                index, "wrong-coface",
                f"expected {sorted(cofaces[0])}, got {sorted(coface)}",
            )
        faces.remove(free)
        faces.remove(coface)
    expected = {frozenset({sequence.final_vertex})}
    if faces != expected:
        raise ReplayMismatch(
            f"{len(faces)} faces remain after replay, "
            f"expected the single vertex {sequence.final_vertex!r}"
        )
    return Complex([sequence.final_vertex], [frozenset({sequence.final_vertex})])
