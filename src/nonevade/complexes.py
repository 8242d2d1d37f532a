"""Order complexes and the complex-level operations the certifier relies on.

A complex lives on a vertex ground: a label tuple, its label -> position
dict and a rank per position that fixes the canonical vertex order.  Faces
are ``int`` masks over the positions, and ``vertices`` and ``facets`` are
label views made on each read.  ``order_complex`` takes the root
lattice's own positions, labels and ranks as the ground, so every complex
derived from one root (the certified complex of any sublattice view, and
every link and deletion of it) shares that ground.

Each kind of complex is stored once.  A facet-built complex is its facets:
the constructor, ``link`` and ``deletion`` each guarantee that every
vertex lies in a facet, so the facets fix the vertex mask too.  An order
complex is the poset view it was built from and a member mask m, and its
facets, the maximal chains, are listed on each read.  Its link and
deletion are again order complexes on the same view: deleting v from
Delta(Q) gives Delta(Q - v), and a chain through v is v plus a chain of
the members comparable to v, so a deletion is ``m & ~b`` and a link
``m & (up[v] | down[v]) & ~b``.  Equality, hashing and the brute memo
read facets, as masks on a shared ground and as label sets across grounds.

A facet-built complex needs no maximality pass either.  Distinct facets
f, g through v are incomparable, and so are f - v and g - v, since either
inclusion would lift back to f and g, so the link's facets are the facets
through v with v dropped.  In the deletion the facets avoiding v stay
facets and no shrunk facet f - v contains one of them (it would lie in
f); a shrunk facet is a facet unless it lies in a kept one.

The full face list is made on demand, a new set on each call, when Euler
characteristics, collapse replays or the collapse search need it.  The
empty face is implicit and never listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import (
    CapExceeded,
    EmptyInterior,
    EmptyLink,
    LastVertex,
    NotFreePair,
    ParseError,
    ReplayMismatch,
    UnknownVertex,
)
from .lattice import Poset, _bits, _strings


class Complex:
    """Abstract simplicial complex on labelled vertices.

    ``vertices`` is the canonical order; ``facets`` the maximal faces, as
    label sets.  Every vertex must lie in some facet (all singletons are
    faces), and no facet may contain another.
    """

    __slots__ = ("_label", "_pos", "_rank", "_vmask", "_facets", "_order")

    def __init__(self, vertices, faces):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a complex needs at least one vertex")
        pos = {v: p for p, v in enumerate(vertices)}
        if len(pos) != len(vertices):
            raise ValueError("duplicate vertex labels")
        vmask = (1 << len(vertices)) - 1
        self._init(vertices, pos, range(len(vertices)), vmask, None, None)
        masks = set()
        for f in map(frozenset, faces):
            mask = self._mask(f)
            if mask is None:
                bad = sorted(u for u in f if u not in pos)
                raise UnknownVertex(f"face uses unknown vertices {bad}")
            masks.add(mask)
        masks.discard(0)
        facets, covered = [], 0
        for f in sorted(masks, key=int.bit_count, reverse=True):
            if all(f & ~g for g in facets):
                facets.append(f)
                covered |= f
        if covered != vmask:
            missing = sorted(vertices[p] for p in _bits(vmask & ~covered))
            raise ValueError(f"vertices {missing} appear in no facet")
        self._facets = frozenset(facets)

    def _init(self, label, pos, rank, vmask, facets, order):
        # exactly one of facets (the facet masks) and order is set; order is
        # the poset view an order complex was built from, and the complex is
        # the subposet of its root on the members vmask
        self._label, self._pos, self._rank = label, pos, rank
        self._vmask, self._facets, self._order = vmask, facets, order

    def _derive(self, vmask, facets):
        """A complex on the same ground: built from ``facets``, or with
        facets None the order complex of the members ``vmask`` of this
        order complex's root."""
        c = Complex.__new__(Complex)
        c._init(self._label, self._pos, self._rank, vmask, facets,
                None if facets is not None else self._order)
        return c

    def _facet_masks(self):
        """The facets as masks: a facet-built complex's own, or the maximal
        chains of an order complex, listed on each read by walking cover
        steps from its minimal members on an explicit stack."""
        poset = self._order
        if poset is None:
            return self._facets
        vmask, down = self._vmask, poset._down
        covers = {p: poset._upper_covers(p, vmask) for p in _bits(vmask)}
        stack = [(p, 1 << p) for p in covers if down[p] & vmask == 1 << p]
        facets = []
        while stack:
            p, chain = stack.pop()
            if not covers[p]:
                facets.append(chain)
            stack += [(q, chain | 1 << q) for q in _bits(covers[p])]
        return frozenset(facets)

    # the labels in a mask, in canonical order: a ground reads like a poset's
    _labels = Poset._labels

    def _mask(self, labels):
        """The face mask of ``labels``, or None if one is not a vertex."""
        mask = 0
        for u in labels:
            p = self._pos.get(u)
            if p is None or not self._vmask >> p & 1:
                return None
            mask |= 1 << p
        return mask

    # -- structure ------------------------------------------------------------

    @property
    def vertices(self):
        return self._labels(self._vmask)

    @property
    def facets(self):
        label = self._label.__getitem__
        return frozenset(frozenset(map(label, _bits(f))) for f in self._facet_masks())

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return False
        if self._label is other._label:
            return self._facet_masks() == other._facet_masks()
        return self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return (
            f"Complex({self._vmask.bit_count()} vertices, "
            f"{len(self._facet_masks())} facets)"
        )

    def face_count(self):
        return len(_face_masks(self._facet_masks()))

    def reduced_euler(self):
        """Alternating face-count sum, shifted so a point scores 0."""
        faces = _face_masks(self._facet_masks())
        return sum(1 if s.bit_count() & 1 else -1 for s in faces) - 1

    # -- vertex operations ------------------------------------------------------

    def _bit(self, v):
        p = self._pos.get(v)
        if p is None or not self._vmask >> p & 1:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return 1 << p

    def link(self, v):
        """Faces whose union with v is a face, on the neighbours of v."""
        return self._link(self._bit(v))

    def deletion(self, v):
        """The complex minus every face containing v."""
        return self._deletion(self._bit(v))

    def _link(self, b):
        """The link of the vertex at bit ``b``."""
        p, order = b.bit_length() - 1, self._order
        if order is not None:
            # a chain through v is v plus a chain of members comparable to v
            vmask, facets = self._vmask & (order._up[p] | order._down[p]) & ~b, None
        else:
            # facets through v stay incomparable without v: no maximality pass
            facets = frozenset([f ^ b for f in self._facets if f & b])
            vmask = 0
            for f in facets:
                vmask |= f
        if not vmask:
            raise EmptyLink(f"vertex {self._label[p]!r} is isolated")
        return self._derive(vmask, facets)

    def _deletion(self, b):
        """The deletion of the vertex at bit ``b``."""
        if self._vmask == b:
            raise LastVertex("cannot delete the only vertex")
        if self._order is not None:
            return self._derive(self._vmask ^ b, None)
        kept, star = [], []
        for f in self._facets:
            (star if f & b else kept).append(f)
        facets = set(kept)
        for f in star:
            # f - v can only lie in a facet that avoids v
            g = f ^ b
            if g and all(g & ~k for k in kept):
                facets.add(g)
        return self._derive(self._vmask ^ b, frozenset(facets))

    # -- serialisation ------------------------------------------------------------

    def to_obj(self):
        rank = self._rank.__getitem__
        facets = sorted(
            [sorted(_bits(f), key=rank) for f in self._facet_masks()],
            key=lambda ps: list(map(rank, ps)),
        )
        label = self._label.__getitem__
        return {
            "vertices": list(self.vertices),
            "facets": [list(map(label, ps)) for ps in facets],
        }

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
            raise ParseError('complex document needs "vertices" and "facets"')
        vertices, facets = obj["vertices"], obj["facets"]
        if not _strings(vertices):
            raise ParseError('"vertices" must be an array of strings')
        if not (isinstance(facets, list) and all(map(_strings, facets))):
            raise ParseError('"facets" must be an array of arrays of strings')
        try:
            return cls(vertices, [frozenset(f) for f in facets])
        except ValueError as exc:
            raise ParseError(f"bad complex document: {exc}") from None


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
        pairs, final = obj["pairs"], obj["final"]
        if not (isinstance(final, str) and isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 and all(map(_strings, p))
                for p in pairs)):
            raise ParseError('collapse document needs "pairs" as [[free...], '
                             '[coface...]] string arrays and "final" as a string')
        try:
            pairs = tuple(CollapsePair(frozenset(a), frozenset(b)) for a, b in pairs)
        except ValueError as exc:
            raise ParseError(f"bad collapse pair: {exc}") from None
        return cls(pairs, final)


def order_complex(poset):
    """The complex whose faces are the chains of a poset view, a lattice
    included, on the ground of its root.

    The complex keeps the view and lists nothing: its facets, the maximal
    chains, are listed only when they are read.
    """
    if not isinstance(poset, Poset):
        raise TypeError("order_complex expects a Poset")
    if not poset._mask:
        raise EmptyInterior("the interior set is empty")
    c = Complex.__new__(Complex)
    c._init(poset._label, poset._pos, poset._rank, poset._mask, None, poset)
    return c


def _face_masks(facets, cap=inf):
    """Every nonempty face under the facet masks ``facets``, in a new set.
    Over ``cap`` faces raise CapExceeded, facet by facet and a facet too big
    alone before listing it, so at most 2·cap are listed."""
    faces = set()
    for f in facets:
        if (1 << f.bit_count()) - 1 > cap:
            break
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        if len(faces) > cap:
            break
    else:
        return faces
    raise CapExceeded(f"the complex has more than the cap of {cap} faces")


def replay_collapses(complex_, sequence):
    """Apply a collapse sequence pair by pair, checking freeness at each step.

    Raises NotFreePair at the first bad step and ReplayMismatch if the
    surviving complex is not exactly the stated final vertex; returns the
    final (single-point) complex otherwise.

    A coface of a face lies in a facet with every vertex of the face, so
    the cofaces are sought only among the vertices of ``star[q]``, the
    union of the facets through q, for every q in the face.
    """
    facets = complex_._facet_masks()  # listed once, for faces and stars
    faces = _face_masks(facets)
    mask, star = complex_._mask, [0] * len(complex_._label)
    for f in facets:
        for q in _bits(f):
            star[q] |= f
    for index, pair in enumerate(sequence.pairs):
        free = mask(pair.free_face)
        if free is None or free not in faces:
            raise NotFreePair(index, "not-a-face", f"{sorted(pair.free_face)}")
        near = -1
        for q in _bits(free):
            near &= star[q]
        cofaces = [
            free | 1 << p for p in _bits(near & ~free) if free | 1 << p in faces
        ]
        if len(cofaces) != 1:
            raise NotFreePair(
                index, "multiple-cofaces",
                f"{sorted(pair.free_face)} has {len(cofaces)} cofaces",
            )
        if cofaces[0] != mask(pair.coface):
            raise NotFreePair(
                index, "wrong-coface",
                f"expected {sorted(complex_._labels(cofaces[0]))}, "
                f"got {sorted(pair.coface)}",
            )
        faces.remove(free)
        faces.remove(cofaces[0])
    final = sequence.final_vertex
    if faces != {mask((final,))}:
        raise ReplayMismatch(
            f"{len(faces)} faces remain after replay, "
            f"expected the single vertex {final!r}"
        )
    return Complex([final], [frozenset({final})])
