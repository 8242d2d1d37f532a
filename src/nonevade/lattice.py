"""Finite bounded lattices over labelled elements.

A root stores one up- and one down-bitmask per element, bits numbered
along a linear extension (bit q of ``up[p]`` means p <= q).  Every poset
is a view: its root's ground and masks plus a member mask.  A lattice is a
poset view that also keeps its bounds and its atom and coatom masks, so a
sublattice or dual is one new view of the root.  ``join(u, v)`` is the
lowest bit of up(u) & up(v) & members (the highest on a dual), and
``meet`` is the join of the dual.  The element order given at
construction is canonical: every scan, tie-break and serialisation
follows it; label tuples are rendered on each read.  All values are
immutable once built, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import re
import string
from heapq import heappop, heappush
from random import Random

from .errors import (
    CycleDetected,
    NoUniqueBottom,
    NoUniqueTop,
    NotALattice,
    NotAnAtom,
    NotComparable,
    ParamOutOfRange,
    ParseError,
    UnknownElement,
    UnknownFamily,
)

#: Hard cap on the number of elements of a root lattice or poset.
MAX_ELEMENTS = 1 << 16

#: Largest n whose divisor lattice ``generate`` builds.  The worst case
#: below it, 735,134,400 with 1,344 divisors, builds in about 0.025 s
#: (CPython 3.11, one core of a shared 2-core machine).
MAX_DIVISOR_N = 10 ** 9

_BAD_LABEL = re.compile(r"[\s,#]")


def check_label(label):
    """Reject labels that would break the text/JSON file formats."""
    if not isinstance(label, str) or not label:
        raise ParseError(f"bad element label {label!r}: must be a nonempty string")
    if _BAD_LABEL.search(label):
        raise ParseError(
            f"bad element label {label!r}: whitespace, commas and '#' are not allowed"
        )
    return label


def _strings(obj):
    """Whether a JSON value is an array of strings."""
    return isinstance(obj, list) and all(isinstance(x, str) for x in obj)


def _decode_json(text, context):
    """The JSON value in ``text``.  Malformed text, nesting too deep to
    decode and an integer too long to convert are each a ParseError whose
    message starts with ``context``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{context}: {exc}") from None


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index_labels(elements):
    index = {}
    for i, e in enumerate(elements):
        check_label(e)
        if e in index:
            raise ParseError(f"duplicate element label {e!r}")
        index[e] = i
    return index


class Poset:
    """A finite partial order on labelled elements.

    Build roots with :meth:`from_covers` (transitive closure is computed,
    cycles rejected); :meth:`dual` and :meth:`restrict` return views
    sharing the root.  ``elements`` is the canonical order.
    """

    __slots__ = ("_label", "_rank", "_pos", "_up", "_down", "_mask", "_rev")

    @classmethod
    def from_covers(cls, elements, covers):
        """Build a poset from cover pairs (u, v) meaning u is covered by v.

        The bits follow the least linear extension of the canonical order:
        Kahn's algorithm always takes the canonically first free element, so
        a canonical order that is a linear extension is kept as it is.
        Down-sets close over predecessors as elements are taken, and up-sets
        over successors from the top down.  More than ``MAX_ELEMENTS``
        labels are refused first, as the masks take space quadratic in them.
        """
        elements = tuple(elements)
        n = len(elements)
        if n > MAX_ELEMENTS:
            raise ParamOutOfRange(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
        index = _index_labels(elements)
        succ = [set() for _ in range(n)]
        for u, v in covers:
            if u not in index:
                raise ParseError(f"cover references unknown element {u!r}")
            if v not in index:
                raise ParseError(f"cover references unknown element {v!r}")
            if u == v:
                raise CycleDetected(f"self-cover on {u!r}")
            succ[index[u]].add(index[v])
        indeg = [0] * n
        for i in range(n):
            for j in succ[i]:
                indeg[j] += 1
        heap = [i for i in range(n) if indeg[i] == 0]
        rank, down = [], [0] * n
        while heap:
            i = heappop(heap)
            down[i] |= 1 << len(rank)
            rank.append(i)
            for j in succ[i]:
                down[j] |= down[i]
                indeg[j] -= 1
                if indeg[j] == 0:
                    heappush(heap, j)
        if len(rank) < n:
            stuck = [elements[i] for i in range(n) if indeg[i] > 0]
            raise CycleDetected(f"cover relation has a cycle through {sorted(stuck)}")
        up = [0] * n
        for p in reversed(range(n)):
            i = rank[p]
            mask = 1 << p
            for j in succ[i]:
                mask |= up[j]
            up[i] = mask
        rank = range(n) if rank == [*range(n)] else tuple(rank)
        return cls._root(elements, rank, map(up.__getitem__, rank),
                         map(down.__getitem__, rank))

    @classmethod
    def _root(cls, elements, rank, up, down):
        """The root whose bit p is ``elements[rank[p]]``, with one up- and one
        down-mask per bit; ``rank`` must list a linear extension.  On
        ``Lattice`` it is checked and returned as a lattice."""
        root = Poset.__new__(Poset)
        root._label = tuple(map(elements.__getitem__, rank))
        root._pos = {label: p for p, label in enumerate(root._label)}
        root._up, root._down, root._rank = tuple(up), tuple(down), rank
        root._mask, root._rev = (1 << len(elements)) - 1, False
        return root if cls is Poset else cls(root)

    def _view(self, mask):
        """The induced subposet on ``mask``, as a plain ``Poset``."""
        return Poset.__new__(Poset)._adopt(self, mask)

    def _adopt(self, poset, mask):
        """Become the view of ``poset``'s root and orientation on ``mask``."""
        self._label, self._rank, self._pos = poset._label, poset._rank, poset._pos
        self._up, self._down, self._rev = poset._up, poset._down, poset._rev
        self._mask = mask
        return self

    def _at(self, label):
        """Bit position of a member."""
        p = self._pos.get(label)
        if p is None or not self._mask >> p & 1:
            raise UnknownElement(f"unknown element {label!r}")
        return p

    def _sorted(self, mask):
        """The positions in ``mask``, in canonical order."""
        return sorted(_bits(mask), key=self._rank.__getitem__)

    def _labels(self, mask):
        """The labels in ``mask``, in canonical order."""
        return tuple(map(self._label.__getitem__,
                         sorted(_bits(mask), key=self._rank.__getitem__)))

    def _first(self, mask):
        """The canonically first position in a nonzero ``mask``: its lowest
        bit when the bits follow the canonical order (``_rank`` is then a
        range), else the least rank in one pass."""
        if type(self._rank) is range:
            return (mask & -mask).bit_length() - 1
        return min(_bits(mask), key=self._rank.__getitem__)

    def _upper_covers(self, p, mask):
        """The members of ``mask`` that cover position p.  Bits follow a
        linear extension (reversed on a dual), so the first bit of what is
        left of p's strict up-set is a cover, and dropping its up-set leaves
        only the members above no cover found so far."""
        up, rev = self._up, self._rev
        rest, covers = up[p] & mask & ~(1 << p), 0
        while rest:
            q = rest.bit_length() - 1 if rev else (rest & -rest).bit_length() - 1
            covers |= 1 << q
            rest &= ~up[q]
        return covers

    def _relation(self):
        """Up-masks over indices into ``elements``: the order as a plain value."""
        order = self._sorted(self._mask)
        bit = {p: 1 << i for i, p in enumerate(order)}
        return tuple(sum(bit[q] for q in _bits(self._up[p] & self._mask)) for p in order)

    # -- queries --------------------------------------------------------------

    @property
    def elements(self):
        return self._labels(self._mask)

    def __len__(self):
        return self._mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._relation() == other._relation()
        )

    def __hash__(self):
        return hash((self.elements, self._relation()))

    def __repr__(self):
        return f"Poset({len(self)} elements)"

    def leq(self, u, v):
        pos, mask = self._pos, self._mask
        p, q = pos.get(u), pos.get(v)
        if p is None or q is None or not mask >> p & mask >> q & 1:
            self._at(u), self._at(v)  # raises for the first non-member
        return bool(self._up[p] >> q & 1)

    def below(self, v, strict=True):
        """Elements <= v (or < v) in canonical order."""
        return self.dual().above(v, strict)

    def above(self, v, strict=True):
        """Elements >= v (or > v) in canonical order."""
        p = self._at(v)
        mask = self._up[p] & self._mask
        return self._labels(mask & ~(1 << p) if strict else mask)

    def linear_extension(self):
        """All elements, smallest first: the canonical order stably sorted
        by down-set size, which strictly increases along the order."""
        mask, down = self._mask, self._down
        order = sorted(self._sorted(mask), key=lambda p: (down[p] & mask).bit_count())
        return tuple(self._label[p] for p in order)

    def covers(self):
        """Cover pairs (u, v) with u covered by v, in canonical pair order."""
        mask, rank = self._mask, self._rank
        out = [(p, q) for p in _bits(mask) for q in _bits(self._upper_covers(p, mask))]
        out.sort(key=lambda pq: (rank[pq[0]], rank[pq[1]]))
        return [(self._label[p], self._label[q]) for p, q in out]

    def dual(self):
        """Order reversed, sharing the root of this poset."""
        view = self._view(self._mask)
        view._up, view._down, view._rev = self._down, self._up, not self._rev
        return view

    def restrict(self, members):
        """Induced subposet on ``members``, canonical order preserved; on a
        lattice, the induced sublattice, with the lattice axioms checked."""
        mask = 0
        for m in members:
            mask |= 1 << self._at(m)
        return self._restrict(mask)

    _restrict = _view


def _missing_bound(poset, order):
    """The first pair of ``order`` without a meet, as (p, q, common lower
    bounds); None if there is none.  The meet candidate is the last common
    lower bound along the bits, a linear extension (reversed on a dual)."""
    mask, down, rev = poset._mask, poset._down, poset._rev
    for a, p in enumerate(order):
        down_p = down[p] & mask
        for q in order[a + 1:]:
            common = down_p & down[q]
            if common & ~down[(common & -common if rev else common).bit_length() - 1]:
                return p, q, common
    return None


def _meets_exist(poset, order):
    """Whether every pair of the bounded ``poset`` has a meet, testing only
    the pairs (p, m) with m meet-irreducible (one upper cover) and p
    incomparable to m.

    That suffices, by downward induction along a linear extension: if q has
    upper covers u1 != u2, their meet exists and is q, so the meet of p and
    q is the meet of meet(p, u1) and u2.  The first bit of m's strict
    up-set along the bits (the highest on a dual) is an upper cover c, and
    c is the only one exactly when c's up-set is the rest of m's.  A pair
    of two meet-irreducible members is tested once, from the first.
    """
    mask, up, down, rev = poset._mask, poset._up, poset._down, poset._rev
    untested = mask
    for m in order:
        strict = up[m] & mask & ~(1 << m)
        if not strict:
            continue
        c = (strict if rev else strict & -strict).bit_length() - 1
        if up[c] & mask != strict:
            continue
        untested &= ~(1 << m)
        down_m = down[m] & mask
        partners = untested & ~(up[m] | down_m)
        while partners:
            low = partners & -partners
            partners ^= low
            common = down_m & down[low.bit_length() - 1]
            if common & ~down[(common & -common if rev else common).bit_length() - 1]:
                return False
    return True


def _lattice_bounds(poset):
    """Positions of the bottom and top; raises unless ``poset`` is a lattice.

    A finite poset with a top in which every pair has a meet is a lattice
    (the join of u and v is the meet of their common upper bounds, a set
    that holds the top), so only meets are checked, and by
    ``_meets_exist`` only those with a meet-irreducible member.  When one
    is missing, the full pair scan names the canonically first pair.
    """
    if not poset._mask:
        raise NoUniqueBottom("empty poset has no bottom element")
    mask, up, down, label = poset._mask, poset._up, poset._down, poset._label
    order = poset._sorted(mask)
    minimals = [p for p in order if down[p] & mask == 1 << p]
    if len(minimals) != 1:
        raise NoUniqueBottom(f"minimal elements: {[label[p] for p in minimals]}")
    maximals = [p for p in order if up[p] & mask == 1 << p]
    if len(maximals) != 1:
        raise NoUniqueTop(f"maximal elements: {[label[p] for p in maximals]}")
    if not _meets_exist(poset, order):
        p, q, common = _missing_bound(poset, order)
        wits = sum(1 << r for r in _bits(common) if up[r] & common == 1 << r)
        raise NotALattice(label[p], label[q], poset._labels(wits))
    return minimals[0], maximals[0]


class Lattice(Poset):
    """A bounded lattice: a poset with unique bottom/top and total meet/join.

    A lattice is a poset view (its root's ground and order masks, its
    member mask and orientation) that also keeps its bounds and its atom
    and coatom masks, so it goes wherever a poset view does.  ``poset`` is
    the plain order of the same members: it hashes alike but never equals
    the lattice.

    Construction validates everything: unique minimum and maximum, and a
    unique greatest lower bound for every pair (raising NotALattice with
    the canonically first pair and its witnesses otherwise), which makes
    every join exist too.  Only the pairs with a meet-irreducible member
    are tested (see ``_meets_exist``); on a failure every pair is scanned
    to name the first one.
    The atoms are the upper covers of bottom and the coatoms those of top
    on the dual, found by one cover walk each.  Both are kept as masks, a
    dual swaps them, and ``atoms`` renders the atom mask on each read;
    ``coatoms`` is the atoms of the dual.

    Intervals and atom deletions are lattices by construction and derive
    their atoms and coatoms from their parent's:

    * ``remove_atom(y)``: deleting an atom y shrinks the down-set of the
      members above y alone.  So the atoms are the old ones minus y plus
      the upper covers u of y whose down-set is now {bottom, u}.  Only the
      up-sets of bottom and y change, so the coatoms stay unless y is a
      coatom or the top itself; then y leaves them and bottom may join
      them, and that rare case walks the covers of top again.
    * ``interval(y, v)``: the atoms are the upper covers of y below v, as
      a cover of y in the interval is one in the lattice.  For v the top
      the up-set of a member above y is unchanged, so the coatoms are the
      old coatoms above y; for any other v they are the lower covers of v,
      the upper covers of v on the dual.
    """

    __slots__ = ("bottom", "top", "_bounds", "_atom_mask", "_coatom_mask")

    def __init__(self, poset):
        self._adopt(poset, poset._mask)._walk(*_lattice_bounds(self))

    def _restrict(self, mask):
        """The induced sublattice on ``mask``, checked as ``Lattice()`` is."""
        lat = self._sub(mask)
        return lat._walk(*_lattice_bounds(lat))

    def _sub(self, mask):
        """A lattice on ``mask`` of this root and orientation, bounds unset."""
        return Lattice.__new__(Lattice)._adopt(self, mask)

    def _walk(self, bottom, top):
        """Set the bounds, finding the atoms and coatoms by cover walks."""
        return self._init(bottom, top, self._upper_covers(bottom, self._mask),
                          Poset.dual(self)._upper_covers(top, self._mask))

    def _init(self, bottom, top, atoms, coatoms):
        self._bounds = bottom, top
        self.bottom, self.top = self._label[bottom], self._label[top]
        self._atom_mask, self._coatom_mask = atoms, coatoms
        return self

    # -- basic queries ----------------------------------------------------------

    @property
    def poset(self):
        """The plain poset view of the same members and orientation."""
        return self._view(self._mask)

    @property
    def atoms(self):
        """The members covering bottom, in canonical order."""
        return self._labels(self._atom_mask)

    @property
    def coatoms(self):
        """The members covered by top, in canonical order."""
        return self.dual().atoms

    def __eq__(self, other):
        return isinstance(other, Lattice) and Poset.__eq__(self, other)

    __hash__ = Poset.__hash__

    def __repr__(self):
        return (
            f"Lattice({len(self)} elements, bottom={self.bottom!r}, top={self.top!r})"
        )

    def meet(self, u, v):
        return self.dual().join(u, v)

    def join(self, u, v):
        return self._label[self._join(self._at(u), self._at(v))]

    def _join(self, p, q):
        """The position of the join of the members at positions p and q."""
        common = self._up[p] & self._up[q] & self._mask
        return (common if self._rev else common & -common).bit_length() - 1

    def interior(self):
        """Elements other than bottom and top, in canonical order."""
        return self._labels(self._interior_mask())

    def complements(self, x):
        """All y with meet(x, y) = bottom and join(x, y) = top, in canonical
        order."""
        return self._labels(self._complement_mask(self._at(x)))

    def _complement_mask(self, p):
        """The complements of the member at position p: the members above no
        atom below p and below no coatom above p."""
        up, down = self._up, self._down
        blocked = 0
        for a in _bits(down[p] & self._atom_mask):
            blocked |= up[a]
        for c in _bits(up[p] & self._coatom_mask):
            blocked |= down[c]
        return self._mask & ~blocked

    def _interior_mask(self):
        """The members other than bottom and top."""
        bottom, top = self._bounds
        return self._mask & ~(1 << bottom) & ~(1 << top)

    # -- transforms ---------------------------------------------------------------

    def interval(self, u, v):
        """The sublattice {w : u <= w <= v} with bottom u and top v."""
        if not self.leq(u, v):
            raise NotComparable(f"{u!r} is not below {v!r}")
        return self._interval(self._at(u), self._at(v))

    def _interval(self, p, q):
        """``interval`` on the positions p <= q."""
        mask = self._up[p] & self._down[q] & self._mask
        if q == self._bounds[1]:
            coatoms = self._coatom_mask & mask
        else:
            coatoms = Poset.dual(self)._upper_covers(q, mask)
        return self._sub(mask)._init(p, q, self._upper_covers(p, mask), coatoms)

    def remove_atom(self, y):
        """The sublattice without the atom y: meets that were y become bottom."""
        p = self._at(y)
        if not self._atom_mask >> p & 1:
            raise NotAnAtom(f"{y!r} is not an atom")
        return self._remove_atom(p)

    def _remove_atom(self, p):
        """``remove_atom`` on the position p of an atom."""
        bottom, top = self._bounds
        mask = self._mask & ~(1 << p)
        if (self._coatom_mask | 1 << top) >> p & 1:
            return self._sub(mask)._walk(bottom, bottom if p == top else top)
        atoms, down, base = self._atom_mask & ~(1 << p), self._down, 1 << bottom
        for u in _bits(self._upper_covers(p, mask)):
            if down[u] & mask == base | 1 << u:
                atoms |= 1 << u
        return self._sub(mask)._init(bottom, top, atoms, self._coatom_mask)

    def dual(self):
        """Order reversed: bottom/top, meet/join, atoms/coatoms all swap."""
        bottom, top = self._bounds
        lat = self._sub(self._mask)
        lat._up, lat._down, lat._rev = self._down, self._up, not self._rev
        return lat._init(top, bottom, self._coatom_mask, self._atom_mask)

    def comparability_components(self):
        """Connected components of the comparability graph on the interior.

        Returned as frozensets ordered by their canonically-first member.
        """
        return tuple(frozenset(map(self._label.__getitem__, _bits(comp)))
                     for comp in self._components())

    def _components(self):
        """``comparability_components`` as masks."""
        up, down = self._up, self._down
        rest = self._interior_mask()
        comps = []
        for p in self._sorted(rest):
            if not rest >> p & 1:
                continue
            comp, frontier = 0, 1 << p
            while frontier:
                comp |= frontier
                reach = 0
                for q in _bits(frontier):
                    reach |= up[q] | down[q]
                frontier = reach & rest & ~comp
            rest &= ~comp
            comps.append(comp)
        return comps

    def interior_set(self):
        """The interior as a view of the poset."""
        return self._view(self._interior_mask())


# --- file format -----------------------------------------------------------------


def parse_lattice(text):
    """Parse the lattice file format (text cover list, or equivalent JSON).

    Text format::

        # comment
        elements: 1 2 3 4 6 12
        cover: 1 2
        cover: 1 3

    The elements line fixes the canonical order.  JSON alternative:
    ``{"elements": [...], "covers": [["u", "v"], ...]}``.
    """
    if text.lstrip().startswith("{"):
        doc = _decode_json(text, "invalid JSON lattice document")
        if not isinstance(doc, dict) or "elements" not in doc:
            raise ParseError('JSON lattice document needs an "elements" array')
        elements = doc["elements"]
        covers = doc.get("covers", [])
        if not _strings(elements):
            raise ParseError('"elements" must be an array of strings')
        if not isinstance(covers, list):
            raise ParseError(f'bad covers {covers!r}: expected an array of ["u", "v"]')
        for item in covers:
            if not (_strings(item) and len(item) == 2):
                raise ParseError(f'bad cover entry {item!r}: expected ["u", "v"]')
        return Lattice.from_covers(elements, covers)

    elements = None
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError(f"line {lineno}: duplicate elements line")
            elements = line[len("elements:"):].split()
            if not elements:
                raise ParseError(f"line {lineno}: elements line is empty")
        elif line.startswith("cover:"):
            if elements is None:
                raise ParseError(f"line {lineno}: cover before elements line")
            parts = line[len("cover:"):].split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: cover needs exactly two labels")
            covers.append((parts[0], parts[1]))
        else:
            raise ParseError(f"line {lineno}: unrecognised directive {line!r}")
    if elements is None:
        raise ParseError("document has no elements line")
    return Lattice.from_covers(elements, covers)


def format_lattice(lattice, as_json=False):
    """Serialise a lattice to the file format; parse_lattice round-trips it."""
    covers = lattice.covers()
    if as_json:
        doc = {
            "elements": list(lattice.elements),
            "covers": [[u, v] for u, v in covers],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["elements: " + " ".join(lattice.elements)]
    lines += [f"cover: {u} {v}" for u, v in covers]
    return "\n".join(lines) + "\n"


# --- completion, products, generators ----------------------------------------------


def dedekind_macneille(poset):
    """Smallest complete lattice embedding ``poset``, built from order cuts.

    Cut lower-sets are exactly the intersections of principal down-sets
    (plus the full set), so we close that family under intersection.
    Element labels are derived from cut contents, e.g. "(a+b)"; the empty
    cut is "()".  If content labels collide (possible when base labels
    contain "+"), deterministic indexed labels are used instead.
    """
    n = len(poset)
    full = (1 << n) - 1
    principals = poset.dual()._relation()
    closed = {full, *principals}
    frontier = set(closed)
    while frontier:
        new = set()
        for a in frontier:
            for p in principals:
                c = a & p
                if c not in closed:
                    closed.add(c)
                    new.add(c)
        frontier = new
        if len(closed) > MAX_ELEMENTS:
            raise ParamOutOfRange(
                f"completion exceeds the cap of {MAX_ELEMENTS} elements"
            )
    cuts = sorted(closed, key=lambda m: (m.bit_count(), tuple(sorted(_bits(m)))))
    elements = poset.elements
    labels = ["(" + "+".join(elements[i] for i in sorted(_bits(m))) + ")" for m in cuts]
    if len(set(labels)) != len(labels):
        labels = [f"c{k}" for k in range(len(cuts))]
    # cuts grow along the list, so their order is a linear extension
    up, down = [0] * len(cuts), [0] * len(cuts)
    for i, a in enumerate(cuts):
        for j, b in enumerate(cuts):
            if a & ~b == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return Lattice._root(tuple(labels), range(len(cuts)), up, down)


def product_lattice(left, right):
    """Direct product; element (a, b) is labelled "a*b", left factor major.
    (a, b) is covered by (c, b) for each cover a < c of the left factor and
    by (a, d) for each cover b < d of the right one."""
    n, m = len(left), len(right)
    if n * m > MAX_ELEMENTS:
        raise ParamOutOfRange(f"product has {n * m} elements, cap is {MAX_ELEMENTS}")
    rights = right.elements
    labels = [f"{a}*{b}" for a in left.elements for b in rights]
    covers = [(f"{a}*{b}", f"{c}*{b}") for a, c in left.covers() for b in rights]
    covers += [(f"{a}*{b}", f"{a}*{d}") for a in left.elements for b, d in right.covers()]
    return Lattice.from_covers(labels, covers)


def _interior_labels(count):
    if count <= len(string.ascii_lowercase):
        return list(string.ascii_lowercase[:count])
    return [f"v{k + 1}" for k in range(count)]


def _gen_chain(n):
    if n < 1:
        raise ParamOutOfRange("chain needs at least 1 element")
    if n > MAX_ELEMENTS:
        raise ParamOutOfRange(f"chain of {n} exceeds the cap of {MAX_ELEMENTS}")
    if n == 1:
        labels = ["0"]
    else:
        labels = ["0"] + _interior_labels(n - 2) + ["1"]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Lattice.from_covers(labels, covers)


def _gen_boolean(n):
    """Subsets of the first n letters; s is covered by s with one more letter."""
    if n < 0:
        raise ParamOutOfRange("boolean rank must be nonnegative")
    if n > 16:
        raise ParamOutOfRange("boolean rank capped at 16 (2^16 elements)")
    letters = string.ascii_lowercase[:n]
    label = ["".join(letters[i] for i in _bits(s)) for s in range(1 << n)]
    label[0] = "0"
    if n > 0:
        label[-1] = "1"
    # "0" and "1" are alone in their ranks, so sorting by label is by word
    subsets = sorted(range(1 << n), key=lambda s: (s.bit_count(), label[s]))
    covers = [(label[s], label[s | 1 << i]) for s in subsets for i in range(n)
              if not s >> i & 1]
    return Lattice.from_covers([label[s] for s in subsets], covers)


def _gen_divisor(n):
    """Divisors of n, ascending; d is covered by d * p for each prime p of n
    with d * p dividing n."""
    if n < 1:
        raise ParamOutOfRange("divisor lattice needs n >= 1")
    if n > MAX_DIVISOR_N:
        raise ParamOutOfRange(f"divisor lattice capped at n = {MAX_DIVISOR_N}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    # a divisor is prime when no smaller prime of n divides it
    primes = []
    for d in divisors[1:]:
        if all(d % p for p in primes):
            primes.append(d)
    covers = [(str(d), str(d * p)) for d in divisors for p in primes if n % (d * p) == 0]
    return Lattice.from_covers([str(d) for d in divisors], covers)


def _set_partitions(n):
    # Restricted-growth enumeration: deterministic order.
    parts = []

    def place(k, blocks):
        if k > n:
            parts.append([sorted(b) for b in blocks])
            return
        for b in blocks:
            b.append(k)
            place(k + 1, blocks)
            b.pop()
        blocks.append([k])
        place(k + 1, blocks)
        blocks.pop()

    place(1, [])
    return parts


def _gen_partition(n):
    """Set partitions of {1..n} under refinement; a partition is covered by
    each one with two of its blocks merged."""
    if n < 1:
        raise ParamOutOfRange("partition lattice needs n >= 1")
    if n > 9:
        raise ParamOutOfRange(
            "partition lattice capped at n = 9 (single-digit block labels)"
        )
    parts = _set_partitions(n)

    def label(blocks):
        return "|".join("".join(str(x) for x in b) for b in sorted(blocks))

    # Rank = n - #blocks; refinement order has the discrete partition at the bottom.
    decorated = sorted(
        (n - len(blocks), label(blocks), blocks) for blocks in parts
    )
    covers = [
        (lab, label(blocks[:i] + blocks[i + 1:j] + blocks[j + 1:]
                    + [sorted(blocks[i] + blocks[j])]))
        for _, lab, blocks in decorated
        for j in range(len(blocks)) for i in range(j)
    ]
    return Lattice.from_covers([lab for _, lab, _ in decorated], covers)


def _gen_random(n, edge_probability, seed):
    if n < 0 or n > 24:
        raise ParamOutOfRange("random base poset size must be in 0..24")
    if not 0.0 <= edge_probability <= 1.0:
        raise ParamOutOfRange("edge probability must be in [0, 1]")
    rng = Random(seed)
    labels = [f"p{i}" for i in range(n)]
    # a DAG sampled in index order; from_covers closes it transitively
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_probability]
    return dedekind_macneille(Poset.from_covers(labels, pairs))


#: The families built from one size, which may also be product factors.
_SIZED = {"chain": _gen_chain, "boolean": _gen_boolean, "divisor": _gen_divisor,
          "partition": _gen_partition}


def generate(family, n=None, *, p=None, seed=None, left=None, right=None):
    """Generate a named lattice family.

    Families: ``chain`` (n elements), ``boolean`` (rank n), ``divisor``
    (divisors of n), ``partition`` (set partitions of {1..n}), ``product``
    (left x right, each a Lattice or a "family:n" descriptor) and
    ``random`` (completion of a seeded random poset on n points with the
    given edge probability; identical seeds give identical lattices).
    """
    fam = str(family).lower()
    if fam in _SIZED:
        return _SIZED[fam](_require_n(fam, n))
    if fam == "product":
        if left is None or right is None:
            raise ParamOutOfRange("product needs left and right factors")
        return product_lattice(_resolve_factor(left), _resolve_factor(right))
    if fam == "random":
        return _gen_random(
            _require_n(fam, n),
            0.3 if p is None else p,
            0 if seed is None else seed,
        )
    raise UnknownFamily(f"unknown lattice family {family!r}")


def _require_n(fam, n):
    if n is None:
        raise ParamOutOfRange(f"family {fam!r} needs a size parameter")
    return int(n)


def _resolve_factor(descriptor):
    if isinstance(descriptor, Lattice):
        return descriptor
    fam, sep, num = str(descriptor).partition(":")
    if not sep:
        raise ParamOutOfRange(
            f"bad product factor {descriptor!r}: expected e.g. 'chain:3'"
        )
    try:
        size = int(num)
    except ValueError:
        raise ParamOutOfRange(f"bad product factor size in {descriptor!r}") from None
    if fam not in _SIZED:
        raise UnknownFamily(f"unknown product factor family {fam!r}")
    return generate(fam, size)
