"""Finite bounded lattices over labelled elements.

The order relation is stored as one bitmask per element (bit j of
``up[i]`` means element i <= element j), which keeps meets, joins and
sublattice construction cheap for the desk-scale lattices this package
targets.  The element order given at construction is canonical: every
scan, tie-break and serialisation follows it.  All values are immutable
once built, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from random import Random

from .errors import (
    CycleDetected,
    ElementOnBoundary,
    NoUniqueBottom,
    NoUniqueTop,
    NotACoatom,
    NotALattice,
    NotAnAtom,
    NotComparable,
    ParamOutOfRange,
    ParseError,
    UnknownElement,
    UnknownFamily,
)

#: Hard cap on the number of elements a generator may produce.
MAX_ELEMENTS = 1 << 16

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


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite partial order on labelled elements.

    Build instances with :meth:`from_covers` (transitive closure is
    computed, cycles rejected).  ``elements`` is the canonical order.
    """

    __slots__ = ("elements", "_index", "_up", "_down")

    def __init__(self, elements, up_masks, _validate=True):
        elements = tuple(elements)
        seen = set()
        for e in elements:
            check_label(e)
            if e in seen:
                raise ParseError(f"duplicate element label {e!r}")
            seen.add(e)
        n = len(elements)
        up = tuple(up_masks)
        if len(up) != n:
            raise ValueError("one up-mask required per element")
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        self._up = up
        self._down = tuple(down)
        if _validate:
            self._check_axioms()

    def _check_axioms(self):
        up = self._up
        down = self._down
        for i in range(len(self.elements)):
            if not up[i] & (1 << i):
                raise ValueError(f"relation is not reflexive at {self.elements[i]!r}")
            if up[i] & down[i] != 1 << i:
                other = next(j for j in _bits(up[i] & down[i]) if j != i)
                raise CycleDetected(
                    f"{self.elements[i]!r} and {self.elements[other]!r} are mutually comparable"
                )
            for j in _bits(up[i]):
                if up[j] & ~up[i]:
                    k = next(_bits(up[j] & ~up[i]))
                    raise ValueError(
                        "relation is not transitive: "
                        f"{self.elements[i]!r} <= {self.elements[j]!r} <= {self.elements[k]!r}"
                    )

    @classmethod
    def from_covers(cls, elements, covers):
        """Build a poset from cover pairs (u, v) meaning u is covered by v."""
        elements = tuple(elements)
        index = {}
        for i, e in enumerate(elements):
            check_label(e)
            if e in index:
                raise ParseError(f"duplicate element label {e!r}")
            index[e] = i
        n = len(elements)
        succ = [set() for _ in range(n)]
        for u, v in covers:
            if u not in index:
                raise ParseError(f"cover references unknown element {u!r}")
            if v not in index:
                raise ParseError(f"cover references unknown element {v!r}")
            if u == v:
                raise CycleDetected(f"self-cover on {u!r}")
            succ[index[u]].add(index[v])
        # Kahn's algorithm: order then accumulate up-sets from the top down.
        indeg = [0] * n
        for i in range(n):
            for j in succ[i]:
                indeg[j] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        order = []
        while queue:
            i = queue.pop()
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) < n:
            stuck = [elements[i] for i in range(n) if indeg[i] > 0]
            raise CycleDetected(f"cover relation has a cycle through {sorted(stuck)}")
        up = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in succ[i]:
                mask |= up[j]
            up[i] = mask
        return cls(elements, up, _validate=False)

    # -- queries --------------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, self._up))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements)"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown element {label!r}") from None

    def leq(self, u, v):
        return bool(self._up[self.index(u)] & (1 << self.index(v)))

    def comparable(self, u, v):
        ui, vi = self.index(u), self.index(v)
        return bool((self._up[ui] | self._down[ui]) & (1 << vi))

    def below(self, v, strict=True):
        """Elements <= v (or < v) in canonical order."""
        mask = self._down[self.index(v)]
        if strict:
            mask &= ~(1 << self.index(v))
        return tuple(self.elements[i] for i in sorted(_bits(mask)))

    def above(self, v, strict=True):
        mask = self._up[self.index(v)]
        if strict:
            mask &= ~(1 << self.index(v))
        return tuple(self.elements[i] for i in sorted(_bits(mask)))

    def _topo(self):
        # |down| strictly increases along the order, so sorting by it is
        # a linear extension (stable on ties).
        down = self._down
        return sorted(range(len(down)), key=lambda i: down[i].bit_count())

    def linear_extension(self):
        """All elements, smallest first, compatible with the order."""
        return tuple(self.elements[i] for i in self._topo())

    def covers(self):
        """Cover pairs (u, v) with u covered by v, in canonical pair order."""
        n = len(self.elements)
        out = []
        for i in range(n):
            strict_up = self._up[i] & ~(1 << i)
            for j in _bits(strict_up):
                between = strict_up & self._down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        out.sort()
        return [(self.elements[i], self.elements[j]) for i, j in out]

    def dual(self):
        """Order reversed, sharing the labels and masks of this poset."""
        view = Poset.__new__(Poset)
        view.elements = self.elements
        view._index = self._index
        view._up, view._down = self._down, self._up
        return view

    def restrict(self, members):
        """Induced subposet on ``members``, canonical order preserved."""
        keep = sorted(self.index(m) for m in set(members))
        old_to_new = {old: new for new, old in enumerate(keep)}
        up = []
        for old in keep:
            mask = 0
            for j in _bits(self._up[old]):
                if j in old_to_new:
                    mask |= 1 << old_to_new[j]
            up.append(mask)
        return Poset(tuple(self.elements[i] for i in keep), up, _validate=False)


class Lattice:
    """A bounded lattice: a poset with unique bottom/top and total meet/join.

    Construction validates everything: unique minimum and maximum, and a
    unique greatest lower / least upper bound for every pair (raising
    NotALattice with the offending witnesses otherwise).
    """

    __slots__ = ("poset", "bottom", "top", "atoms", "coatoms", "_meet", "_join")

    def __init__(self, poset):
        n = len(poset)
        if n == 0:
            raise NoUniqueBottom("empty poset has no bottom element")
        if n > MAX_ELEMENTS:
            raise ParamOutOfRange(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
        minimals = [i for i in range(n) if poset._down[i] == 1 << i]
        if len(minimals) != 1:
            raise NoUniqueBottom(
                f"minimal elements: {[poset.elements[i] for i in minimals]}"
            )
        maximals = [i for i in range(n) if poset._up[i] == 1 << i]
        if len(maximals) != 1:
            raise NoUniqueTop(
                f"maximal elements: {[poset.elements[i] for i in maximals]}"
            )
        self.poset = poset
        bot, top = minimals[0], maximals[0]
        self.bottom = poset.elements[bot]
        self.top = poset.elements[top]
        self._meet, self._join = self._build_tables(poset)
        bot_bit, top_bit = 1 << bot, 1 << top
        self.atoms = tuple(
            poset.elements[i]
            for i in range(n)
            if i != bot and poset._down[i] == bot_bit | (1 << i)
        )
        self.coatoms = tuple(
            poset.elements[i]
            for i in range(n)
            if i != top and poset._up[i] == top_bit | (1 << i)
        )

    @staticmethod
    def _build_tables(poset):
        # Work in linear-extension bit space so the greatest element of a
        # down-closed mask is simply its highest bit (dually for joins).
        n = len(poset)
        topo = poset._topo()
        pos = [0] * n
        for p, idx in enumerate(topo):
            pos[idx] = p
        down_t = [0] * n
        up_t = [0] * n
        for idx in range(n):
            dm = 0
            for k in _bits(poset._down[idx]):
                dm |= 1 << pos[k]
            down_t[pos[idx]] = dm
            um = 0
            for k in _bits(poset._up[idx]):
                um |= 1 << pos[k]
            up_t[pos[idx]] = um
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        elements = poset.elements
        for i in range(n):
            pi = pos[i]
            for j in range(i, n):
                pj = pos[j]
                dm = down_t[pi] & down_t[pj]
                m = dm.bit_length() - 1
                if dm & ~down_t[m]:
                    wits = [topo[r] for r in _bits(dm) if up_t[r] & dm == 1 << r]
                    raise NotALattice(
                        "meet", elements[i], elements[j],
                        [elements[w] for w in sorted(wits)],
                    )
                meet[i][j] = meet[j][i] = topo[m]
                um = up_t[pi] & up_t[pj]
                m = (um & -um).bit_length() - 1
                if um & ~up_t[m]:
                    wits = [topo[r] for r in _bits(um) if down_t[r] & um == 1 << r]
                    raise NotALattice(
                        "join", elements[i], elements[j],
                        [elements[w] for w in sorted(wits)],
                    )
                join[i][j] = join[j][i] = topo[m]
        return tuple(map(tuple, meet)), tuple(map(tuple, join))

    # -- basic queries ----------------------------------------------------------

    @property
    def elements(self):
        return self.poset.elements

    def __len__(self):
        return len(self.poset)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.poset == other.poset

    def __hash__(self):
        return hash(self.poset)

    def __repr__(self):
        return (
            f"Lattice({len(self)} elements, bottom={self.bottom!r}, top={self.top!r})"
        )

    def leq(self, u, v):
        return self.poset.leq(u, v)

    def meet(self, u, v):
        return self.elements[self._meet[self.poset.index(u)][self.poset.index(v)]]

    def join(self, u, v):
        return self.elements[self._join[self.poset.index(u)][self.poset.index(v)]]

    def interior(self):
        """Elements other than bottom and top, in canonical order."""
        return tuple(
            e for e in self.elements if e != self.bottom and e != self.top
        )

    def covers(self):
        return self.poset.covers()

    def complements(self, x):
        """All y with meet(x, y) = bottom and join(x, y) = top."""
        xi = self.poset.index(x)
        bot = self.poset.index(self.bottom)
        top = self.poset.index(self.top)
        row_m, row_j = self._meet[xi], self._join[xi]
        return tuple(
            self.elements[y]
            for y in range(len(self))
            if row_m[y] == bot and row_j[y] == top
        )

    # -- transforms ---------------------------------------------------------------

    def restrict(self, members):
        """Induced sublattice on ``members``; revalidates all lattice axioms."""
        return Lattice(self.poset.restrict(members))

    def interval(self, u, v):
        """The sublattice {w : u <= w <= v} with bottom u and top v."""
        if not self.leq(u, v):
            raise NotComparable(f"{u!r} is not below {v!r}")
        ui, vi = self.poset.index(u), self.poset.index(v)
        mask = self.poset._up[ui] & self.poset._down[vi]
        return self.restrict([self.elements[i] for i in _bits(mask)])

    def remove_atom(self, y):
        if y not in self.atoms:
            if y not in self.poset._index:
                raise UnknownElement(f"unknown element {y!r}")
            raise NotAnAtom(f"{y!r} is not an atom")
        return self.restrict([e for e in self.elements if e != y])

    def remove_coatom(self, y):
        if y not in self.coatoms:
            if y not in self.poset._index:
                raise UnknownElement(f"unknown element {y!r}")
            raise NotACoatom(f"{y!r} is not a coatom")
        return self.restrict([e for e in self.elements if e != y])

    def dual(self):
        """Order reversed: bottom/top, meet/join, atoms/coatoms all swap.

        The dual shares this lattice's tables, so it costs no rebuild.
        """
        view = Lattice.__new__(Lattice)
        view.poset = self.poset.dual()
        view.bottom, view.top = self.top, self.bottom
        view.atoms, view.coatoms = self.coatoms, self.atoms
        view._meet, view._join = self._join, self._meet
        return view

    def comparability_components(self):
        """Connected components of the comparability graph on the interior.

        Returned as frozensets ordered by their canonically-first member.
        """
        interior = self.interior()
        idx = self.poset.index
        int_mask = 0
        for e in interior:
            int_mask |= 1 << idx(e)
        seen = set()
        comps = []
        for e in interior:
            i = idx(e)
            if i in seen:
                continue
            comp = set()
            stack = [i]
            while stack:
                k = stack.pop()
                if k in comp:
                    continue
                comp.add(k)
                reach = (self.poset._up[k] | self.poset._down[k]) & int_mask
                for m in _bits(reach & ~(1 << k)):
                    if m not in comp:
                        stack.append(m)
            seen |= comp
            comps.append(frozenset(self.elements[k] for k in comp))
        return tuple(comps)

    def interior_set(self, members=None):
        if members is None:
            members = self.interior()
        return InteriorSet(self, tuple(members))


@dataclass(frozen=True)
class InteriorSet:
    """A subset of a lattice's interior, carrying the induced order.

    Members are normalised to canonical lattice order; bottom and top are
    rejected.
    """

    lattice: Lattice
    members: tuple

    def __post_init__(self):
        idx = self.lattice.poset.index
        uniq = sorted(set(self.members), key=idx)
        for m in uniq:
            if m == self.lattice.bottom or m == self.lattice.top:
                raise ElementOnBoundary(f"{m!r} is a bound of the lattice")
        object.__setattr__(self, "members", tuple(uniq))

    def __len__(self):
        return len(self.members)


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
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON lattice document: {exc}") from None
        if not isinstance(doc, dict) or "elements" not in doc:
            raise ParseError('JSON lattice document needs an "elements" array')
        elements = doc["elements"]
        covers = doc.get("covers", [])
        if not isinstance(elements, list) or not all(
            isinstance(e, str) for e in elements
        ):
            raise ParseError('"elements" must be an array of strings')
        pairs = []
        for item in covers:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParseError(f'bad cover entry {item!r}: expected ["u", "v"]')
            pairs.append((item[0], item[1]))
        return Lattice(Poset.from_covers(elements, pairs))

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
    return Lattice(Poset.from_covers(elements, covers))


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
    closed = {full}
    frontier = {full}
    principals = [poset._down[i] for i in range(n)]
    for p in principals:
        closed.add(p)
        frontier.add(p)
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
    labels = [
        "(" + "+".join(poset.elements[i] for i in sorted(_bits(m))) + ")"
        for m in cuts
    ]
    if len(set(labels)) != len(labels):
        labels = [f"c{k}" for k in range(len(cuts))]
    up = []
    for a in cuts:
        mask = 0
        for j, b in enumerate(cuts):
            if a & ~b == 0:
                mask |= 1 << j
        up.append(mask)
    return Lattice(Poset(labels, up, _validate=False))


def product_lattice(left, right):
    """Direct product; element (a, b) is labelled "a*b", left factor major."""
    n, m = len(left), len(right)
    if n * m > MAX_ELEMENTS:
        raise ParamOutOfRange(f"product has {n * m} elements, cap is {MAX_ELEMENTS}")
    labels = [f"{a}*{b}" for a in left.elements for b in right.elements]
    lp, rp = left.poset, right.poset
    up = []
    for i in range(n):
        for j in range(m):
            mask = 0
            for i2 in _bits(lp._up[i]):
                for j2 in _bits(rp._up[j]):
                    mask |= 1 << (i2 * m + j2)
            up.append(mask)
    return Lattice(Poset(labels, up, _validate=False))


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
    return Lattice(Poset.from_covers(labels, covers))


def _gen_boolean(n):
    if n < 0:
        raise ParamOutOfRange("boolean rank must be nonnegative")
    if n > 16:
        raise ParamOutOfRange("boolean rank capped at 16 (2^16 elements)")
    letters = string.ascii_lowercase[:n]
    subsets = sorted(range(1 << n), key=lambda s: (s.bit_count(), _subset_word(s, letters)))
    full = (1 << n) - 1

    def label(s):
        if s == 0:
            return "0"
        if s == full and n > 0:
            return "1"
        return _subset_word(s, letters)

    index = {s: k for k, s in enumerate(subsets)}
    up = []
    for s in subsets:
        mask = 0
        t = s
        while True:
            mask |= 1 << index[t]
            if t == full:
                break
            t = (t + 1) | s
        up.append(mask)
    return Lattice(Poset([label(s) for s in subsets], up, _validate=False))


def _subset_word(s, letters):
    return "".join(letters[i] for i in _bits(s))


def _gen_divisor(n):
    if n < 1:
        raise ParamOutOfRange("divisor lattice needs n >= 1")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    labels = [str(d) for d in divisors]
    up = []
    for d in divisors:
        mask = 0
        for j, e in enumerate(divisors):
            if e % d == 0:
                mask |= 1 << j
        up.append(mask)
    return Lattice(Poset(labels, up, _validate=False))


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
    labels = [lab for _, lab, _ in decorated]
    blocksets = [
        [frozenset(b) for b in blocks] for _, _, blocks in decorated
    ]

    def finer(a, b):
        return all(any(blk <= other for other in b) for blk in a)

    up = []
    for a in blocksets:
        mask = 0
        for j, b in enumerate(blocksets):
            if finer(a, b):
                mask |= 1 << j
        up.append(mask)
    return Lattice(Poset(labels, up, _validate=True))


def _gen_random(n, edge_probability, seed):
    if n < 0 or n > 24:
        raise ParamOutOfRange("random base poset size must be in 0..24")
    if not 0.0 <= edge_probability <= 1.0:
        raise ParamOutOfRange("edge probability must be in [0, 1]")
    rng = Random(seed)
    labels = [f"p{i}" for i in range(n)]
    up = [1 << i for i in range(n)]
    # Sample a DAG in index order, then close transitively from the top down.
    edges = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                edges[i].append(j)
    for i in reversed(range(n)):
        for j in edges[i]:
            up[i] |= up[j]
    return dedekind_macneille(Poset(labels, up, _validate=False))


def generate(family, n=None, *, p=None, seed=None, left=None, right=None):
    """Generate a named lattice family.

    Families: ``chain`` (n elements), ``boolean`` (rank n), ``divisor``
    (divisors of n), ``partition`` (set partitions of {1..n}), ``product``
    (left x right, each a Lattice or a "family:n" descriptor) and
    ``random`` (completion of a seeded random poset on n points with the
    given edge probability; identical seeds give identical lattices).
    """
    fam = str(family).lower()
    if fam == "chain":
        return _gen_chain(_require_n(fam, n))
    if fam == "boolean":
        return _gen_boolean(_require_n(fam, n))
    if fam == "divisor":
        return _gen_divisor(_require_n(fam, n))
    if fam == "partition":
        return _gen_partition(_require_n(fam, n))
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
    if fam not in ("chain", "boolean", "divisor", "partition"):
        raise UnknownFamily(f"unknown product factor family {fam!r}")
    return generate(fam, size)
