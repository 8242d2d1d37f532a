"""Brute-force ground truth: definitional nonevasiveness, backtracking
collapsibility, the Möbius function, the interior's reduced Euler
characteristic, and complementation scans.

These are deliberately independent of the certifier so the two sides can
cross-check each other.  Everything is deterministic; memo tables are
per-call unless the caller passes one in to share across a batch, and a
shared memo is keyed on a complex's facets as label sets, so equal
complexes on any vertex ground share an entry.  The Möbius value is summed
on signed bit planes of the values, a few whole-mask steps per element.
"""

from __future__ import annotations

from functools import partial

from .certify import Leaf, Split, _iterative
from .errors import CapExceeded
from .complexes import CollapsePair, CollapseSequence, _face_masks, order_complex
from .lattice import _bits

NONEVASIVE_CAP = 12
COLLAPSE_FACE_CAP = 1 << 14


def brute_nonevasive(complex_, cap=NONEVASIVE_CAP, memo=None):
    """Literal recursion: one vertex, or some vertex whose deletion and
    link are both nonevasive.  An isolated vertex fails its link branch.
    Nonevasive means exactly that a certificate exists."""
    return brute_certificate(complex_, cap, memo) is not None


def brute_certificate(complex_, cap=NONEVASIVE_CAP, memo=None):
    """Search for a certificate that verify_certificate would accept.

    The definitional recursion behind brute_nonevasive, returning a
    witness tree (or None).  The Split nodes carry a synthetic
    mode/link-element, since no lattice is involved; verification ignores
    both.  ``memo`` is keyed on ``Complex.facets``, the label sets, so it
    can be shared across complexes on different vertex grounds.  It
    walks a facet-built copy, never the mask walk of an order complex.
    """
    n = complex_._vmask.bit_count()
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds the cap of {cap}")
    if memo is None:
        memo = {}
    facet_built = complex_._derive(complex_._vmask, complex_._facet_masks())
    return _brute_cert((facet_built, memo))


# every link and deletion shares the ground of the complex searched, so
# within one search a subcomplex is known by its facet masks, and its label
# facets are built once per subcomplex
@partial(_iterative, key=lambda args: args[0]._facets)
def _brute_cert(args):
    """The search step on (complex, memo); a recursive call yields the
    deletion or the link with the same memo."""
    c, memo = args
    if not c._vmask & (c._vmask - 1):
        return Leaf(c._label[c._vmask.bit_length() - 1])
    key = c.facets
    if key in memo:
        return memo[key]
    found = None
    for p in sorted(_bits(c._vmask), key=c._rank.__getitem__):
        b = 1 << p
        if b in c._facets:
            continue  # isolated: its link is empty
        dl_cert = yield c._deletion(b), memo
        if dl_cert is None:
            continue
        lk_cert = yield c._link(b), memo
        if lk_cert is None:
            continue
        v = c._label[p]
        found = Split(v, "case2_atom", v, dl_cert, lk_cert)
        break
    memo[key] = found
    return found


def brute_collapsible(complex_, face_cap=COLLAPSE_FACE_CAP):
    """Backtracking search for a full collapse; returns a witness or None.

    Greedy collapsing is not safe in general, so failed states are
    memoised and the search backtracks over every free pair.  Free faces
    are tried smallest first, and faces of one size by their sorted label
    lists; the witness is the first full collapse in that order and feeds
    replay_collapses directly.  More than ``face_cap`` faces raise
    CapExceeded, after listing at most 2·face_cap of them.
    """
    label = complex_._label
    # face i is order[i], with sorted labels names[i]; a search state is
    # the int of the faces left
    faces = sorted(
        (f.bit_count(), sorted(map(label.__getitem__, _bits(f))), f)
        for f in _face_masks(complex_._facet_masks(), face_cap)
    )
    names = [n for _, n, _ in faces]
    order = [f for _, _, f in faces]
    if len(order) % 2 == 0:
        return None  # each collapse removes two faces, one must remain
    index = {f: i for i, f in enumerate(order)}
    # cofaces[i]: the bits of the faces that add one vertex to face i
    cofaces = [0] * len(order)
    for i, f in enumerate(order):
        if f & (f - 1):
            for p in _bits(f):
                cofaces[index[f ^ 1 << p]] |= 1 << i
    # a state met again is answered from the key memo: the search stops at
    # the first success, so only dead ends are ever looked up
    @partial(_iterative, key=lambda state: state)
    def search(state):
        if not state & (state - 1):
            return [] if order[state.bit_length() - 1].bit_count() == 1 else None
        rest = state
        while rest:
            free = rest & -rest
            rest ^= free
            up = cofaces[free.bit_length() - 1] & state
            if not up or up & (up - 1):
                continue
            tail = yield state ^ free ^ up
            if tail is not None:
                return [(free, up)] + tail
        return None

    # the search keeps its own stack: each collapse step is one level
    everything = (1 << len(order)) - 1
    result = search(everything)
    if result is None:
        return None

    def labels(bit):
        return frozenset(names[bit.bit_length() - 1])

    # the final vertex is whatever single face survives the collapses
    last = everything
    for free, up in result:
        last ^= free | up
    (final_vertex,) = labels(last)
    return CollapseSequence(
        tuple(CollapsePair(labels(a), labels(b)) for a, b in result), final_vertex
    )


def mobius(lattice):
    """Möbius value between bottom and top, by the standard recursion
    mu(p) = -sum of mu(q) over q < p, walked on positions along the bits
    (a linear extension, reversed on a dual).  The values are exact ints
    kept as signed bit planes: planes[b] is [pos, neg], the members with
    mu > 0 and mu < 0 whose |mu| has bit b, so p's down-set d sums to
    sum_b 2^b (popcount(d & pos) - popcount(d & neg)): O(B) whole-mask
    steps per member for B bits of the largest |mu|, with no cap."""
    bottom = lattice._bounds[0]
    down, members = lattice._down, lattice._mask & ~(1 << bottom)
    planes, mu = [[1 << bottom, 0]], 1  # the top comes last, or is the bottom
    for p in sorted(_bits(members), reverse=True) if lattice._rev else _bits(members):
        d, mu = down[p], 0
        for b, (pos, neg) in enumerate(planes):
            mu += ((d & neg).bit_count() - (d & pos).bit_count()) << b
        if mu:
            planes += [[0, 0] for _ in range(len(planes), abs(mu).bit_length())]
            for b in _bits(abs(mu)):
                planes[b][mu < 0] |= 1 << p
    return mu


def interior_euler(lattice):
    """Reduced Euler characteristic of the order complex of the interior,
    by listing its faces; P. Hall's theorem says it equals the Möbius
    value.  An empty interior has only the empty chain: -1."""
    if not lattice._interior_mask():
        return -1
    return order_complex(lattice.interior_set()).reduced_euler()


def find_noncomplemented_element(lattice):
    """First interior element with no complement, or None when all have one."""
    for x in lattice.interior():
        if not lattice.complements(x):
            return x
    return None
