"""The double description that ``vorocell.perfect.facets_of_cone``
replaced, kept as the tests' reference.

It makes the same generators from the same pairs, and reports the same
``dd`` counters, but reads a mask's set bits by peeling the lowest one,
takes a vector's content with a gcd loop, and builds the per-row
``holders`` table one set bit at a time.  ``test_perfect`` asserts
that the package's facets (normal, support, mask and order) and
counters equal this code's on every class cone of n = 2..5, on D6 and
on random degenerate ray sets.
"""

from math import gcd
from operator import mul
from typing import Optional, Sequence

from vorocell import obs
from vorocell.linalg import _eliminate
from vorocell.perfect import Facet


def _reduce_content(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in vec)


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def reference_facets_of_cone(halfspaces: Sequence[Sequence[int]]) -> list[Facet]:
    """All facets of cone(rays), by double description of the dual cone.

    The rays m m^T are given by their integer value rows h_i
    (:func:`_value_row`).  The extreme rays of {y : h_i . y >= 0 for
    all i} are exactly the inward facet normals of the primal cone.
    They are built up one halfspace at a time, in index order, from a
    simplicial start.  Requires the rays to span (a full-dimensional
    cone).

    The start is one elimination of [H^T | I], H the matrix of the
    rows h_i.  Its pivot columns are the first ``dim`` independent
    halfspaces, and its row r reads [E_r H^T | E_r] for the row
    operations E, so E_r pairs to zero with every chosen halfspace but
    its own pivot.  Made primitive and positive there, the E_r are the
    start generators.

    Tight sets are ``int`` masks, bit i set when h_i is processed and
    h_i . g == 0; they are built, never recomputed:

    * a start generator is tight on every chosen halfspace but its own;
    * processing h_i sets bit i on the kept generators with h_i . g == 0;
    * a new generator g = vp gm - vm gp, from gp with vp = h_i . gp > 0
      and gm with vm = h_i . gm < 0, has the mask ``common | bit`` for
      common = mask(gp) & mask(gm): both coefficients vp and -vm are
      positive, so on a processed h_j, vp (h_j . gm) - vm (h_j . gp) is
      a sum of two terms >= 0 that vanishes exactly when both do, and
      on h_i it is vp vm - vm vp = 0.

    Only adjacent pairs are combined.  Two extreme rays of the pointed
    intermediate cone are adjacent exactly when no third generator's
    mask contains ``common`` (the combinatorial test, Fukuda–Prodon
    1996).  Adjacent rays span a 2-face, so their common tight rows
    have rank dim - 2 and ``common`` at least dim - 2 bits; a pair
    with fewer is dropped before the test.  The test itself ANDs, over
    the bits of ``common``, the masks over generator indices of the
    generators tight on each row, and passes when only gp and gm are
    left.  The facet normals are the final generators and their
    supports the bits of the final masks.
    """
    if not halfspaces:
        raise ValueError("need at least one ray")
    dim = len(halfspaces[0])
    count = len(halfspaces)
    reduced, pivots = _eliminate(
        list(col) + [int(r == j) for j in range(dim)]
        for r, col in enumerate(zip(*halfspaces))
    )
    if pivots[-1] >= count:  # a pivot in I: the rows do not span
        raise ValueError("ray set is not full-dimensional")
    generators = [
        _reduce_content(row[count:] if row[i] > 0 else [-x for x in row[count:]])
        for row, i in zip(reduced, pivots)
    ]
    start = 0
    for i in pivots:
        start |= 1 << i
    tight = [start ^ (1 << i) for i in pivots]

    pairs = survivors = made = 0
    peak = dim
    for idx, h in enumerate(halfspaces):
        bit = 1 << idx
        if start & bit:
            continue
        vals = [sum(map(mul, h, g)) for g in generators]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        kept_gens = [g for g, v in zip(generators, vals) if v >= 0]
        kept_tight = [t | bit if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        pairs += len(pos) * len(neg)
        # per halfspace, the mask of the generators tight on it; built for
        # the first pair that passes the popcount prefilter
        holders: Optional[list[int]] = None
        everyone = (1 << len(tight)) - 1
        for kp in pos:
            gp, tp, vp = generators[kp], tight[kp], vals[kp]
            for km in neg:
                common = tp & tight[km]
                if common.bit_count() < dim - 2:
                    continue
                survivors += 1
                if holders is None:
                    holders = [0] * count
                    for k, t in enumerate(tight):
                        for i in _bit_indices(t):
                            holders[i] |= 1 << k
                containing = everyone
                for i in _bit_indices(common):
                    containing &= holders[i]
                if containing == (1 << kp) | (1 << km):
                    vm = vals[km]
                    combo = [vp * a - vm * b for a, b in zip(generators[km], gp)]
                    kept_gens.append(_reduce_content(combo))
                    kept_tight.append(common | bit)
                    made += 1
        generators, tight = kept_gens, kept_tight
        peak = max(peak, len(generators))
    facets = sorted(
        (
            Facet(normal=g, ray_support=tuple(_bit_indices(t)), mask=t)
            for g, t in zip(generators, tight)
        ),
        key=lambda f: f.ray_support,
    )
    obs.add(
        "dd",
        cones=1,
        facets=len(facets),
        pairs=pairs,
        pairs_cut_popcount=pairs - survivors,
        pairs_cut_adjacency=survivors - made,
    )
    obs.peak("dd", peak_generators=peak)
    return facets
