"""The stabilizer chain that ``vorocell.perfect.automorphism_group``
replaced, kept as the tests' reference.

It runs one isometry search for every vector of value q_kk not yet in
the orbit of e_k, with no inner-product test before it, and reports
those searches as the ``aut`` counter ``searches``.  ``test_perfect``
and ``test_cli`` assert that the package's generators, their order and
|Aut| equal this code's on every class of n = 2..6, and that the
package's ``searches`` plus ``candidates_cut`` equal this code's
``searches``.
"""

from vorocell import obs
from vorocell.linalg import SymMatrix
from vorocell.perfect import (
    AutomorphismGroup,
    _apply,
    _candidate_pools,
    _first_isometry,
    _orbit,
)


def reference_automorphism_group(q: SymMatrix) -> AutomorphismGroup:
    n = q.n
    diagonal = [q.num[k][k] for k in range(n)]
    pools = _candidate_pools(q, max(diagonal))
    basis = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    fixed = [[(e, _apply(q.num, e))] for e in basis]
    generators = []
    order = 1
    searches = 0
    for k in range(n - 1, -1, -1):
        orbit = {basis[k]}
        for v, av in pools[diagonal[k]]:
            if v in orbit:
                continue
            searches += 1
            columns = fixed[:k] + [[(v, av)]] + [pools[t] for t in diagonal[k + 1:]]
            u, _nodes = _first_isometry(q, q, columns)
            if u is not None:
                generators.append(u)
                orbit = _orbit(basis[k], generators)
        order *= len(orbit)
    obs.add("aut", searches=searches, generators=len(generators))
    return AutomorphismGroup(generators=tuple(generators), order=order)
