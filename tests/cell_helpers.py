"""A simplicial complex as a regular one, for the tests that need the
string-id cells of a loaded document; the check that holds a builder's
regular complex to the loader; and the set-and-sort face table with
hashed boundaries, the reference for ``SimplicialComplex.faces()`` and
``cells(d)``, which number both in one pass."""

from itertools import chain, combinations, repeat

from vorocell.cells import RegularComplex, SimplicialComplex


def reference_faces(sc: SimplicialComplex) -> dict[int, list[tuple[int, ...]]]:
    """Every face by dimension, each dimension the sorted set of the
    maximal faces of its size and the faces of the dimension above."""
    levels = []
    above: list[tuple[int, ...]] = []
    for k in range(sc.dim + 1, 0, -1):
        level = {f for f in sc.maximal_faces if len(f) == k}
        level.update(chain.from_iterable(map(combinations, above, repeat(k))))
        above = sorted(level)
        levels.append(above)
    return dict(enumerate(reversed(levels)))


def reference_cells(sc: SimplicialComplex, d: int) -> list[tuple[tuple[int, int], ...]]:
    """The d-simplices' signed faces, each face found by hashing it
    into an index of the dimension below: the face dropping the i-th
    vertex enters with sign (-1)^i."""
    faces = reference_faces(sc)
    if d == 0:
        return [()] * len(faces[0])
    index = {f: i for i, f in enumerate(faces[d - 1])}
    return [
        tuple((index[s[:i] + s[i + 1:]], (-1) ** i) for i in range(d + 1))
        for s in faces[d]
    ]


def to_regular(sc: SimplicialComplex) -> RegularComplex:
    """The same complex as signed cells, each named by its vertices
    joined by dots: ``sc.cells(d)`` renumbered into sorted-id order."""
    ids: list[list[str]] = []
    faces: list[list[tuple[tuple[int, int], ...]]] = []
    rank: list[int] = []  # faces() index -> sorted-id index, one dimension down
    for d, simplices in sorted(sc.faces().items()):
        # "1.10" sorts before "1.2", so the ids are not in simplex order
        names = [".".join(map(str, s)) for s in simplices]
        order = sorted(range(len(names)), key=names.__getitem__)
        cells = sc.cells(d)
        ids.append([names[j] for j in order])
        faces.append([tuple((rank[k], sign) for k, sign in cells[j]) for j in order])
        rank = sorted(range(len(order)), key=order.__getitem__)  # order's inverse
    return RegularComplex(ids, faces)


def assert_loads_back(cx: RegularComplex) -> None:
    """The loader, which checks every document, gives back the same
    cells.  A builder's unsorted ids, mismatched shapes, empty dimension
    or bad face index makes them differ, or fails ``to_json_dict``."""
    again = RegularComplex.from_json_dict(cx.to_json_dict())
    assert again.ids == cx.ids
    assert again.faces == cx.faces
