"""A simplicial complex as a regular one, for the tests that need the
string-id cells of a loaded document."""

from vorocell.cells import RegularComplex, SimplicialComplex


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
