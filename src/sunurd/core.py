"""Core types, both certifiers and the canonical forms.

The types are ``typing.NamedTuple`` records, like every public record of the
package: immutable tuples of their fields, copied with changes by ``_replace``.

A decomposition assigns every edge of a host graph to exactly one block and
groups the blocks into parallel classes, each covering every vertex of the
host exactly once.  Blocks are single edges (one-factor classes) or suns:
an h-cycle with one pendant edge hanging off each cycle vertex.

The certifiers ``verify`` and ``validate_cycle_factorization`` import no
builder: they check that the blocks use each host edge exactly once and no
other edge, so a design is certified without trusting the code that built
it.  Both mark edges in a slot index of n*n bytes, n the host order: edge
(u, w), u < w, is byte ``pos[u] * n + pos[w]``, where ``pos`` numbers the
vertices in ``host_vertices`` order.  One bytearray holds the host's edges,
one the edges the blocks use, and a design partitions the host when the two
are equal and no edge was used twice or reaches outside the host.  The
canonical forms serialization writes live here.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

Edge = tuple[int, int]

COMPLETE = "complete"
COMPLETE_MINUS_F = "complete_minus_f"
BLOWN_CYCLE = "blown_cycle"

ONE_FACTOR = "one_factor"
SUN_FACTOR = "sun_factor"


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge: smaller endpoint first."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


def _canonical_order(
    cycle: tuple[int, ...], pendants: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Rotate the minimum vertex to the front, then reflect if needed so the
    # second vertex is the smaller of its two neighbours; the pendants (empty
    # for a bare cycle) move with their positions.  All 2h dihedral writings
    # of one cycle share this representative.
    m = cycle.index(min(cycle))
    if m:
        cycle = cycle[m:] + cycle[:m]
        pendants = pendants[m:] + pendants[:m]
    if cycle[1] > cycle[-1]:
        cycle = cycle[:1] + cycle[:0:-1]
        pendants = pendants[:1] + pendants[:0:-1]
    return cycle, pendants


def canonical_cycle(vertices: Iterable[int]) -> tuple[int, ...]:
    """Canonical representative of a cycle under rotation and reflection."""
    seq = tuple(vertices)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least three vertices")
    if len(set(seq)) != len(seq):
        raise ValueError(f"repeated vertex in cycle {seq}")
    return _canonical_order(seq, ())[0]


class Sun(NamedTuple):
    """An h-cycle plus one pendant vertex per cycle position.

    ``pendants[i]`` hangs off ``cycle[i]``; the edge set is the h cycle edges
    together with the h pendant edges.  Rendered as ``(a1,..,ah; b1,..,bh)``.
    """

    cycle: tuple[int, ...]
    pendants: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.cycle)

    def __str__(self) -> str:
        return "({}; {})".format(
            ",".join(map(str, self.cycle)), ",".join(map(str, self.pendants))
        )


def canonicalize_sun(raw_cycle: Iterable[int], raw_pendants: Iterable[int]) -> Sun:
    """Canonical form of a sun; idempotent and dihedral-invariant.

    The cycle is rotated so its minimum vertex comes first and oriented so
    the second vertex is the smaller of the first vertex's two neighbours;
    pendants are permuted along with their cycle positions.
    """
    cycle = tuple(raw_cycle)
    pendants = tuple(raw_pendants)
    problem = _sun_problem(cycle, pendants)
    if problem is not None:
        raise ValueError(f"malformed sun ({cycle}; {pendants}): {problem}")
    return Sun(*_canonical_order(cycle, pendants))


def sun_edges(sun: Sun) -> set[Edge]:
    """The 2h normalized edges of a valid sun."""
    return set(_sun_edge_list(*sun))


def _sun_edge_list(cycle: tuple[int, ...], pendants: tuple[int, ...]) -> list[Edge]:
    # The 2h vertices are distinct (``_sun_problem``), so no edge is a loop.
    out = [(u, w) if u < w else (w, u) for u, w in zip(cycle, (*cycle[1:], cycle[0]))]
    out += [(u, w) if u < w else (w, u) for u, w in zip(cycle, pendants)]
    return out


def _sun_problem(cycle: tuple[int, ...], pendants: tuple[int, ...]) -> str | None:
    """Reason a sun (cycle, pendants) is malformed, or None if it is valid."""
    if len(cycle) < 3:
        return "cycle shorter than 3"
    if len(pendants) != len(cycle):
        return "pendant count differs from cycle length"
    if len({*cycle, *pendants}) != 2 * len(cycle):
        return "repeated vertex"
    return None


class HostGraph(NamedTuple):
    """Host graph descriptor: K_v, K_v minus a perfect matching, or a blown
    cycle (m groups of n vertices, consecutive groups completely joined)."""

    kind: str
    order: int
    matching: tuple[Edge, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def complete(v: int) -> "HostGraph":
        return HostGraph(COMPLETE, v)

    @staticmethod
    def complete_minus_f(v: int, matching: Iterable[Iterable[int]]) -> "HostGraph":
        pairs = tuple(sorted(edge(u, w) for u, w in matching))
        return HostGraph(COMPLETE_MINUS_F, v, matching=pairs)

    @staticmethod
    def blown_cycle(groups: Iterable[Iterable[int]]) -> "HostGraph":
        gs = tuple(tuple(g) for g in groups)
        order = sum(len(g) for g in gs)
        return HostGraph(BLOWN_CYCLE, order, groups=gs)


def host_vertices(host: HostGraph) -> list[int]:
    if host.kind == BLOWN_CYCLE:
        return [x for g in host.groups for x in g]
    return list(range(host.order))


def host_edges(host: HostGraph) -> list[Edge]:
    """The host edge set as a sorted list.

    Raises ValueError on a malformed descriptor (imperfect matching,
    overlapping or unevenly sized groups, fewer than three groups).
    """
    if host.kind in (COMPLETE, COMPLETE_MINUS_F):
        removed = set(_removed_matching(host))
        v = host.order
        return [
            (u, w)
            for u in range(v)
            for w in range(u + 1, v)
            if (u, w) not in removed
        ]
    if host.kind == BLOWN_CYCLE:
        groups = host.groups
        m = len(groups)
        if m < 3:
            raise ValueError("blown cycle needs at least three groups")
        n = len(groups[0])
        if n < 1 or any(len(g) != n for g in groups):
            raise ValueError("blown cycle groups must share one positive size")
        flat = [x for g in groups for x in g]
        if len(set(flat)) != len(flat):
            raise ValueError("blown cycle groups must be disjoint")
        out: list[Edge] = []
        for i in range(m):
            for u in groups[i]:
                for w in groups[(i + 1) % m]:
                    out.append(edge(u, w))
        return sorted(out)
    raise ValueError(f"unknown host kind {host.kind!r}")


def _removed_matching(host: HostGraph) -> list[Edge]:
    """The removed pairs of a complete or complete-minus-F host (none for
    K_v), after checking the order and that the matching is perfect."""
    v = host.order
    if host.kind == COMPLETE:
        if v < 1:
            raise ValueError("complete host needs a positive order")
        return []
    if v < 2 or v % 2:
        raise ValueError("complete-minus-F host needs a positive even order")
    pairs = [edge(u, w) for u, w in host.matching]
    touched = {x for e in pairs for x in e}
    if len(pairs) != v // 2 or len(touched) != v or any(x < 0 or x >= v for x in touched):
        raise ValueError("removed matching is not a perfect matching of the host")
    return pairs


def _host_slots(host: HostGraph, pos: dict) -> bytearray:
    """The host's edges in the slot index of ``_certify``: byte
    ``pos[u] * n + pos[w]`` is 1 for each host edge (u, w), u < w.

    Complete hosts are filled by row slices, then the removed matching is
    cleared; a blown cycle (only the small fill designs) is filled from
    ``host_edges``.  Raises like ``host_edges`` on a malformed descriptor.
    """
    n = len(pos)
    slots = bytearray(n * n)
    if host.kind in (COMPLETE, COMPLETE_MINUS_F):
        removed = _removed_matching(host)
        ones = memoryview(b"\x01" * n)
        for u in range(n):
            slots[u * n + u + 1 : u * n + n] = ones[u + 1 :]
        for u, w in removed:
            slots[pos[u] * n + pos[w]] = 0
    else:
        for u, w in host_edges(host):
            slots[pos[u] * n + pos[w]] = 1
    return slots


class ParallelClass(NamedTuple):
    """A uniform parallel class: either a perfect matching or a sun factor."""

    kind: str
    edges: tuple[Edge, ...] = ()
    suns: tuple[Sun, ...] = ()

    @staticmethod
    def one_factor(edges: Iterable[Iterable[int]]) -> "ParallelClass":
        return ParallelClass(ONE_FACTOR, edges=tuple(tuple(e) for e in edges))

    @staticmethod
    def sun_factor(suns: Iterable[Sun]) -> "ParallelClass":
        return ParallelClass(SUN_FACTOR, suns=tuple(suns))


class Decomposition(NamedTuple):
    """A host graph plus an ordered list of parallel classes."""

    host: HostGraph
    classes: tuple[ParallelClass, ...]

    @property
    def r(self) -> int:
        return sum(1 for c in self.classes if c.kind == ONE_FACTOR)

    @property
    def s(self) -> int:
        return sum(1 for c in self.classes if c.kind == SUN_FACTOR)


class CycleFactorization(NamedTuple):
    """Parallel classes of h-cycles covering the host edges exactly once.

    For a complete host of odd order n there are (n-1)/2 classes; for a
    complete-minus-F host of even order, (n-2)/2 classes plus the removed
    matching carried on the host.  ``source`` records where the object came
    from (construction name, catalog file, or search).
    """

    host: HostGraph
    h: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    source: str = "unspecified"

    @property
    def removed_matching(self) -> tuple[Edge, ...]:
        return self.host.matching


def factorization_shape_problems(kind: str, n: int, h: int) -> list[str]:
    """Reasons a ``kind`` host on n vertices has no h-cycle factorization: h >= 3
    must divide n, n odd for K_n, even for K_n - F; then (n-1)//2 classes."""
    problems = []
    if h < 3 or n % h:
        problems.append(f"cycle length {h} must be >= 3 and divide {n}")
    if kind == COMPLETE and n % 2 == 0:
        problems.append("complete host must have odd order")
    elif kind == COMPLETE_MINUS_F and n % 2:
        problems.append("complete-minus-F host must have even order")
    return problems


class Finding(NamedTuple):
    """One structured verification violation.

    ``class_index`` is -1 for decomposition-level findings (edge partition
    defects, malformed host); ordering gives the deterministic report order.
    """

    class_index: int
    kind: str
    detail: str

    def __str__(self) -> str:
        where = "decomposition" if self.class_index < 0 else f"class {self.class_index}"
        return f"{where}: {self.kind}: {self.detail}"


class VerificationReport(NamedTuple):
    passed: bool
    r: int
    s: int
    violations: tuple[Finding, ...]

    def brief(self) -> str:
        """The first three findings on one line, for an error message."""
        return "; ".join(str(f) for f in self.violations[:3])


def _certify(
    host: HostGraph,
    classes: Iterable[tuple[list[int], list[Edge]]],
    findings: list[Finding],
) -> VerificationReport:
    """Certification shared by verify() and validate_cycle_factorization().

    ``classes`` yields, per class, the vertices its blocks touch and the
    normalized edges of its well-formed blocks, appending block-shape
    findings to ``findings`` as it goes; it is consumed only after the host
    is checked.  One pass over the classes checks each class's vertex
    coverage and records each block edge (u, w) in a slot index: with the
    host vertices at positions ``pos``, byte ``pos[u] * n + pos[w]`` of an
    n*n bytearray is set on first use.  A repeat use (keyed by its slot) and
    any use of a pair with an endpoint outside the host (keyed by the pair)
    go to a small Counter.  A design that partitions the host then costs one
    comparison with the host's own slots and an empty counter; only a
    failing one walks the rows that differ to name missing and foreign
    edges, and the counter to name duplicated ones.
    """
    try:
        vertices_at = host_vertices(host)
        pos = {x: i for i, x in enumerate(vertices_at)}
        host_slots = _host_slots(host, pos)
    except ValueError as exc:
        return _malformed_host(str(exc))
    except TypeError:
        return _malformed_host("host vertices must be hashable and mutually comparable")

    n = len(pos)
    used = bytearray(n * n)
    extra: Counter = Counter()
    for ci, (vertices, edges) in enumerate(classes):
        for u, w in edges:
            try:
                i = pos[u] * n + pos[w]
            except (KeyError, TypeError):
                try:
                    extra[u, w] += 1
                except TypeError:
                    detail = f"edge {(u, w)} has endpoints that cannot be hashed"
                    findings.append(Finding(ci, "malformed-edge", detail))
                continue
            if used[i]:
                extra[i] += 1
            else:
                used[i] = 1
        try:
            seen = set(vertices)
        except TypeError:
            # Only blocks already reported as malformed carry such vertices.
            for x in vertices:
                if not _hashable(x):
                    findings.append(Finding(ci, "foreign-vertex", f"vertex {x} outside host"))
            vertices = list(filter(_hashable, vertices))
            seen = set(vertices)
        for x in pos.keys() - seen:
            findings.append(Finding(ci, "vertex-missed", f"vertex {x} not covered"))
        for x in seen - pos.keys():
            findings.append(Finding(ci, "foreign-vertex", f"vertex {x} outside host"))
        if len(seen) == len(vertices):
            continue
        for x, k in Counter(vertices).items():
            if k > 1 and x in pos:
                findings.append(Finding(ci, "vertex-repeated", f"vertex {x} covered {k} times"))

    if used != host_slots:
        for a in range(n):
            lo = a * n
            if used[lo : lo + n] == host_slots[lo : lo + n]:
                continue
            for i in range(lo, lo + n):
                if used[i] == host_slots[i]:
                    continue
                e = edge(vertices_at[a], vertices_at[i - lo])
                if used[i]:
                    g = 1 + extra.pop(i, 0)
                    findings.append(Finding(-1, "foreign-edge", f"edge {e} not in host (used {g}x)"))
                else:
                    findings.append(Finding(-1, "missing-edge", f"edge {e} never covered"))
    for key, g in extra.items():
        if type(key) is int:
            e = edge(vertices_at[key // n], vertices_at[key % n])
            findings.append(Finding(-1, "duplicated-edge", f"edge {e} covered {g + 1} times"))
        else:
            findings.append(Finding(-1, "foreign-edge", f"edge {key} not in host (used {g}x)"))

    findings.sort()
    return VerificationReport(not findings, 0, 0, tuple(findings))


def _malformed_host(detail: str) -> VerificationReport:
    return VerificationReport(False, 0, 0, (Finding(-1, "malformed-host", detail),))


def _items(container, ci: int, kind: str, what: str, findings: list[Finding]) -> tuple:
    """``container`` as a tuple, or no items and a finding if it is not iterable."""
    try:
        return tuple(container)
    except TypeError:
        findings.append(Finding(ci, kind, f"{what} {container!r} is not a sequence"))
        return ()


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def verify(dec: Decomposition, expected_h: int | None = None) -> VerificationReport:
    """Certify a claimed decomposition; all defects are reported, never raised.

    Passes iff (i) the block edges partition the host edge set exactly,
    (ii) every class covers every host vertex exactly once, (iii) every class
    is uniform, and (iv) all sun blocks are valid suns of one common cycle
    length (``expected_h`` when given, otherwise inferred from the first sun).
    The report carries the counts of one-factor and sun-factor classes and a
    deterministic list of findings (class index, then lexicographic).
    """
    findings: list[Finding] = []
    r = s = 0

    def blocks() -> Iterator[tuple[list[int], list[Edge]]]:
        nonlocal r, s
        sun_h = expected_h
        for ci, cls in enumerate(_items(dec.classes, -1, "non-uniform-class", "classes", findings)):
            vertices: list[int] = []
            edges: list[Edge] = []
            try:
                kind = cls.kind
            except AttributeError:
                detail = f"{cls!r} is not a parallel class"
                findings.append(Finding(ci, "non-uniform-class", detail))
                yield vertices, edges
                continue
            if kind == ONE_FACTOR:
                r += 1
                if cls.suns:
                    findings.append(
                        Finding(ci, "non-uniform-class", "one-factor class carries sun blocks")
                    )
                for e in _items(cls.edges, ci, "malformed-edge", "edges", findings):
                    try:
                        vertices += e
                        u, w = e
                    except (TypeError, ValueError):
                        findings.append(Finding(ci, "malformed-edge", f"edge {e} is not a pair"))
                        continue
                    if u == w:
                        findings.append(Finding(ci, "malformed-edge", f"loop at vertex {u}"))
                        continue
                    try:
                        edges.append((u, w) if u < w else (w, u))
                    except TypeError:
                        detail = f"edge {e} has endpoints that cannot be ordered"
                        findings.append(Finding(ci, "malformed-edge", detail))
            elif kind == SUN_FACTOR:
                s += 1
                if cls.edges:
                    findings.append(
                        Finding(ci, "non-uniform-class", "sun-factor class carries edge blocks")
                    )
                for sun in _items(cls.suns, ci, "malformed-sun", "suns", findings):
                    try:
                        cycle, pendants = sun.cycle, sun.pendants
                        vertices += cycle
                        vertices += pendants
                    except (AttributeError, TypeError):
                        detail = f"sun {sun!r}: cycle and pendants must be vertex sequences"
                        findings.append(Finding(ci, "malformed-sun", detail))
                        continue
                    try:
                        problem = _sun_problem(cycle, pendants)
                    except TypeError:
                        problem = "vertices cannot be hashed"
                    if problem is None:
                        try:
                            sun_edge_list = _sun_edge_list(cycle, pendants)
                        except TypeError:
                            problem = "vertices cannot be ordered"
                    if problem is not None:
                        findings.append(Finding(ci, "malformed-sun", f"sun {sun}: {problem}"))
                        continue
                    h = len(cycle)
                    if sun_h is None:
                        sun_h = h
                    elif h != sun_h:
                        detail = f"sun {sun} has cycle length {h}, expected {sun_h}"
                        findings.append(Finding(ci, "non-uniform-class", detail))
                    edges += sun_edge_list
            else:
                findings.append(
                    Finding(ci, "non-uniform-class", f"unknown class kind {kind!r}")
                )
            yield vertices, edges

    # r and s are counted as the classes are read, since a class without a
    # kind makes dec.r and dec.s raise.
    report = _certify(dec.host, blocks(), findings)
    return report._replace(r=r, s=s)


def validate_cycle_factorization(cf: CycleFactorization) -> VerificationReport:
    """Certify a claimed cycle factorization; defects become findings."""
    host = cf.host
    if host.kind not in (COMPLETE, COMPLETE_MINUS_F):
        return _malformed_host(f"unsupported host kind {host.kind!r}")

    n = host.order
    h = cf.h
    findings = [
        Finding(-1, "bad-parameters", problem)
        for problem in factorization_shape_problems(host.kind, n, h)
    ]
    classes = _items(cf.classes, -1, "wrong-class-count", "classes", findings)
    expected = (n - 1) // 2
    if len(classes) != expected:
        detail = f"{len(classes)} classes, expected {expected}"
        findings.append(Finding(-1, "wrong-class-count", detail))

    def blocks() -> Iterator[tuple[list[int], list[Edge]]]:
        for ci, cycles in enumerate(classes):
            vertices: list[int] = []
            edges: list[Edge] = []
            for cyc in _items(cycles, ci, "malformed-cycle", "class", findings):
                try:
                    vertices.extend(cyc)
                except TypeError:
                    detail = f"cycle {cyc} is not a sequence of vertices"
                    findings.append(Finding(ci, "malformed-cycle", detail))
                    continue
                if len(cyc) != h:
                    detail = f"cycle {cyc} has length {len(cyc)}"
                    findings.append(Finding(ci, "malformed-cycle", detail))
                    continue
                try:
                    repeated = len(set(cyc)) != h
                except TypeError:
                    detail = f"cycle {cyc} has vertices that cannot be hashed"
                    findings.append(Finding(ci, "malformed-cycle", detail))
                    continue
                if repeated:
                    detail = f"repeated vertex in cycle {cyc}"
                    findings.append(Finding(ci, "malformed-cycle", detail))
                    continue
                try:
                    edges += [edge(cyc[i - 1], cyc[i]) for i in range(h)]
                except TypeError:
                    detail = f"cycle {cyc} has vertices that cannot be ordered"
                    findings.append(Finding(ci, "malformed-cycle", detail))
            yield vertices, edges

    return _certify(host, blocks(), findings)


def vertex_profile(dec: Decomposition) -> dict[int, tuple[int, int]]:
    """Per-vertex (a, b): sun classes met with degree 3 resp. degree 1.

    A vertex has degree 3 in a sun class when it sits on a cycle and degree 1
    when it is a pendant, so a + b equals the number of sun classes.  Rejects
    decompositions that do not pass verify().
    """
    report = verify(dec)
    if not report.passed:
        raise ValueError("vertex_profile requires a decomposition that passes verify")
    profile = {x: [0, 0] for x in host_vertices(dec.host)}
    for cls in dec.classes:
        if cls.kind != SUN_FACTOR:
            continue
        for sun in cls.suns:
            for x in sun.cycle:
                profile[x][0] += 1
            for x in sun.pendants:
                profile[x][1] += 1
    return {x: (a, b) for x, (a, b) in profile.items()}


def canonical_decomposition(dec: Decomposition) -> Decomposition:
    """Canonical form: suns canonicalized, blocks sorted within each class.

    Class order is preserved (it is part of the construction's presentation);
    the result is the reference form for serialization and equality tests.
    """
    classes: list[ParallelClass] = []
    for cls in dec.classes:
        if cls.kind == ONE_FACTOR:
            edges = tuple(sorted(edge(u, w) for u, w in cls.edges))
            classes.append(ParallelClass(ONE_FACTOR, edges=edges))
        elif cls.kind == SUN_FACTOR:
            suns = sorted(_canonical_sun(s) for s in cls.suns)
            classes.append(ParallelClass.sun_factor(suns))
        else:
            raise ValueError(f"unknown class kind {cls.kind!r}")
    return Decomposition(_canonical_host(dec.host), tuple(classes))


def _canonical_sun(sun: Sun) -> Sun:
    # A sun already in canonical form is kept as it is, not rebuilt.
    cycle, pendants = sun
    if (
        type(cycle) is tuple
        and type(pendants) is tuple
        and _sun_problem(cycle, pendants) is None
        and cycle[0] == min(cycle)
        and cycle[1] < cycle[-1]
    ):
        return sun
    return canonicalize_sun(cycle, pendants)


def canonical_factorization(cf: CycleFactorization) -> CycleFactorization:
    """Canonical form: cycles canonicalized and sorted within each class."""
    classes = tuple(tuple(sorted(canonical_cycle(c) for c in cls)) for cls in cf.classes)
    return cf._replace(host=_canonical_host(cf.host), classes=classes)


def _canonical_host(host: HostGraph) -> HostGraph:
    if host.kind == COMPLETE_MINUS_F:
        return HostGraph.complete_minus_f(host.order, host.matching)
    return host
