"""Core types and both certifiers.

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
(u, w) is byte ``min(pos[u], pos[w]) * n + max(pos[u], pos[w])``, where
``pos`` numbers the vertices in ``host_vertices`` order (on a complete host
a vertex is its own position).  One bytearray holds the host's edges, one
the edges the blocks use, and a design partitions the host when the two are
equal and no edge was used twice or reaches outside the host.  The blocks
are read as they are written: no edge is copied into a normalized pair
first, each class's vertex set is made once, by the type gate, and a
class well formed as a whole is not walked block by block.

``FORMAT_VERSION``, the version of the document format, lives here, so the
writer, the reader (``serialization``, which re-exports it) and the
certifiers share one constant and a ``build`` that reads no seed catalog
never loads the reader or ``json``.  The canonical forms live in
``writer``, which only building and writing load.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress
from typing import Iterable, Iterator, NamedTuple

Edge = tuple[int, int]

FORMAT_VERSION = "1"

COMPLETE = "complete"
COMPLETE_MINUS_F = "complete_minus_f"
BLOWN_CYCLE = "blown_cycle"

ONE_FACTOR = "one_factor"
SUN_FACTOR = "sun_factor"

# The largest host order the certifiers accept: at 2048, verifying the
# pure-matching design peaks at 584 MB RSS and building it at 167 MB
# (measurements in the README).
MAX_ORDER = 2048

_SEQ = {tuple, list}


def only_ints(values: Iterable) -> bool:
    """Whether every value is a vertex: a value whose type is exactly ``int``,
    so ``bool``, ``float`` and ``str`` are not.  Documents hold only ints."""
    return set(map(type, values)) <= {int}


def _shown(value, write=repr) -> str:
    # write(value) for a finding, or a stand-in if value holds an int too long
    # for str() (sys.get_int_max_str_digits); the document reader rejects one.
    try:
        return write(value)
    except ValueError:
        inner = "" if type(value) is int else " holding an int"
        return f"<{type(value).__name__}{inner} too long to write>"


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge: smaller endpoint first."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


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


def sun_edges(sun: Sun) -> set[Edge]:
    """The 2h normalized edges of a valid sun."""
    return {(u, w) if u < w else (w, u) for u, w in _cycle_edges([sun.cycle], [sun.pendants])}


def _cycle_edges(cycles: list, pendants: list = ()) -> Iterator[Edge]:
    # The edges of cycles of distinct vertices, so no edge is a loop, as
    # pairs in the order they are met: each cycle vertex with its successor,
    # then, when ``pendants`` holds the pendant rows of suns, with its
    # pendant.  Without pendants the zip stops after the cycle edges.
    flat, succ = _successors(cycles)
    return zip(chain(flat, flat), chain(succ, chain.from_iterable(pendants)))


def _successors(cycles: list) -> tuple[list, list]:
    # The cycles' vertices in order and each one's successor: the vertices
    # shifted by one, each cycle's last slot wrapped to its first vertex.
    flat = list(chain.from_iterable(cycles))
    succ = flat[1:] + flat[:1]
    if flat and set(map(len, cycles)) == {h := len(cycles[0])}:
        succ[h - 1 :: h] = flat[::h]
    else:
        for end, c in zip(accumulate(map(len, cycles)), cycles):
            if c:
                succ[end - 1] = c[0]
    return flat, succ


def _well_formed(rows: list, seen: set, h) -> bool:
    """Whether the rows of a sun class, its suns' cycles and pendants, all
    have length h >= 3 and ``seen``, their vertex set, has one vertex per
    slot: then every sun of the class is well formed."""
    return set(map(len, rows)) == {h} and h >= 3 and len(seen) == len(rows) * h


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
    vertices_at, pos, slots = _host_index(host)
    n = len(pos)
    ends = [(vertices_at[i // n], vertices_at[i % n]) for i in compress(range(n * n), slots)]
    return sorted(edge(u, w) for u, w in ends)


def _host_index(host: HostGraph) -> tuple[list[int], dict[int, int], bytearray]:
    """The host's vertices, their positions ``pos`` and its slots: byte
    ``a * n + b`` is 1 for each host edge whose ends sit at positions a < b.

    The type gate for hosts: raises ValueError naming the fault unless
    ``host`` is a well-formed HostGraph of ints with at most MAX_ORDER
    vertices, before anything of size n*n is made."""
    if type(host) is not HostGraph:
        raise ValueError(f"host {_shown(host)} is not a HostGraph")
    kind, n, matching, groups = host
    if kind == BLOWN_CYCLE:
        if _int_rows(groups) is None:
            raise ValueError("blown cycle groups must be sequences of ints")
        if len(groups) < 3:
            raise ValueError("blown cycle needs at least three groups")
        if len(groups[0]) < 1 or len(set(map(len, groups))) > 1:
            raise ValueError("blown cycle groups must share one positive size")
        n = len(groups) * len(groups[0])
    elif kind not in (COMPLETE, COMPLETE_MINUS_F):
        raise ValueError(f"unknown host kind {_shown(kind)}")
    elif not only_ints([n]):
        raise ValueError(f"host order {_shown(n)} is not an int")
    elif kind == COMPLETE and n < 1:
        raise ValueError("complete host needs a positive order")
    elif kind == COMPLETE_MINUS_F and (n < 2 or n % 2):
        raise ValueError("complete-minus-F host needs a positive even order")
    if n > MAX_ORDER:
        raise ValueError(f"host order {_shown(n)} is above the cap of {MAX_ORDER} vertices")
    vertices_at = host_vertices(host)
    pos = {x: i for i, x in enumerate(vertices_at)}
    if len(pos) != n:
        raise ValueError("blown cycle groups must be disjoint")
    slots = bytearray(n * n)
    if kind == BLOWN_CYCLE:
        for g, nxt in zip(groups, (*groups[1:], groups[0])):
            for a in map(pos.__getitem__, g):
                for b in map(pos.__getitem__, nxt):
                    slots[a * n + b if a < b else b * n + a] = 1
        return vertices_at, pos, slots
    # Complete hosts are filled by row slices; a removed matching is cleared.
    ones = memoryview(b"\x01" * n)
    for u in range(n):
        slots[u * n + u + 1 : u * n + n] = ones[u + 1 :]
    if kind == COMPLETE_MINUS_F:
        flat = _int_rows(matching)
        if flat is None or set(map(len, matching)) != {2} or sorted(flat) != list(range(n)):
            raise ValueError("removed matching is not a perfect matching of the host")
        for u, w in matching:
            slots[min(u, w) * n + max(u, w)] = 0
    return vertices_at, pos, slots


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
    """Reasons a ``kind`` host on n vertices has no h-cycle factorization: n and
    h are ints, n at most MAX_ORDER, h >= 3 must divide n, n odd for K_n,
    even for K_n - F; then (n-1)//2 classes."""
    if not only_ints([n, h]):
        return [f"order {_shown(n)} and cycle length {_shown(h)} must be ints"]
    if n > MAX_ORDER:
        return [f"order {n} is above the cap of {MAX_ORDER} vertices"]
    problems = []
    if h < 3 or n % h:
        problems.append(f"cycle length {_shown(h)} must be >= 3 and divide {n}")
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


def _int_rows(rows) -> list[int] | None:
    """The ints in ``rows``, in order, when ``rows`` is a tuple or list of
    tuples or lists of ints; else None."""
    if type(rows) in _SEQ and set(map(type, rows)) <= _SEQ:
        flat = list(chain.from_iterable(rows))
        if only_ints(flat):
            return flat
    return None


def _sun_rows(suns) -> list | None:
    # A Sun is the tuple of its two rows: the cycle and the pendants.
    return list(chain.from_iterable(suns)) if set(map(type, suns)) <= {Sun} else None


# Per block finding kind: the name of a class's list of such blocks, the
# ``rows_of`` of ``_gate`` (``tuple`` keeps a tuple of edges or cycles as
# it is) and the text for a block of the wrong type.
_BLOCKS = {
    "malformed-edge": ("edges", tuple, "edge {} is not a pair of ints"),
    "malformed-sun": ("suns", _sun_rows, "sun {} is not a Sun of int sequences"),
    "malformed-cycle": ("class", tuple, "cycle {} is not a sequence of ints"),
}


def _gate(blocks, kind: str, ci: int, findings: list[Finding]) -> tuple:
    """The type gate for the blocks of class ``ci``: (rows of the blocks
    kept, their vertices, their vertex set).  Blocks are checked one by one
    only when the list fails, and one of the wrong type is dropped with a
    finding."""
    what, rows_of, problem = _BLOCKS[kind]
    if type(blocks) not in _SEQ:
        findings.append(Finding(ci, kind, f"{what} {_shown(blocks)} is not a sequence"))
        return (), [], set()
    rows = rows_of(blocks)
    vertices = _int_rows(rows)
    if vertices is None:
        ok = [_int_rows(rows_of([b])) is not None for b in blocks]
        bad = [b for b, k in zip(blocks, ok) if not k]
        findings.extend(Finding(ci, kind, problem.format(_shown(b))) for b in bad)
        rows = rows_of(list(compress(blocks, ok)))
        vertices = _int_rows(rows)
    return rows, vertices, set(vertices)


def _certify(
    host: HostGraph,
    classes: Iterable[tuple[list[int], set[int], Iterable[Edge]]],
    findings: list[Finding],
) -> VerificationReport:
    """Certification shared by verify() and validate_cycle_factorization().

    ``classes`` yields, per class, the int vertices its blocks touch, their
    set (the one ``_gate`` made) and the edges, among those vertices, of its
    well-formed blocks as pairs (u, w) in either order and never loops,
    appending block findings to ``findings``; it is consumed only after the
    host passes its gate.  One pass over the classes compares each class's
    set with the host's, made once, and records each block edge in a slot
    index: with a = pos[u] and b = pos[w] (pos[u] = u on a complete host),
    byte ``min(a, b) * n + max(a, b)`` of an n*n bytearray is set on first
    use.  A repeat use (keyed by its slot) and any
    use of a pair with an endpoint outside the host (keyed by the pair,
    smaller endpoint first) go to a small Counter.  A design that partitions
    the host then costs one comparison with the host's own slots and an
    empty counter; only a failing one walks the rows that differ to name
    missing and foreign edges, and the counter to name duplicated ones.
    """
    try:
        vertices_at, pos, host_slots = _host_index(host)
    except ValueError as exc:
        return _rejected("malformed-host", str(exc))

    n = len(pos)
    everyone = set(vertices_at)
    used = bytearray(n * n)
    extra: Counter = Counter()
    for ci, (vertices, seen, pairs) in enumerate(classes):
        if seen != everyone:
            for x in everyone - seen:
                findings.append(Finding(ci, "vertex-missed", f"vertex {_shown(x)} not covered"))
            foreign = seen - everyone
            for x in foreign:
                findings.append(Finding(ci, "foreign-vertex", f"vertex {_shown(x)} outside host"))
            if foreign:
                pairs = list(pairs)
                extra.update(edge(u, w) for u, w in pairs if u in foreign or w in foreign)
                pairs = [(u, w) for u, w in pairs if u in pos and w in pos]
        if host.kind == BLOWN_CYCLE:
            pairs = [(pos[u], pos[w]) for u, w in pairs]
        for a, b in pairs:
            i = a * n + b if a < b else b * n + a
            if used[i]:
                extra[i] += 1
            else:
                used[i] = 1
        if len(seen) == len(vertices):
            continue
        for x, k in Counter(vertices).items():
            if k > 1 and x in pos:
                detail = f"vertex {_shown(x)} covered {k} times"
                findings.append(Finding(ci, "vertex-repeated", detail))

    if used != host_slots:
        for a in range(n):
            lo = a * n
            if used[lo : lo + n] == host_slots[lo : lo + n]:
                continue
            for i in range(lo, lo + n):
                if used[i] == host_slots[i]:
                    continue
                e = _shown(edge(vertices_at[a], vertices_at[i - lo]))
                if used[i]:
                    g = 1 + extra.pop(i, 0)
                    findings.append(Finding(-1, "foreign-edge", f"edge {e} not in host (used {g}x)"))
                else:
                    findings.append(Finding(-1, "missing-edge", f"edge {e} never covered"))
    for key, g in extra.items():
        if type(key) is int:
            e = _shown(edge(vertices_at[key // n], vertices_at[key % n]))
            findings.append(Finding(-1, "duplicated-edge", f"edge {e} covered {g + 1} times"))
        else:
            e = _shown(key)
            findings.append(Finding(-1, "foreign-edge", f"edge {e} not in host (used {g}x)"))

    findings.sort()
    return VerificationReport(not findings, 0, 0, tuple(findings))


def _rejected(kind: str, detail: str) -> VerificationReport:
    return VerificationReport(False, 0, 0, (Finding(-1, kind, detail),))


def verify(dec: Decomposition, expected_h: int | None = None) -> VerificationReport:
    """Certify a claimed decomposition; all defects are reported, never raised.

    Passes iff (i) the block edges partition the host edge set exactly,
    (ii) every class covers every host vertex exactly once, (iii) every class
    is uniform, and (iv) all sun blocks are valid suns of one common cycle
    length (``expected_h`` when given, otherwise inferred from the first sun).
    The report carries the counts of one-factor and sun-factor classes and a
    deterministic list of findings (class index, then lexicographic).  A
    block of the wrong type is reported and covers nothing.
    """
    if type(dec) is not Decomposition:
        return _rejected("malformed-host", f"{_shown(dec)} is not a Decomposition")
    if expected_h is not None and not only_ints([expected_h]):
        detail = f"expected cycle length {_shown(expected_h)} is not an int"
        return _rejected("bad-parameters", detail)
    findings: list[Finding] = []
    kinds = []

    def blocks() -> Iterator[tuple[list[int], set[int], Iterable[Edge]]]:
        sun_h = expected_h
        classes = dec.classes
        if type(classes) not in _SEQ:
            detail = f"classes {_shown(classes)} is not a sequence"
            findings.append(Finding(-1, "non-uniform-class", detail))
            classes = ()
        for ci, cls in enumerate(classes):
            kind, edges, suns = cls if type(cls) is ParallelClass else (None, (), ())
            kinds.append(kind)
            if kind not in (ONE_FACTOR, SUN_FACTOR):
                detail = f"unknown class kind {_shown(kind)}"
                if type(cls) is not ParallelClass:
                    detail = f"{_shown(cls)} is not a parallel class"
                findings.append(Finding(ci, "non-uniform-class", detail))
                yield [], set(), []
                continue
            one = kind == ONE_FACTOR
            other = suns if one else edges
            if type(other) not in _SEQ or other:
                detail = "one-factor class carries sun blocks"
                if not one:
                    detail = "sun-factor class carries edge blocks"
                findings.append(Finding(ci, "non-uniform-class", detail))
            if one:
                edges, vertices, seen = _gate(edges, "malformed-edge", ci, findings)
                # A loop repeats its vertex, so only a class with a repeated
                # vertex or a block of another length is walked edge by edge.
                if len(seen) < len(vertices) or not set(map(len, edges)) <= {2}:
                    for e in edges:
                        if len(e) != 2 or e[0] == e[1]:
                            detail = f"edge {_shown(e)} is not a pair"
                            if len(e) == 2:
                                detail = f"loop at vertex {_shown(e[0])}"
                            findings.append(Finding(ci, "malformed-edge", detail))
                    edges = [e for e in edges if len(e) == 2 and e[0] != e[1]]
                yield vertices, seen, edges
                continue
            rows, vertices, seen = _gate(suns, "malformed-sun", ci, findings)
            # A well-formed class is checked as a whole; only one that is not
            # is walked sun by sun to name each fault.
            h = len(rows[0]) if sun_h is None and rows else sun_h
            if _well_formed(rows, seen, h):
                sun_h = h
                yield vertices, seen, _cycle_edges(rows[::2], rows[1::2])
                continue
            kept = []
            for sun in map(Sun, rows[::2], rows[1::2]):
                problem = _sun_problem(*sun)
                if problem is not None:
                    detail = f"sun {_shown(sun, str)}: {problem}"
                    findings.append(Finding(ci, "malformed-sun", detail))
                    continue
                h = len(sun.cycle)
                if sun_h is None:
                    sun_h = h
                elif h != sun_h:
                    shown = _shown(sun, str)
                    detail = f"sun {shown} has cycle length {h}, expected {_shown(sun_h, str)}"
                    findings.append(Finding(ci, "non-uniform-class", detail))
                kept.append(sun)
            yield vertices, seen, _cycle_edges([c for c, _ in kept], [p for _, p in kept])

    # The kinds are recorded as the classes are read, since a class without
    # a kind makes dec.r and dec.s raise.
    report = _certify(dec.host, blocks(), findings)
    return report._replace(r=kinds.count(ONE_FACTOR), s=kinds.count(SUN_FACTOR))


def validate_cycle_factorization(cf: CycleFactorization) -> VerificationReport:
    """Certify a claimed cycle factorization; defects become findings."""
    if type(cf) is not CycleFactorization:
        return _rejected("malformed-host", f"{_shown(cf)} is not a CycleFactorization")
    host, h, classes, _ = cf
    if type(host) is HostGraph and host.kind not in (COMPLETE, COMPLETE_MINUS_F):
        return _rejected("malformed-host", f"unsupported host kind {_shown(host.kind)}")
    if not only_ints([h]):
        return _rejected("bad-parameters", f"cycle length {_shown(h)} is not an int")
    findings: list[Finding] = []

    def blocks() -> Iterator[tuple[list[int], set[int], Iterable[Edge]]]:
        # Read only once the host has passed the gate, so its order is an int.
        n = host.order
        findings.extend(
            Finding(-1, "bad-parameters", problem)
            for problem in factorization_shape_problems(host.kind, n, h)
        )
        seq = classes if type(classes) in _SEQ else ()
        if seq is not classes:
            detail = f"classes {_shown(classes)} is not a sequence"
            findings.append(Finding(-1, "wrong-class-count", detail))
        expected = (n - 1) // 2
        if len(seq) != expected:
            detail = f"{len(seq)} classes, expected {expected}"
            findings.append(Finding(-1, "wrong-class-count", detail))
        for ci, cycles in enumerate(seq):
            cycles, vertices, seen = _gate(cycles, "malformed-cycle", ci, findings)
            # A class of h-cycles with no vertex twice is checked as a whole;
            # only one that is not is walked cycle by cycle to name each fault.
            if len(seen) < len(vertices) or not set(map(len, cycles)) <= {h}:
                for cyc in cycles:
                    if len(cyc) != h or len(set(cyc)) < h:
                        detail = f"cycle {_shown(cyc)} has length {len(cyc)}"
                        if len(cyc) == h:
                            detail = f"repeated vertex in cycle {_shown(cyc)}"
                        findings.append(Finding(ci, "malformed-cycle", detail))
                cycles = [cyc for cyc in cycles if len(cyc) == len(set(cyc)) == h]
            yield vertices, seen, _cycle_edges(cycles)

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
    suns = chain.from_iterable(cls.suns for cls in dec.classes if cls.kind == SUN_FACTOR)
    rows = list(chain.from_iterable(suns))
    on_cycle = Counter(chain.from_iterable(rows[::2]))
    pendant = Counter(chain.from_iterable(rows[1::2]))
    return {x: (on_cycle[x], pendant[x]) for x in host_vertices(dec.host)}
