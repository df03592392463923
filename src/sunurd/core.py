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
from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple

Edge = tuple[int, int]

COMPLETE = "complete"
COMPLETE_MINUS_F = "complete_minus_f"
BLOWN_CYCLE = "blown_cycle"

ONE_FACTOR = "one_factor"
SUN_FACTOR = "sun_factor"

# The largest host order the certifiers accept: at 2048, building and verifying
# the pure-matching design peaks at 584 MB RSS (measurements in the README).
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
    return set(_cycle_edges([sun.cycle], [sun.pendants]))


def _cycle_edges(cycles: list, pendants: list = ()) -> list[Edge]:
    # The normalized edges of cycles of distinct vertices, so no edge is a
    # loop: each cycle vertex with the next on its cycle, then, when
    # ``pendants`` holds the pendant rows of suns, with its pendant.  Without
    # pendants the zip stops after the cycle edges.
    flat = list(chain.from_iterable(cycles))
    ends = chain(chain.from_iterable(c[1:] + c[:1] for c in cycles), chain.from_iterable(pendants))
    return [(u, w) if u < w else (w, u) for u, w in zip(chain(flat, flat), ends)]


def _well_formed(rows: list, flat: list, h) -> bool:
    """Whether the rows of a sun class, its suns' cycles and pendants, all
    have length h >= 3 and ``flat``, their vertices, holds no vertex twice:
    then every sun of the class is well formed."""
    return set(map(len, rows)) == {h} and h >= 3 and len(set(flat)) == len(flat)


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
    return sorted((vertices_at[i // n], vertices_at[i % n]) for i in compress(range(n * n), slots))


def _host_index(host: HostGraph) -> tuple[list[int], dict[int, int], bytearray]:
    """The host's vertices, their positions ``pos`` and its slots: byte
    ``pos[u] * n + pos[w]`` is 1 for each host edge (u, w), u < w.

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
            for u in g:
                for w in nxt:
                    slots[pos[min(u, w)] * n + pos[max(u, w)]] = 1
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


def _sun_vertices(suns) -> list[int] | None:
    # A Sun is the tuple of its two rows: the cycle and the pendants.
    if set(map(type, suns)) <= {Sun}:
        return _int_rows(list(chain.from_iterable(suns)))
    return None


# Per block finding kind: the name of a class's list of such blocks, the
# ``vertices_of`` of ``_gate`` and the text for a block of the wrong type.
_BLOCKS = {
    "malformed-edge": ("edges", _int_rows, "edge {} is not a pair of ints"),
    "malformed-sun": ("suns", _sun_vertices, "sun {} is not a Sun of int sequences"),
    "malformed-cycle": ("class", _int_rows, "cycle {} is not a sequence of ints"),
}


def _gate(blocks, kind: str, ci: int, findings: list[Finding]) -> tuple:
    """The type gate for the blocks of class ``ci``: (blocks kept, their
    vertices).  Blocks are checked one by one only when the whole list
    fails, and one of the wrong type is dropped with a ``kind`` finding."""
    what, vertices_of, problem = _BLOCKS[kind]
    if type(blocks) not in _SEQ:
        findings.append(Finding(ci, kind, f"{what} {_shown(blocks)} is not a sequence"))
        return (), []
    vertices = vertices_of(blocks)
    if vertices is None:
        ok = [vertices_of([b]) is not None for b in blocks]
        bad = [b for b, k in zip(blocks, ok) if not k]
        findings.extend(Finding(ci, kind, problem.format(_shown(b))) for b in bad)
        blocks = list(compress(blocks, ok))
        vertices = vertices_of(blocks)
    return blocks, vertices


def _certify(
    host: HostGraph,
    classes: Iterable[tuple[list[int], list[Edge]]],
    findings: list[Finding],
) -> VerificationReport:
    """Certification shared by verify() and validate_cycle_factorization().

    ``classes`` yields, per class, the int vertices its blocks touch and the
    normalized edges, among those vertices, of its well-formed blocks,
    appending block findings to ``findings``; it is consumed only after the
    host passes its gate.  One pass over the classes checks each class's
    vertex coverage and records each block edge (u, w) in a slot index: byte
    ``pos[u] * n + pos[w]`` of an n*n bytearray (pos[u] = u on a complete
    host) is set on first use.  A repeat use (keyed by its slot) and any use
    of a pair with an endpoint outside the host (keyed by the pair) go to a
    small Counter.  A design that partitions the host then costs one
    comparison with the host's own slots and an empty counter; only a
    failing one walks the rows that differ to name missing and foreign
    edges, and the counter to name duplicated ones.
    """
    try:
        vertices_at, pos, host_slots = _host_index(host)
    except ValueError as exc:
        return _rejected("malformed-host", str(exc))

    n = len(pos)
    used = bytearray(n * n)
    extra: Counter = Counter()
    for ci, (vertices, edges) in enumerate(classes):
        seen = set(vertices)
        if seen != pos.keys():
            for x in pos.keys() - seen:
                findings.append(Finding(ci, "vertex-missed", f"vertex {_shown(x)} not covered"))
            foreign = seen - pos.keys()
            for x in foreign:
                findings.append(Finding(ci, "foreign-vertex", f"vertex {_shown(x)} outside host"))
            if foreign:
                extra.update((u, w) for u, w in edges if u in foreign or w in foreign)
                edges = [(u, w) for u, w in edges if u in pos and w in pos]
        if host.kind == BLOWN_CYCLE:
            edges = [(pos[u], pos[w]) for u, w in edges]
        for a, b in edges:
            i = a * n + b
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
    findings: list[Finding] = []
    kinds = []

    def blocks() -> Iterator[tuple[list[int], list[Edge]]]:
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
                yield [], []
                continue
            one = kind == ONE_FACTOR
            other = suns if one else edges
            if type(other) not in _SEQ or other:
                detail = "one-factor class carries sun blocks"
                if not one:
                    detail = "sun-factor class carries edge blocks"
                findings.append(Finding(ci, "non-uniform-class", detail))
            if one:
                edges, vertices = _gate(edges, "malformed-edge", ci, findings)
                if not set(map(len, edges)) <= {2}:
                    findings.extend(
                        Finding(ci, "malformed-edge", f"edge {_shown(e)} is not a pair")
                        for e in edges
                        if len(e) != 2
                    )
                    edges = [e for e in edges if len(e) == 2]
                pairs = [(u, w) if u < w else (w, u) for u, w in edges if u != w]
                if len(pairs) < len(edges):
                    findings.extend(
                        Finding(ci, "malformed-edge", f"loop at vertex {_shown(u)}")
                        for u, w in edges
                        if u == w
                    )
                yield vertices, pairs
                continue
            suns, vertices = _gate(suns, "malformed-sun", ci, findings)
            # A well-formed class is checked as a whole; only one that is not
            # is walked sun by sun to name each fault.
            rows = list(chain.from_iterable(suns))
            h = len(rows[0]) if sun_h is None and rows else sun_h
            if _well_formed(rows, vertices, h):
                sun_h = h
                yield vertices, _cycle_edges(rows[::2], rows[1::2])
                continue
            kept = []
            for sun in suns:
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
            yield vertices, _cycle_edges([c for c, _ in kept], [p for _, p in kept])

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

    def blocks() -> Iterator[tuple[list[int], list[Edge]]]:
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
            cycles, vertices = _gate(cycles, "malformed-cycle", ci, findings)
            ok = []
            for cyc in cycles:
                if len(cyc) == h and len(set(cyc)) == h:
                    ok.append(cyc)
                    continue
                detail = f"cycle {_shown(cyc)} has length {len(cyc)}"
                if len(cyc) == h:
                    detail = f"repeated vertex in cycle {_shown(cyc)}"
                findings.append(Finding(ci, "malformed-cycle", detail))
            yield vertices, _cycle_edges(ok)

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


def canonical_decomposition(dec: Decomposition) -> Decomposition:
    """Canonical form: suns canonicalized, blocks sorted within each class.

    Class order is preserved (it is part of the construction's presentation);
    the result is the reference form for serialization and equality tests.
    Blocks already in canonical form are kept as they are, not rebuilt.
    """
    classes: list[ParallelClass] = []
    for cls in dec.classes:
        if cls.kind == ONE_FACTOR:
            edges = cls.edges
            if not all(u < w for u, w in edges):
                edges = [edge(u, w) for u, w in edges]
            classes.append(ParallelClass(ONE_FACTOR, edges=tuple(sorted(map(tuple, edges)))))
        elif cls.kind == SUN_FACTOR:
            classes.append(ParallelClass(SUN_FACTOR, suns=tuple(_canonical_suns(cls.suns))))
        else:
            raise ValueError(f"unknown class kind {cls.kind!r}")
    return Decomposition(_canonical_host(dec.host), tuple(classes))


def _canonical_suns(suns) -> list[Sun]:
    # A class of suns whose rows are tuples of one length h >= 3 sharing no
    # vertex, each cycle with its least vertex first and its second vertex
    # below its last, is canonical as a whole and only sorted.  Otherwise
    # each sun is canonicalized and kept when that gives the same sun.
    rows = list(chain.from_iterable(suns))
    if not (
        set(map(len, suns)) == {2}
        and set(map(type, rows)) == {tuple}
        and _well_formed(rows, list(chain.from_iterable(rows)), len(rows[0]))
        and all(min(c) == c[0] and c[1] < c[-1] for c in rows[::2])
    ):
        suns = [sun if sun == (canon := canonicalize_sun(*sun)) else canon for sun in suns]
    return sorted(suns)


def canonical_factorization(cf: CycleFactorization) -> CycleFactorization:
    """Canonical form: cycles canonicalized and sorted within each class."""
    classes = tuple(tuple(sorted(canonical_cycle(c) for c in cls)) for cls in cf.classes)
    return cf._replace(host=_canonical_host(cf.host), classes=classes)


def _canonical_host(host: HostGraph) -> HostGraph:
    if host.kind == COMPLETE_MINUS_F:
        return HostGraph.complete_minus_f(host.order, host.matching)
    return host
