"""Canonical forms and the format-"1" writer.

A design or cycle factorization has one canonical form: every cycle (of a
sun or on its own) rotated so its least vertex comes first and reflected so
its second vertex is the smaller of that vertex's two neighbours, pendants
moving with their positions; blocks sorted within each class, class order
kept; a removed matching sorted.  ``dumps_canonical`` writes a payload in
that form, as it stands, as format-"1" text: the join of the chunks of
``_chunks``, which ``sunurd build`` writes one by one for ``build``'s
result, never holding the document as one string.  ``dumps_document`` is
it applied to the canonical form, so equal inputs give identical bytes, and
``to_document`` is that text parsed back into dicts: the layout has one
home.
``FORMAT_VERSION`` lives in ``core``; the reader and ``Document`` live in
``serialization``, which this module does not import.  ``verify`` runs
neither the canonical forms nor this writer, so a process that only
verifies never loads this module.  A design is written without ``json``,
which is imported only to quote a ``source`` string or, in ``to_document``,
to parse the text, so a ``build`` loads neither the reader nor ``json``.

Each class is written by one ``%`` fill of a template: the text of its
blocks with ``"%s"`` in place of each vertex, filled with the class's ints
in order.  Every template, the text of one sun included, is made once per
shape of class in a document and dropped with it: nothing is cached for
the life of the process.  On CPython 3.11 (a 2-vCPU VM, median of five runs)
``dumps_canonical`` writes the ``(400,4,3,198)`` design, 9,900 suns, in
12 ms, and the ``(400,200,203,98)`` design in 16 ms.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .core import (
    BLOWN_CYCLE, COMPLETE, COMPLETE_MINUS_F, FORMAT_VERSION, ONE_FACTOR, SUN_FACTOR,
    CycleFactorization, Decomposition, HostGraph, ParallelClass, Sun, _sun_problem, _well_formed,
    edge, only_ints,
)


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


def _written_canonically(cycles) -> bool:
    # Whether each cycle, a sequence of distinct vertices, is written as
    # ``_canonical_order`` writes it: least vertex first, second vertex below
    # its last.
    return all(c[0] == min(c) and c[1] < c[-1] for c in cycles)


def _canonical_suns(suns) -> list[Sun]:
    # A class of suns whose rows are tuples of one length h >= 3 sharing no
    # vertex, each cycle written canonically, is canonical as a whole and
    # only sorted.  Otherwise each sun is canonicalized and kept when that
    # gives the same sun.
    rows = list(chain.from_iterable(suns))
    if not (
        set(map(len, suns)) == {2}
        and set(map(type, rows)) == {tuple}
        and _well_formed(rows, set(chain.from_iterable(rows)), len(rows[0]))
        and _written_canonically(rows[::2])
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


def _array(items: list[str], depth: int) -> str:
    """Indent-2 JSON array of pre-rendered items, its brackets at ``depth``."""
    if not items:
        return "[]"
    pad = "  " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _ints(values, depth: int) -> str:
    """Indent-2 JSON array of ints, its brackets at ``depth``."""
    return _array(list(map(str, values)), depth)


def _host_text(host: HostGraph) -> str:
    # ``host`` comes from a canonical form, so its matching is already sorted.
    if host.kind == COMPLETE:
        fields = f'"kind": "complete",\n    "v": {host.order}'
    elif host.kind == COMPLETE_MINUS_F:
        fields = (
            f'"kind": "complete_minus_f",\n    "v": {host.order},\n'
            f'    "matching": {_array([_ints(e, 3) for e in host.matching], 2)}'
        )
    elif host.kind == BLOWN_CYCLE:
        groups = host.groups
        n = len(groups[0]) if groups else 0
        fields = (
            f'"kind": "blown_cycle",\n    "m": {len(groups)},\n    "n": {n},\n'
            f'    "groups": {_array([_ints(g, 3) for g in groups], 2)}'
        )
    else:
        raise ValueError(f"unknown host kind {host.kind!r}")
    return "{\n    " + fields + "\n  }"


def _sun_text(h: int) -> str:
    # One sun of cycle length h, with "%s" in place of each vertex.
    ints = _ints(["%s"] * h, 5)
    return f'{{\n          "cycle": {ints},\n          "pendants": {ints}\n        }}'


def dumps_document(payload, h: int | None = None, source: str | None = None) -> str:
    """Canonical format-"1" JSON text (byte-stable across runs and platforms):
    ``dumps_canonical`` of the canonical form of ``payload``."""
    if isinstance(payload, Decomposition):
        # h is read from the first sun as given, before the suns are sorted.
        h = _sun_length(payload) if h is None else h
        payload = canonical_decomposition(payload)
    elif isinstance(payload, CycleFactorization):
        payload = canonical_factorization(payload)
    return dumps_canonical(payload, h, source)


def dumps_canonical(canon, h: int | None = None, source: str | None = None) -> str:
    """Format-"1" text of a payload already in canonical form, as it stands
    (unchecked): json's indent-2 rendering of the document, written directly
    here: two-space indent, one scalar per line, ``[]`` for an empty
    list, ASCII-escaped strings, fixed key order and a trailing newline.
    ``h`` is required for decompositions without sun classes (it cannot be
    inferred from pure matchings), and must be an int: ValueError otherwise.
    """
    return "".join(_chunks(canon, h, source))


def _chunks(canon, h: int | None = None, source: str | None = None) -> Iterator[str]:
    """``dumps_canonical``'s text in chunks: the document head, then each
    class's header and its filled body, then the tail.  Every check is made
    before the first chunk, so a caller that takes it has nothing left to
    fail on a well-formed payload.  A class's body is one ``%`` fill of a
    template made once per shape of class in the document: a one-factor
    class by its edge count, a sun or cycle class by its rows' lengths."""
    if isinstance(canon, CycleFactorization):
        h = canon.h
        # Seed records always carry their source, null included.
        tail = f',\n  "source": {_quoted(canon.source if source is None else source)}'
    elif isinstance(canon, Decomposition):
        h = _sun_length(canon) if h is None else h
        tail = "" if source is None else f',\n  "source": {_quoted(source)}'
    else:
        raise TypeError(f"cannot serialize {type(canon).__name__}")
    if not only_ints([h]):
        raise ValueError(f"h must be an int, not {h!r}")
    classes = canon.classes
    # FORMAT_VERSION holds no character that JSON escapes.
    yield (
        f'{{\n  "format_version": "{FORMAT_VERSION}",\n'
        f'  "host": {_host_text(canon.host)},\n'
        f'  "h": {h},\n'
        f'  "classes": {"[" if classes else "[]"}'
    )
    templates: dict = {}
    separator = "\n    "
    for cls in classes:
        if isinstance(canon, CycleFactorization):
            kind, blocks, rows = "cycle_factor", "cycles", cls
        elif cls.kind == ONE_FACTOR:
            kind, blocks, rows = "one_factor", "edges", cls.edges
        else:
            kind, blocks, rows = "sun_factor", "suns", list(chain.from_iterable(cls.suns))
        # Edges are pairs, so their count is the shape of a one-factor class.
        key = (kind, len(rows) if kind == "one_factor" else tuple(map(len, rows)))
        template = templates.get(key)
        if template is None:
            template = templates[key] = _template(*key)
        yield f'{separator}{{\n      "type": "{kind}",\n      "{blocks}": '
        yield template % tuple(chain.from_iterable(rows))
        separator = ",\n    "
    yield ("\n  ]" if classes else "") + tail + "\n}\n"


def _template(kind: str, shape) -> str:
    """The body of a class of ``kind`` and ``shape`` (edge count, or row
    lengths), with "%s" in place of each vertex, and the class's close."""
    if kind == "one_factor":
        items = [_ints(["%s", "%s"], 4)] * shape
    elif kind == "sun_factor":
        items = list(map(_sun_text, shape[::2]))
    else:
        items = [_ints(["%s"] * k, 4) for k in shape]
    return _array(items, 3) + "\n    }"


def _sun_length(dec: Decomposition) -> int:
    """The cycle length of the first sun of ``dec``; ValueError if it has none."""
    firsts = [cls.suns[0] for cls in dec.classes if cls.kind == SUN_FACTOR and cls.suns]
    if not firsts:
        raise ValueError("h is required to serialize a decomposition without suns")
    return len(firsts[0][0])


def _quoted(value) -> str:
    """``value`` as json writes it: a string ASCII-escaped and quoted, None as null."""
    import json

    return json.dumps(value)


def to_document(payload, h: int | None = None, source: str | None = None) -> dict:
    """Canonical document dict for a Decomposition or CycleFactorization:
    the parsed form of ``dumps_document``."""
    import json

    return json.loads(dumps_document(payload, h=h, source=source))
