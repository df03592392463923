"""Bit-exact JSON interchange for designs and cycle-factorization seeds.

One schema covers both payload types: a host descriptor, the sun cycle
length h, and a list of classes typed ``one_factor``, ``sun_factor`` or
``cycle_factor`` (the last only in seed records).  Serialization is
canonical: blocks are sorted within classes, suns and cycles are written in
canonical form, field order is fixed, so equal inputs give identical bytes.
``dumps_document`` writes the format-"1" text itself; ``to_document`` is
that text parsed back into dicts, so the layout has one home.  Each class
is written by one ``%`` fill of a template: the text of its blocks with
``"%s"`` in place of each vertex, filled with the class's ints in order.
On CPython 3.11 this writes the 9,900 suns of the ``(400,4,3,198)`` design
in 11 ms instead of 27 ms with helper calls per sun.

The reader checks the types of whole lists at once with ``core.only_ints``,
the certifiers' vertex rule: an integer is a value whose type is exactly
``int``, so JSON ``true`` (a ``bool``), ``1.0`` and ``"1"`` are all
rejected.  A document with one fault gets the message of that fault.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from typing import NamedTuple

from .core import (
    BLOWN_CYCLE,
    COMPLETE,
    COMPLETE_MINUS_F,
    CycleFactorization,
    Decomposition,
    HostGraph,
    ONE_FACTOR,
    ParallelClass,
    SUN_FACTOR,
    Sun,
    canonical_decomposition,
    canonical_factorization,
    only_ints,
)

FORMAT_VERSION = "1"


class DocumentFormatError(ValueError):
    """The document cannot be interpreted (bad JSON, schema, or version)."""


class Document(NamedTuple):
    """A parsed interchange document: payload plus its declared h."""

    h: int
    payload: "Decomposition | CycleFactorization"
    source: str | None = None


def _array(items: list[str], depth: int) -> str:
    """Indent-2 JSON array of pre-rendered items, its brackets at ``depth``."""
    if not items:
        return "[]"
    pad = "  " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _ints(values, depth: int) -> str:
    """Indent-2 JSON array of ints, its brackets at ``depth``."""
    return _array(list(map(str, values)), depth)


def _pairs(pairs, depth: int) -> str:
    """Indent-2 JSON array of int pairs, its brackets at ``depth``: the text
    of ``_array`` over ``_ints`` of each pair, made by one fill of a template.
    It writes the 40,600 one-factor edges of the ``(400,200,203,98)`` design
    in 11 ms instead of 13 ms with one f-string per pair (CPython 3.11)."""
    item = _ints(["%s", "%s"], depth + 1)
    return _array([item] * len(pairs), depth) % tuple(chain.from_iterable(pairs))


def _host_text(host: HostGraph) -> str:
    # ``host`` comes from a canonical form, so its matching is already sorted.
    if host.kind == COMPLETE:
        fields = f'"kind": "complete",\n    "v": {host.order}'
    elif host.kind == COMPLETE_MINUS_F:
        fields = (
            f'"kind": "complete_minus_f",\n    "v": {host.order},\n'
            f'    "matching": {_pairs(host.matching, 2)}'
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


def _class_text(kind: str, key: str, blocks: str) -> str:
    return f'{{\n      "type": "{kind}",\n      "{key}": {blocks}\n    }}'


@cache
def _sun_text(h: int) -> str:
    # One sun of cycle length h, with "%s" in place of each vertex.
    ints = _ints(["%s"] * h, 5)
    return f'{{\n          "cycle": {ints},\n          "pendants": {ints}\n        }}'


def _suns(suns) -> str:
    """A canonical sun class: one fill of the template of its suns."""
    text = _array([_sun_text(len(cycle)) for cycle, _ in suns], 3)
    return text % tuple(chain.from_iterable(chain.from_iterable(suns)))


def dumps_document(payload, h: int | None = None, source: str | None = None) -> str:
    """Canonical format-"1" JSON text (byte-stable across runs and platforms).

    The text is json's indent-2 rendering of the document, written directly
    here: two-space indent, one scalar per line, ``[]`` for an empty
    list, ASCII-escaped strings, fixed key order and a trailing newline.
    ``h`` is required for decompositions without sun classes (it cannot be
    inferred from pure matchings), and must be an int: ValueError otherwise.
    """
    if isinstance(payload, CycleFactorization):
        canon = canonical_factorization(payload)
        h = payload.h
        classes = [
            _class_text("cycle_factor", "cycles", _array([_ints(c, 4) for c in cls], 3))
            for cls in canon.classes
        ]
        # Seed records always carry their source, null included.
        source = source if source is not None else payload.source
        tail = f',\n  "source": {json.dumps(source)}'
    elif isinstance(payload, Decomposition):
        if h is None:
            firsts = [cls.suns[0] for cls in payload.classes if cls.kind == SUN_FACTOR and cls.suns]
            h = len(firsts[0][0]) if firsts else None
        if h is None:
            raise ValueError("h is required to serialize a decomposition without suns")
        canon = canonical_decomposition(payload)
        classes = [
            _class_text("one_factor", "edges", _pairs(cls.edges, 3))
            if cls.kind == ONE_FACTOR
            else _class_text("sun_factor", "suns", _suns(cls.suns))
            for cls in canon.classes
        ]
        tail = "" if source is None else f',\n  "source": {json.dumps(source)}'
    else:
        raise TypeError(f"cannot serialize {type(payload).__name__}")
    if not only_ints([h]):
        raise ValueError(f"h must be an int, not {h!r}")
    return (
        f'{{\n  "format_version": {json.dumps(FORMAT_VERSION)},\n'
        f'  "host": {_host_text(canon.host)},\n'
        f'  "h": {h},\n'
        f'  "classes": {_array(classes, 1)}{tail}\n}}\n'
    )


def to_document(payload, h: int | None = None, source: str | None = None) -> dict:
    """Canonical document dict for a Decomposition or CycleFactorization:
    the parsed form of ``dumps_document``."""
    return json.loads(dumps_document(payload, h=h, source=source))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentFormatError(message)


def _int_rows(rows: list, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` (a list) as tuples, each checked to be a list of ints."""
    _require(set(map(type, rows)) <= {list}, f"{what} must be a list")
    _require(only_ints(chain.from_iterable(rows)), f"{what} must hold integers")
    return tuple(map(tuple, rows))


def _pair_list(value, what: str) -> tuple[tuple[int, int], ...]:
    _require(isinstance(value, list), f"{what} must be a list of pairs")
    pairs = _int_rows(value, f"{what} entry")
    _require(set(map(len, pairs)) <= {2}, f"{what} entries must be pairs")
    return pairs


def _host_from_doc(doc) -> HostGraph:
    _require(isinstance(doc, dict), "host must be an object")
    kind = doc.get("kind")
    if kind in ("complete", "complete_minus_f"):
        v = doc.get("v")
        _require(only_ints([v]), "host.v must be an integer")
        if kind == "complete":
            return HostGraph.complete(v)
        matching = _pair_list(doc.get("matching"), "host.matching")
        _require(all(u != w for u, w in matching), "host.matching entries must not be loops")
        return HostGraph.complete_minus_f(v, matching)
    if kind == "blown_cycle":
        groups = doc.get("groups")
        _require(isinstance(groups, list) and groups, "host.groups must be a nonempty list")
        return HostGraph.blown_cycle(_int_rows(groups, "host group"))
    raise DocumentFormatError(f"unknown host kind {kind!r}")


def from_document(doc) -> Document:
    _require(isinstance(doc, dict), "document must be a JSON object")
    version = doc.get("format_version")
    _require(
        version == FORMAT_VERSION,
        f"unsupported format_version {version!r} (expected {FORMAT_VERSION!r})",
    )
    host = _host_from_doc(doc.get("host"))
    h = doc.get("h")
    _require(only_ints([h]), "h must be an integer")
    raw_classes = doc.get("classes")
    _require(isinstance(raw_classes, list), "classes must be a list")
    source = doc.get("source")
    _require(
        source is None or isinstance(source, str), "source must be a string when present"
    )

    _require(all(isinstance(c, dict) for c in raw_classes), "each class must be an object")
    is_cycle = [c.get("type") == "cycle_factor" for c in raw_classes]
    if any(is_cycle):
        _require(all(is_cycle), "cycle_factor classes cannot mix with design classes")
        cycles = [c.get("cycles") for c in raw_classes]
        _require(set(map(type, cycles)) <= {list}, "cycle_factor.cycles must be a list")
        classes = tuple(_int_rows(cls, "cycle") for cls in cycles)
        payload = CycleFactorization(host, h, classes, source=source or "document")
        return Document(h=h, payload=payload, source=source)

    classes = []
    for c in raw_classes:
        ctype = c.get("type")
        if ctype == "one_factor":
            classes.append(ParallelClass(ONE_FACTOR, edges=_pair_list(c.get("edges"), "edges")))
        elif ctype == "sun_factor":
            suns_doc = c.get("suns")
            _require(isinstance(suns_doc, list), "suns must be a list")
            _require(set(map(type, suns_doc)) <= {dict}, "each sun must be an object")
            cycles = _int_rows([s.get("cycle") for s in suns_doc], "sun cycle")
            pendants = _int_rows([s.get("pendants") for s in suns_doc], "sun pendants")
            classes.append(ParallelClass(SUN_FACTOR, suns=tuple(map(Sun, cycles, pendants))))
        else:
            raise DocumentFormatError(f"unknown class type {ctype!r}")
    return Document(h=h, payload=Decomposition(host, tuple(classes)), source=source)


def loads_document(data: str | bytes) -> Document:
    """Parse a document from JSON text, or from bytes decoded strictly as UTF-8.

    Every failure to parse raises DocumentFormatError, including nesting
    deeper than the interpreter's recursion limit and integers longer than
    its integer-string limit.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise DocumentFormatError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentFormatError("JSON nested too deeply") from exc
    except ValueError as exc:
        raise DocumentFormatError(f"JSON value out of range: {exc}") from exc
    return from_document(doc)
