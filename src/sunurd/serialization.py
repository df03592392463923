"""Bit-exact JSON interchange for designs and cycle-factorization seeds.

One schema covers both payload types: a host descriptor, the sun cycle
length h, and a list of classes typed ``one_factor``, ``sun_factor`` or
``cycle_factor`` (the last only in seed records).  Serialization is
canonical: blocks are sorted within classes, suns and cycles are written in
canonical form, field order is fixed, so equal inputs give identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
)

FORMAT_VERSION = "1"


class DocumentFormatError(ValueError):
    """The document cannot be interpreted (bad JSON, schema, or version)."""


@dataclass(frozen=True)
class Document:
    """A parsed interchange document: payload plus its declared h."""

    h: int
    payload: "Decomposition | CycleFactorization"
    source: str | None = None


def _host_to_doc(host: HostGraph) -> dict:
    # ``host`` comes from a canonical form, so its matching is already sorted.
    if host.kind == COMPLETE:
        return {"kind": "complete", "v": host.order}
    if host.kind == COMPLETE_MINUS_F:
        return {
            "kind": "complete_minus_f",
            "v": host.order,
            "matching": [list(e) for e in host.matching],
        }
    if host.kind == BLOWN_CYCLE:
        return {
            "kind": "blown_cycle",
            "m": len(host.groups),
            "n": len(host.groups[0]) if host.groups else 0,
            "groups": [list(g) for g in host.groups],
        }
    raise ValueError(f"unknown host kind {host.kind!r}")


def to_document(payload, h: int | None = None, source: str | None = None) -> dict:
    """Canonical document dict for a Decomposition or CycleFactorization.

    ``h`` is required for decompositions without sun classes (it cannot be
    inferred from pure matchings).
    """
    if isinstance(payload, CycleFactorization):
        canon = canonical_factorization(payload)
        classes = [
            {"type": "cycle_factor", "cycles": [list(c) for c in cls]}
            for cls in canon.classes
        ]
        return {
            "format_version": FORMAT_VERSION,
            "host": _host_to_doc(canon.host),
            "h": payload.h,
            "classes": classes,
            "source": source if source is not None else payload.source,
        }

    if not isinstance(payload, Decomposition):
        raise TypeError(f"cannot serialize {type(payload).__name__}")
    if h is None:
        for cls in payload.classes:
            if cls.kind == SUN_FACTOR and cls.suns:
                h = len(cls.suns[0].cycle)
                break
    if h is None:
        raise ValueError("h is required to serialize a decomposition without suns")
    canon = canonical_decomposition(payload)
    classes = []
    for cls in canon.classes:
        if cls.kind == ONE_FACTOR:
            classes.append({"type": "one_factor", "edges": [list(e) for e in cls.edges]})
        else:
            classes.append(
                {
                    "type": "sun_factor",
                    "suns": [
                        {"cycle": list(s.cycle), "pendants": list(s.pendants)}
                        for s in cls.suns
                    ],
                }
            )
    doc = {
        "format_version": FORMAT_VERSION,
        "host": _host_to_doc(canon.host),
        "h": h,
        "classes": classes,
    }
    if source is not None:
        doc["source"] = source
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentFormatError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what: str) -> list[int]:
    _require(isinstance(value, list), f"{what} must be a list")
    _require(all(_is_int(x) for x in value), f"{what} must hold integers")
    return value


def _pair_list(value, what: str) -> list[tuple[int, int]]:
    _require(isinstance(value, list), f"{what} must be a list of pairs")
    out = []
    for item in value:
        pair = _int_list(item, f"{what} entry")
        _require(len(pair) == 2, f"{what} entries must be pairs")
        out.append((pair[0], pair[1]))
    return out


def _host_from_doc(doc) -> HostGraph:
    _require(isinstance(doc, dict), "host must be an object")
    kind = doc.get("kind")
    if kind in ("complete", "complete_minus_f"):
        v = doc.get("v")
        _require(_is_int(v), "host.v must be an integer")
        if kind == "complete":
            return HostGraph.complete(v)
        matching = _pair_list(doc.get("matching"), "host.matching")
        _require(all(u != w for u, w in matching), "host.matching entries must not be loops")
        return HostGraph.complete_minus_f(v, matching)
    if kind == "blown_cycle":
        groups = doc.get("groups")
        _require(isinstance(groups, list) and groups, "host.groups must be a nonempty list")
        return HostGraph.blown_cycle(_int_list(g, "host group") for g in groups)
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
    _require(_is_int(h), "h must be an integer")
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
        classes = []
        for c in raw_classes:
            cycles = c.get("cycles")
            _require(isinstance(cycles, list), "cycle_factor.cycles must be a list")
            classes.append(
                tuple(tuple(_int_list(cyc, "cycle")) for cyc in cycles)
            )
        payload = CycleFactorization(
            host, h, tuple(classes), source=source or "document"
        )
        return Document(h=h, payload=payload, source=source)

    classes = []
    for c in raw_classes:
        ctype = c.get("type")
        if ctype == "one_factor":
            classes.append(ParallelClass.one_factor(_pair_list(c.get("edges"), "edges")))
        elif ctype == "sun_factor":
            suns_doc = c.get("suns")
            _require(isinstance(suns_doc, list), "suns must be a list")
            suns = []
            for s in suns_doc:
                _require(isinstance(s, dict), "each sun must be an object")
                suns.append(
                    Sun(
                        tuple(_int_list(s.get("cycle"), "sun cycle")),
                        tuple(_int_list(s.get("pendants"), "sun pendants")),
                    )
                )
            classes.append(ParallelClass.sun_factor(suns))
        else:
            raise DocumentFormatError(f"unknown class type {ctype!r}")
    return Document(h=h, payload=Decomposition(host, tuple(classes)), source=source)


def dumps_document(payload, h: int | None = None, source: str | None = None) -> str:
    """Canonical JSON text (byte-stable across runs and platforms)."""
    return json.dumps(to_document(payload, h=h, source=source), indent=2) + "\n"


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
