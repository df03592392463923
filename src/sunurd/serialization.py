"""The reader of the format-"1" JSON documents: designs and
cycle-factorization seeds.

One schema covers both payload types: a host descriptor, the sun cycle
length h, and a list of classes typed ``one_factor``, ``sun_factor`` or
``cycle_factor`` (the last only in seed records).  ``writer`` writes it,
in canonical form; this module holds ``Document`` and the reader, which
with ``core`` is all that ``verify`` loads.  ``FORMAT_VERSION`` lives in
``core`` and is re-exported here.  ``build`` loads this module, and with
it ``json``, only to read a seed catalog (``--seed-dir``).

The reader checks the types of whole lists at once with ``core.only_ints``,
the certifiers' vertex rule: an integer is a value whose type is exactly
``int``, so JSON ``true`` (a ``bool``), ``1.0`` and ``"1"`` are all
rejected.  A document with one fault gets the message of that fault.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import NamedTuple

from .core import (
    FORMAT_VERSION,
    CycleFactorization,
    Decomposition,
    HostGraph,
    ONE_FACTOR,
    ParallelClass,
    SUN_FACTOR,
    Sun,
    only_ints,
)


class DocumentFormatError(ValueError):
    """The document cannot be interpreted (bad JSON, schema, or version)."""


class Document(NamedTuple):
    """A parsed interchange document: payload plus its declared h."""

    h: int
    payload: "Decomposition | CycleFactorization"
    source: str | None = None


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
            suns = tuple(map(tuple.__new__, repeat(Sun), zip(cycles, pendants)))
            classes.append(ParallelClass(SUN_FACTOR, suns=suns))
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
