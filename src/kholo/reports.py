"""Structured report documents.

Every CLI subcommand emits one JSON document with a ``schema_version`` field.
One field-driven codec converts every report dataclass: ``report_to_doc``
walks the fields in declaration order, so serialized output is stable and
diff-friendly, and ``report_from_doc`` reads the fields' type hints to
rebuild the report losslessly.  A ``SparsePoly`` becomes a poly document, a
``GaussianRational`` or ``Fraction`` its canonical string, a tuple or list a
list.

The simplicial complex document is the ``route`` input format rather than a
report, so it has its own hand-written pair.
"""

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import get_args, get_origin, get_type_hints

from kholo.errors import InvalidComplex
from kholo.exprio import format_gaussian, parse_gaussian, parse_poly, print_poly
from kholo.polynomials import SparsePoly, VarSpace
from kholo.rationals import GaussianRational
from kholo.simplicial import SimplicialComplex, Subcomplex

SCHEMA_VERSION = 1
TOOL_NAME = "kholo"


def document(command, inputs, result, exit_code):
    from kholo import __version__
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "inputs": inputs,
        "exit_code": exit_code,
        "result": result,
    }


def dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


# -- the codec --------------------------------------------------------------------

def poly_to_doc(p):
    return {"space": {"names": list(p.space.names), "n": p.space.n}, "text": print_poly(p)}


def poly_from_doc(doc):
    space = doc["space"]
    return parse_poly(doc["text"], VarSpace(space["names"], space["n"]))


def report_to_doc(value):
    """A report dataclass, or any of its field values, as plain JSON data."""
    if is_dataclass(value):
        return {f.name: report_to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, SparsePoly):
        return poly_to_doc(value)
    if isinstance(value, GaussianRational):
        return format_gaussian(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [report_to_doc(v) for v in value]
    return value


def report_from_doc(cls, doc):
    """Inverse of :func:`report_to_doc` for a report class or a field type hint."""
    origin = get_origin(cls)
    if origin in (tuple, list):
        item = get_args(cls)[0]
        return origin(report_from_doc(item, d) for d in doc)
    if is_dataclass(cls):
        hints = get_type_hints(cls)
        return cls(**{f.name: report_from_doc(hints[f.name], doc[f.name]) for f in fields(cls)})
    if cls is SparsePoly:
        return poly_from_doc(doc)
    if cls is GaussianRational:
        return parse_gaussian(doc)
    if cls is Fraction:
        return Fraction(doc)
    return doc


# -- simplicial input documents ---------------------------------------------------

_COMPLEX_KEYS = ("ambient_dim", "vertices", "top", "marked", "endpoints")


def complex_to_doc(complex_, sub):
    return {
        "ambient_dim": complex_.dim,
        "vertices": [[str(c) for c in v] for v in complex_.vertices],
        "top": [list(s) for s in complex_.top],
        "marked": [list(f) for f in sub.marked],
        "endpoints": [sub.start, sub.end],
    }


def _is_integer(value):
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _index_lists(doc, key):
    rows = doc[key]
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and all(map(_is_integer, r)) for r in rows)):
        raise InvalidComplex(f"{key!r} must be a list of lists of vertex indices")
    return [tuple(r) for r in rows]


def _coordinate(value):
    """A JSON integer, or a string Fraction reads as an integer, n/d or a decimal.

    A JSON float is refused, since it arrives already rounded to binary, and
    so is exponent notation, since "1e10000000" would build a ten-million
    digit integer before anything could refuse it.
    """
    if _is_integer(value):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidComplex(f"vertex coordinate {value!r} is a JSON number with a "
                             "fraction or exponent; write it as a string such as \"1/10\"")
    if isinstance(value, str):
        if "e" not in value and "E" not in value:
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        elif value.lower().lstrip(" +-.0123456789").startswith("e"):
            raise InvalidComplex(f"vertex coordinate {value!r} uses exponent notation")
    raise InvalidComplex(f"vertex coordinate {value!r} is not a rational number")


def complex_from_doc(doc):
    """Inverse of :func:`complex_to_doc`; a malformed document raises InvalidComplex."""
    if not isinstance(doc, dict) or any(key not in doc for key in _COMPLEX_KEYS):
        raise InvalidComplex("a complex document is an object with the keys "
                             + ", ".join(_COMPLEX_KEYS))
    if not _is_integer(doc["ambient_dim"]):
        raise InvalidComplex("'ambient_dim' must be an integer")
    vertices = doc["vertices"]
    if not (isinstance(vertices, list) and all(isinstance(v, list) for v in vertices)):
        raise InvalidComplex("'vertices' must be a list of coordinate lists")
    endpoints = doc["endpoints"]
    if not (isinstance(endpoints, list) and len(endpoints) == 2):
        raise InvalidComplex("'endpoints' must list exactly two vertices")
    complex_ = SimplicialComplex(
        dim=doc["ambient_dim"],
        vertices=[[_coordinate(c) for c in v] for v in vertices],
        top=_index_lists(doc, "top"),
    )
    sub = Subcomplex(complex_, _index_lists(doc, "marked"), *endpoints)
    return complex_, sub
