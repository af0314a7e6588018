"""Checked reads of the JSON documents the system saves and loads back.

Perf records, profile artifacts and fuzz witnesses each have one
decoder, their ``from_dict``, which reads every field through
:class:`Fields`: present unless it has a default, and of the JSON type
its readers compute with, numbers being integers within 64 bits or
finite floats.  Anything else raises :class:`DocumentError`, and every
loader skips that document.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any, Callable


class DocumentError(ValueError, TypeError):
    """A saved document that cannot be decoded.  Also a ``TypeError``,
    what a document that is not an object raised before."""


def _checked(value: Any, kind: type, where: str) -> Any:
    """``value`` if it is a ``kind``; an ``int`` is also a ``float``."""
    if type(value) is int and kind in (int, float):
        ok = -2**63 <= value < 2**63
    elif type(value) is float and kind is float:
        ok = math.isfinite(value)
    else:
        ok = type(value) is kind
    if not ok:
        raise DocumentError(f"{where} must be {kind.__name__}, not "
                            f"{type(value).__name__}: {reprlib.repr(value)}")
    return value


class Fields:
    """Checked reads of one JSON object, named ``where`` in errors; each
    field in ``exact`` (a kind, a schema version) must hold that value."""

    def __init__(self, document: Any, where: str, **exact: Any) -> None:
        self.document = _checked(document, dict, where)
        self.where = where
        for key, value in exact.items():
            found = self.document.get(key)
            if type(found) is not type(value) or found != value:
                raise DocumentError(f"{where}.{key} is {reprlib.repr(found)}"
                                    f", expected {value!r}")

    def __call__(self, key: str, kind: type, default: Any = ...) -> Any:
        """Field ``key`` as ``kind``, required unless it has a ``default``
        (which a ``null`` also reads as when the default is ``None``)."""
        value = self.document.get(key, default)
        if value is ...:
            raise DocumentError(f"{self.where} is missing {key!r}")
        if value is default:  # absent, or a null the default allows
            return value
        return _checked(value, kind, f"{self.where}.{key}")

    def map(self, key: str, kind: type, default: Any = ..., *,
            keys: Callable[[str], Any] = str) -> dict:
        """Object field ``key``: names read by ``keys``, values ``kind``."""
        where = f"{self.where}.{key}"
        mapping = {}
        for name, value in self(key, dict, default).items():
            try:
                converted = keys(name)
            except ValueError:
                raise DocumentError(f"{where} has a bad key "
                                    f"{reprlib.repr(name)}") from None
            mapping[converted] = _checked(value, kind, f"{where}.{name}")
        return mapping

    def objects(self, key: str) -> list["Fields"]:
        """Array field ``key`` of objects, one :class:`Fields` each."""
        return [Fields(item, f"{self.where}.{key}[{index}]")
                for index, item in enumerate(self(key, list))]
