"""Report assembly: fixed key order, stable serialization, input digests.

`stable_json` writes exactly what `json.dumps(report, indent=2)` does, plus a
final newline. It is the one writer of report files. An indent makes the
`json` module fall back to its pure-Python encoder, so the writer lays out the
indentation itself and encodes each string with `json`'s C string encoder.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from . import __version__

__all__ = ["input_digest", "check_row", "build_report", "stable_json", "normalized"]


def input_digest(text: str) -> str:
    """Hex digest identifying the logical input of a run."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_row(name: str, lhs, rhs, status: str, witness: dict | None, notes: Iterable[str]) -> dict:
    """One entry of a report's `checks` list; sides render as polynomial text."""
    lhs_text = str(lhs)
    # Key order is part of the report contract; never sort these.
    return {
        "name": name,
        "lhs": lhs_text,
        # A passing row's sides are equal, so they print alike: format once.
        "rhs": lhs_text if rhs == lhs else str(rhs),
        "status": status,
        "witness": witness,
        "notes": list(notes),
    }


def build_report(
    digest: str,
    checks: Iterable[dict] = (),
    sods: Iterable[dict] = (),
    warnings: Iterable[str] = (),
) -> dict:
    # Key order is part of the report contract; never sort these.
    return {
        "version": __version__,
        "input_digest": digest,
        "checks": list(checks),
        "sods": list(sods),
        "warnings": list(warnings),
    }


def stable_json(report: dict) -> str:
    """The report as `json.dumps(report, indent=2)` writes it, plus a newline."""
    out: list[str] = []
    try:
        _write(report, "\n", out)
    except TypeError:  # a value `_write` does not lay out: `json` does, or refuses it
        return json.dumps(report, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


_ENCODE = json.encoder.encode_basestring_ascii  # the C encoder where CPython has it
# The text of each scalar class, as `json.dumps` writes it; a subclass is left to `json`.
_SCALARS = {
    str: _ENCODE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write(value, newline: str, out: list[str]) -> None:
    """Append the text of a dict or list; `newline` starts each of its later lines.
    Raises TypeError on a key that is not a str or a value of no class it knows."""
    inner = newline + "  "
    comma = "," + inner
    if value.__class__ is dict:
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            scalar = _SCALARS.get(item.__class__)
            if scalar is None:
                out.append(sep + _ENCODE(key) + ": ")
                _write(item, inner, out)
            else:
                out.append(sep + _ENCODE(key) + ": " + scalar(item))
            sep = comma
        out.append(newline + "}")
    elif value.__class__ is list:
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            scalar = _SCALARS.get(item.__class__)
            if scalar is None:
                out.append(sep)
                _write(item, inner, out)
            else:
                out.append(sep + scalar(item))
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"{value.__class__.__name__} is left to json")


def normalized(report: dict) -> dict:
    """The report with the version field cleared, for golden comparisons."""
    out = dict(report)
    out["version"] = ""
    return out
