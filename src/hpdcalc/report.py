"""Report assembly: fixed key order, stable serialization, input digests."""

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
    # Key order is part of the report contract; never sort these.
    return {
        "name": name,
        "lhs": str(lhs),
        "rhs": str(rhs),
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
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def normalized(report: dict) -> dict:
    """The report with the version field cleared, for golden comparisons."""
    out = dict(report)
    out["version"] = ""
    return out
