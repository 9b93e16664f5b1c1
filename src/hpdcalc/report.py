"""Report assembly: fixed key order, stable serialization, input digests."""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from . import __version__
from .engine import SUBSET_READING_NOTE

__all__ = ["input_digest", "check_row", "build_report", "file_report", "stable_json", "normalized"]


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


def file_report(
    source: str, rows: list[dict], sods: Iterable[dict], workspace_warnings: Iterable[str]
) -> dict:
    """Report of one declaration file: its workspace warnings, then the subset
    reading note once if any check row carries it."""
    warnings = list(workspace_warnings)
    if any(SUBSET_READING_NOTE in row["notes"] for row in rows):
        warnings.append(SUBSET_READING_NOTE)
    return build_report(input_digest(source), rows, sods, warnings)


def stable_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def normalized(report: dict) -> dict:
    """The report with the version field cleared, for golden comparisons."""
    out = dict(report)
    out["version"] = ""
    return out
