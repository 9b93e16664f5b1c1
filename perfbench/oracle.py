"""Independent answers for the benchmark: shares no code with hpdcalc.

Polynomials here are plain dicts from a sorted tuple of symbol names to a
nonzero integer coefficient. The benchmark uses them to write declaration
files, to read back the `lhs`/`rhs` strings of a report, and to evaluate both
at integer points. Expected values come from closed forms derived from the
definitions, never from hpdcalc's own functions.
"""

from __future__ import annotations

import json
import os
import re

Poly = dict  # {tuple[str, ...]: int}


def const(value: int) -> Poly:
    return {(): value} if value else {}


def sym(name: str) -> Poly:
    return {(name,): 1}


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for poly in polys:
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0) + coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


def scale(poly: Poly, factor: int) -> Poly:
    return {mono: coeff * factor for mono, coeff in poly.items()} if factor else {}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: coeff for mono, coeff in out.items() if coeff}


def symbols(poly: Poly) -> set[str]:
    return {name for mono in poly for name in mono}


def evaluate(poly: Poly, point: dict[str, int]) -> int:
    total = 0
    for mono, coeff in poly.items():
        term = coeff
        for name in mono:
            term *= point[name]
        total += term
    return total


def to_text(poly: Poly) -> str:
    """DSL text for a polynomial; any valid spelling will do, this one is sorted."""
    if not poly:
        return "0"
    pieces = []
    for mono, coeff in sorted(poly.items(), key=lambda kv: (len(kv[0]), kv[0])):
        body = "*".join([str(abs(coeff))] + list(mono)) if abs(coeff) != 1 or not mono else "*".join(mono)
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[+\-*])")


def parse(text: str) -> Poly:
    """Read a sum of signed products of integers and symbols (no parentheses)."""
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot read polynomial text {text!r} at offset {pos}")
        tokens.append(match.group(1))
        pos = match.end()
    if not tokens:
        raise ValueError("empty polynomial text")
    out: Poly = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            sign = -sign if tokens[i] == "-" else sign
            i += 1
        coeff, mono = sign, []
        while True:
            if i >= len(tokens) or tokens[i] in "+-*":
                raise ValueError(f"malformed polynomial text {text!r}")
            if tokens[i].isdigit():
                coeff *= int(tokens[i])
            else:
                mono.append(tokens[i])
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                continue
            break
        out = add(out, {tuple(sorted(mono)): coeff})
        if i < len(tokens) and tokens[i] not in "+-":
            raise ValueError(f"malformed polynomial text {text!r}")
    return out


# -- closed forms over integer primitive values ---------------------------------
#
# With c0 = sum a_j and T = sum (j+1) a_j, the duality total of a moderate
# profile over rank N is N*c0 - T, and the profile whose primitives are the
# original ones in reverse order ending at index N-2 is a dual with matching
# total, center and double-dual total.


def center(prims: list) -> int:
    return sum(prims)


def weighted_total(prims: list) -> int:
    return sum((j + 1) * a for j, a in enumerate(prims))


def duality_total(N: int, prims: list) -> int:
    return N * center(prims) - weighted_total(prims)


def dual_primitives(N: int, prims: list) -> list:
    """Primitive list of a dual of a length-m profile over rank N (length N-1)."""
    out = [const(0)] * (N - 1)
    for j, a in enumerate(prims):
        out[N - 2 - j] = a
    return out


def main_theorem_value(N: int, a: list, b: list, e: int) -> int:
    """Duality total of the join of two profiles meeting in invariant e.

    Join component i < N-1 is the sum of a_i1*b_i2 over i-1 <= i1+i2 <= N-3,
    plus e minus every ruled-join component of index >= N (those components
    sum a_i1*b_i2 over i1+i2 >= i-1).
    """
    by_sum = [0] * (len(a) + len(b))
    for i1, x in enumerate(a):
        for i2, y in enumerate(b):
            by_sum[i1 + i2] += x * y
    suffix = [0] * (len(by_sum) + 1)
    for s in range(len(by_sum) - 1, -1, -1):
        suffix[s] = suffix[s + 1] + by_sum[s]

    def window(lo: int, hi: int) -> int:
        lo = max(lo, 0)
        return sum(by_sum[lo : hi + 1]) if hi >= lo else 0

    e_part = e
    for i in range(N, len(a) + len(b)):
        e_part -= suffix[max(i - 1, 0)]
    components = [window(i - 1, N - 3) + e_part for i in range(N - 1)]
    return N * components[0] - sum(components)


def join_linear_value(parts: list) -> int:
    """Sum over k of duality_total(part k) times the centers of the others."""
    total = 0
    for k, (N, prims) in enumerate(parts):
        term = duality_total(N, prims)
        for j, (_, other) in enumerate(parts):
            if j != k:
                term *= center(other)
        total += term
    return total


# -- goldens ----------------------------------------------------------------------


def load_goldens(root: str) -> dict:
    """The checked-in golden reports, read as plain JSON files."""
    folder = os.path.join(root, "src", "hpdcalc", "_catalog", "golden")
    goldens = {}
    for entry in sorted(os.listdir(folder)):
        if entry.endswith(".json"):
            with open(os.path.join(folder, entry), encoding="utf-8") as handle:
                goldens[entry[: -len(".json")]] = json.load(handle)
    return goldens
