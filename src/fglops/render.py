"""Canonical text and JSON renderings of polynomials and series.

Text layout follows the published tables: coefficient polynomials in
graded order (pure v_1 powers first within a weight), series terms in
ascending xi powers, and a trailing O(xi)^V validity marker.  The JSON wire
format is

    {"prime": p, "truncation": k, "validity": V, "basis": "v"|"l",
     "terms": [{"xi": j, "x": j2,
                "poly": [{"coef": "c", "exps": {"1": e1, ...}}]}]}

with coefficients rendered as decimal strings ("6", "-7", "1/2").  Both
renderings parse back to equal values.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .poly import GradedPoly, mono_exps, mono_from_exps
from .series import Series

_GEN_LETTER = {"v": "v", "l": "l"}


def _coef_str(c) -> str:
    return str(c)


def _parse_coef(s: str):
    if "/" in s:
        return Fraction(s)
    return int(s)


def _mono_text(mono, basis: str) -> str:
    letter = _GEN_LETTER[basis]
    parts = []
    for i, e in enumerate(mono_exps(mono)):
        if e == 1:
            parts.append(f"{letter}{i + 1}")
        elif e > 1:
            parts.append(f"{letter}{i + 1}^{e}")
    return "*".join(parts)


def poly_text(poly: GradedPoly, prime: int) -> str:
    """Render a polynomial; prime fixes the graded term order (0 = lex only)."""
    if not poly.terms:
        return "0"
    if prime:
        items = poly.sorted_terms(prime)
    else:
        items = sorted(poly.terms.items())
    chunks = []
    for mono, c in items:
        mt = _mono_text(mono, poly.basis)
        if not mono:
            body = _coef_str(abs(c) if c < 0 else c)
        elif abs(c) == 1:
            body = mt
        else:
            body = f"{_coef_str(abs(c) if c < 0 else c)}*{mt}"
        sign = "-" if c < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _var_text(j: int, jx: int) -> str:
    parts = []
    if j == 1:
        parts.append("xi")
    elif j != 0:
        parts.append(f"xi^{j}")
    if jx == 1:
        parts.append("x")
    elif jx != 0:
        parts.append(f"x^{jx}")
    return "*".join(parts)


def series_text(s: Series, show_validity: bool = True) -> str:
    items = sorted(s.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    chunks = []
    for (j, jx), poly in items:
        vt = _var_text(j, jx)
        terms = poly.terms
        if not vt:
            chunks.append(("+", poly_text(poly, s.prime)))
            continue
        if len(terms) > 1:
            chunks.append(("+", f"({poly_text(poly, s.prime)})*{vt}"))
        else:
            ((mono, c),) = terms.items()
            mt = _mono_text(mono, s.basis)
            sign = "-" if c < 0 else "+"
            ac = abs(c)
            factors = []
            if ac != 1 or (not mt and not vt):
                factors.append(_coef_str(ac))
            if mt:
                factors.append(mt)
            factors.append(vt)
            chunks.append((sign, "*".join(factors)))
    if not chunks:
        body = "0"
    else:
        first_sign, first_body = chunks[0]
        body = (first_sign if first_sign == "-" else "") + first_body
        for sign, b in chunks[1:]:
            body += f" {sign} {b}"
    if show_validity:
        body += f" + O(xi)^{s.validity}" if s.is_univariate() else f" + O(xi,x)^{s.validity}"
    return body


# -- parsing ---------------------------------------------------------------

_FACTOR_RE = re.compile(r"^(?:(?P<num>-?\d+(?:/\d+)?)|(?P<gen>[vl])(?P<idx>\d+)(?:\^(?P<ge>\d+))?|(?P<var>xi|x)(?:\^(?P<ve>-?\d+))?)$")


def _split_top_terms(text: str):
    """Split on top-level +/- (not inside parentheses), keeping signs."""
    terms = []
    depth = 0
    cur = ""
    sign = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
            cur += ch
        elif ch == ")":
            depth -= 1
            cur += ch
        elif ch in "+-" and depth == 0 and (i == 0 or text[i - 1] in " ("):
            if cur.strip():
                terms.append((sign, cur.strip()))
                cur = ""
            sign = -1 if ch == "-" else 1
        else:
            cur += ch
        i += 1
    if cur.strip():
        terms.append((sign, cur.strip()))
    return terms


def parse_poly(text: str, basis: str = "v") -> GradedPoly:
    """Parse polynomial text like '-8*v1^3 - 7*v2' or '1/2*l1^2 + 3'."""
    out = GradedPoly.zero(basis)
    for sign, term in _split_top_terms(text.strip()):
        coef = sign
        exps: dict = {}
        for factor in term.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            if m.group("num"):
                coef *= _parse_coef(m.group("num"))
            elif m.group("gen"):
                if m.group("gen") != basis:
                    raise ValueError(f"generator {factor!r} does not match basis {basis!r}")
                idx = int(m.group("idx"))
                exps[idx] = exps.get(idx, 0) + int(m.group("ge") or 1)
            else:
                raise ValueError(f"series variable {factor!r} inside polynomial")
        out = out + GradedPoly({mono_from_exps(exps): coef}, basis)
    return out


def parse_series(text: str, prime: int, basis: str, validity: int | None = None,
                 weight: int | None = None) -> Series:
    """Parse series text as produced by series_text (the O-marker sets validity).

    A negative exponent of xi or x, as in xi^-1 or x^-2, gives a Laurent series.
    """
    text = text.strip()
    m = re.search(r"\+\s*O\((?:xi|xi,x)\)\^(\d+)\s*$", text)
    if m:
        if validity is None:
            validity = int(m.group(1))
        text = text[: m.start()].strip()
    if validity is None:
        raise ValueError("no validity marker and none supplied")
    coeffs: dict = {}
    if text and text != "0":
        for sign, term in _split_top_terms(text):
            coef = sign
            exps: dict = {}
            j = jx = 0
            pmatch = re.match(r"^\((?P<inner>.*)\)\*(?P<rest>.*)$", term)
            if pmatch:
                poly = parse_poly(pmatch.group("inner"), basis).scale(sign)
                rest = pmatch.group("rest")
            else:
                poly = None
                rest = term
            for factor in rest.split("*"):
                factor = factor.strip()
                fm = _FACTOR_RE.match(factor)
                if not fm:
                    raise ValueError(f"cannot parse factor {factor!r}")
                if fm.group("num"):
                    coef *= _parse_coef(fm.group("num"))
                elif fm.group("gen"):
                    idx = int(fm.group("idx"))
                    exps[idx] = exps.get(idx, 0) + int(fm.group("ge") or 1)
                else:
                    e = int(fm.group("ve") or 1)
                    if fm.group("var") == "xi":
                        j += e
                    else:
                        jx += e
            if poly is None:
                poly = GradedPoly({mono_from_exps(exps): coef}, basis)
            prev = coeffs.get((j, jx))
            coeffs[(j, jx)] = poly if prev is None else prev + poly
    laurent = any(j < 0 or jx < 0 for j, jx in coeffs)
    return Series(prime, basis, coeffs, validity, weight, laurent)


# -- JSON wire format -------------------------------------------------------

def poly_to_obj(poly: GradedPoly, prime: int) -> list:
    out = []
    for mono, c in poly.sorted_terms(prime):
        exps = {str(i): e for i, e in enumerate(mono_exps(mono), 1) if e}
        out.append({"coef": _coef_str(c), "exps": exps})
    return out


def poly_from_obj(obj: list, basis: str) -> GradedPoly:
    out = GradedPoly.zero(basis)
    for t in obj:
        exps = {int(i): e for i, e in t["exps"].items()}
        out = out + GradedPoly({mono_from_exps(exps): _parse_coef(t["coef"])}, basis)
    return out


def series_to_obj(s: Series, truncation: int | None = None) -> dict:
    terms = []
    for (j, jx) in sorted(s.coeffs, key=lambda e: (e[1], e[0])):
        terms.append({"xi": j, "x": jx, "poly": poly_to_obj(s.coeffs[(j, jx)], s.prime)})
    return {
        "prime": s.prime,
        "truncation": s.validity - 1 if truncation is None else truncation,
        "validity": s.validity,
        "basis": s.basis,
        "terms": terms,
    }


def series_from_obj(obj: dict) -> Series:
    coeffs = {}
    basis = obj["basis"]
    for t in obj["terms"]:
        coeffs[(t["xi"], t.get("x", 0))] = poly_from_obj(t["poly"], basis)
    laurent = any(e[0] < 0 for e in coeffs)
    return Series(obj["prime"], basis, coeffs, obj["validity"], laurent=laurent)


def to_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys, lists,
    str, int, bool and None; a direct walk instead of the stdlib's pure-Python
    indenting encoder, which takes about twice as long and holds more chunks."""
    out = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list, newline: str) -> None:
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _encode_str(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def series_to_json(s: Series, truncation: int | None = None) -> str:
    return to_json(series_to_obj(s, truncation))


def series_from_json(text: str) -> Series:
    return series_from_obj(json.loads(text))
