"""Canonical text and JSON renderings of polynomials and series.

Text layout follows the published tables: coefficient polynomials in
graded order (pure v_1 powers first within a weight), series terms in
ascending xi powers, and a trailing O(xi)^V validity marker.  parse_poly
and parse_series read the grammar that poly_text and series_text write:

    text   = ["-"] term {(" + " | " - ") term} [" + O(xi)^V" | " + O(xi,x)^V"]
    term   = factor {"*" factor}
    factor = c | c/d | v<m>[^e] | l<m>[^e] | xi[^j] | x[^j] | "(" text ")"

with every factor of a term multiplied in, generators of the basis only,
every exponent e and j a nonnegative integer, and xi and x in series only.
The JSON wire format is

    {"prime": p, "truncation": k, "validity": V, "basis": "v"|"l",
     "terms": [{"xi": j, "x": j2,
                "poly": [{"coef": "c", "exps": {"1": e1, ...}}]}]}

with coefficients rendered as decimal strings ("6", "-7", "1/2"), series
terms in ascending (x, xi) order and each polynomial's terms in
GradedPoly.sorted_terms order.  to_json prints it as json.dumps(obj,
indent=2) would: a Series anywhere in obj is written straight from its
terms, one chunk per monomial, at its nesting depth; series_to_obj builds
the same object as dicts and lists.  Both renderings parse back to equal
values.  series_from_obj, which reads the golden tables, is strict: a
prime, validity or exponent that is not a JSON integer, a negative exponent,
a coefficient other than c or c/d with d nonzero, a basis other than v or l,
two terms at one exponent, or a term at or beyond the validity raises
ValueError naming the field.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .poly import MAX_EXP, W, GradedPoly, mono_exps, mono_from_exps
from .series import Series


def _powers(pairs) -> list:
    """name^e for each (name, e) with e nonzero, bare name for e = 1."""
    return [name if e == 1 else f"{name}^{e}" for name, e in pairs if e]


def _mono_factors(mono, basis: str) -> list:
    return _powers((f"{basis}{i}", e) for i, e in enumerate(mono_exps(mono), 1))


def _term(c, factors: list) -> tuple:
    """(sign, text) of c times the factors; a coefficient 1 is left out unless alone."""
    a = abs(c)
    return "-" if c < 0 else "+", "*".join(([str(a)] if a != 1 or not factors else []) + factors)


def _join(chunks) -> str:
    """'a - b + c' from (sign, text) chunks; the leading sign shows only when minus."""
    text = "".join(f" {sign} {body}" for sign, body in chunks)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def poly_text(poly: GradedPoly, prime: int) -> str:
    """Render a polynomial; prime fixes the graded term order (0 = lex only)."""
    items = poly.sorted_terms(prime) if prime else sorted(poly.terms.items())
    return _join(_term(c, _mono_factors(mono, poly.basis)) for mono, c in items)


def _exponents(s: Series) -> list:
    """The exponent pairs (j_xi, j_x) of s's terms in written order: by x, then by xi."""
    return sorted(s.coeffs, key=lambda e: (e[1], e[0]))


def series_text(s: Series, show_validity: bool = True) -> str:
    chunks = []
    for j, jx in _exponents(s):
        poly = s.coeffs[(j, jx)]
        var = _powers((("xi", j), ("x", jx)))
        if not var:
            chunks.append(("+", poly_text(poly, s.prime)))
        elif len(poly.terms) > 1:
            chunks.append(("+", f"({poly_text(poly, s.prime)})*" + "*".join(var)))
        else:
            ((mono, c),) = poly.terms.items()
            chunks.append(_term(c, _mono_factors(mono, s.basis) + var))
    body = _join(chunks)
    if show_validity:
        body += f" + O(xi)^{s.validity}" if s.is_univariate() else f" + O(xi,x)^{s.validity}"
    return body


# -- parsing ---------------------------------------------------------------

_FACTOR_RE = re.compile(r"(?P<num>-?\d+(?:/\d+)?)|(?P<gen>[vl])(?P<idx>\d+)(?:\^(?P<ge>\d+))?"
                        r"|(?P<var>xi|x)(?:\^(?P<ve>\d+))?|\((?P<poly>.*)\)")


def _coef(text) -> int | Fraction:
    """A decimal coefficient "c" or "c/d"; anything else, d = 0 included, raises ValueError."""
    m = re.fullmatch(r"-?\d+(?:/(\d+))?", text) if isinstance(text, str) else None
    if not m or m[1] and not int(m[1]):
        raise ValueError(f"coefficient {json.dumps(text)} is not c or c/d with d nonzero")
    return Fraction(text) if m[1] else int(text)


def _split(text: str, seps: str) -> list:
    """(separator, piece) pairs of text cut at separators outside parentheses; a
    sign cuts only at the start or after a space, so xi^-2 stays one factor,
    which the grammar refuses."""
    out, depth, start, sep = [], 0, 0, ""
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in seps and not depth and (ch == "*" or i == 0 or text[i - 1] == " "):
            out.append((sep, text[start:i].strip()))
            start, sep = i + 1, ch
    out.append((sep, text[start:].strip()))
    return out


def _terms(text: str, basis: str, series: bool):
    """(xi exponent, x exponent, monomial, coefficient, term text) per monomial of each term."""
    sign = 1
    for sep, term in _split(text, "+-"):
        if sep == "-":
            sign = -sign
        if not term:
            continue
        coef, exps, var, poly, sign = sign, {}, [0, 0], GradedPoly.const(1, basis), 1
        for _star, factor in _split(term, "*"):
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            if m["num"]:
                coef *= _coef(m["num"])
            elif m["gen"]:
                if m["gen"] != basis:
                    raise ValueError(f"generator {factor!r} does not match basis {basis!r}")
                idx = int(m["idx"])
                exps[idx] = exps.get(idx, 0) + int(m["ge"] or 1)
            elif m["var"]:
                if not series:
                    raise ValueError(f"series variable {factor!r} inside polynomial")
                var[m["var"] == "x"] += int(m["ve"] or 1)
            else:
                poly = poly * parse_poly(m["poly"], basis)
        for mono, c in (poly * GradedPoly({mono_from_exps(exps): coef}, basis)).terms.items():
            yield var[0], var[1], mono, c, term


def parse_poly(text: str, basis: str = "v") -> GradedPoly:
    """Parse polynomial text like '-8*v1^3 - 7*v2' or '1/2*l1^2 + 3'."""
    out: dict = {}
    for _j, _jx, mono, c, _term in _terms(text.strip(), basis, False):
        out[mono] = out.get(mono, 0) + c
    return GradedPoly(out, basis)


def parse_series(text: str, prime: int, basis: str, validity: int | None = None) -> Series:
    """Parse series text as produced by series_text (the O-marker sets validity).

    A term at or beyond the text's own O-marker raises ValueError; a validity
    the caller supplies wins over the marker and drops the terms at or beyond it.
    """
    text = text.strip()
    marker = None
    m = re.search(r"\+\s*O\((?:xi|xi,x)\)\^(\d+)\s*$", text)
    if m:
        marker = int(m.group(1))
        text = text[: m.start()].strip()
    if validity is None:
        validity = marker
    if validity is None:
        raise ValueError("no validity marker and none supplied")
    coeffs: dict = {}
    for j, jx, mono, c, term in _terms(text, basis, True):
        if marker is not None and j + jx >= marker:
            raise ValueError(f"term {term!r} lies at or beyond the text's O-marker, order {marker}")
        t = coeffs.setdefault((j, jx), {})
        t[mono] = t.get(mono, 0) + c
    return Series(prime, basis, {e: GradedPoly(t, basis) for e, t in coeffs.items()}, validity)


# -- JSON wire format -------------------------------------------------------

def _wire_int(x, field: str, nonnegative: bool = False) -> int:
    """x as a JSON integer, >= 0 if nonnegative; true and false parse to bools,
    which Python counts as ints."""
    if type(x) is not int or nonnegative and x < 0:
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ValueError(f"{field} is {json.dumps(x)}, not {kind}")
    return x


def poly_to_obj(poly: GradedPoly, prime: int) -> list:
    out = []
    for mono, c in poly.sorted_terms(prime):
        exps = {str(i): e for i, e in enumerate(mono_exps(mono), 1) if e}
        out.append({"coef": str(c), "exps": exps})
    return out


def poly_from_obj(obj: list, basis: str) -> GradedPoly:
    out: dict = {}
    for t in obj:
        mono = mono_from_exps({int(i): _wire_int(e, f"exponent of generator {i}", nonnegative=True)
                               for i, e in t["exps"].items()})
        out[mono] = out.get(mono, 0) + _coef(t["coef"])
    return GradedPoly(out, basis)


def series_to_obj(s: Series, truncation: int | None = None) -> dict:
    terms = []
    for j, jx in _exponents(s):
        terms.append({"xi": j, "x": jx, "poly": poly_to_obj(s.coeffs[(j, jx)], s.prime)})
    return {
        "prime": s.prime,
        "truncation": s.validity - 1 if truncation is None else truncation,
        "validity": s.validity,
        "basis": s.basis,
        "terms": terms,
    }


def series_from_obj(obj: dict) -> Series:
    basis = obj["basis"]
    if basis not in ("v", "l"):
        raise ValueError(f"basis is {json.dumps(basis)}, not \"v\" or \"l\"")
    validity = _wire_int(obj["validity"], "validity")
    coeffs = {}
    for t in obj["terms"]:
        e = (_wire_int(t["xi"], "xi exponent", nonnegative=True),
             _wire_int(t.get("x", 0), "x exponent", nonnegative=True))
        if sum(e) >= validity:
            raise ValueError(f"term xi^{e[0]}*x^{e[1]} lies at or beyond validity {validity}")
        if e in coeffs:
            raise ValueError(f"two terms at xi^{e[0]}*x^{e[1]}")
        coeffs[e] = poly_from_obj(t["poly"], basis)
    return Series(_wire_int(obj["prime"], "prime"), basis, coeffs, validity)


def to_json(obj, truncation: int | None = None) -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys, lists,
    str, int, bool, None and Series; a Series stands for
    series_to_obj(series, truncation) and is written straight from its terms,
    one chunk per monomial.  A direct walk instead of the stdlib's pure-Python
    indenting encoder, which takes about twice as long and holds more chunks."""
    out = []
    _write_json(obj, out, "\n", truncation)
    return "".join(out)


def _write_json(obj, out: list, newline: str, truncation: int | None) -> None:
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
            _write_json(value, out, inner, truncation)
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
            _write_json(value, out, inner, truncation)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, Series):
        _write_series(obj, out, newline, truncation)
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _write_series(s: Series, out: list, newline: str, truncation: int | None) -> None:
    """series_to_obj(s, truncation) as _write_json writes it at this newline's depth."""
    i1, i2, i3, i4, i5, i6 = (newline + "  " * n for n in range(1, 7))
    truncation = s.validity - 1 if truncation is None else truncation
    out.append(f'{{{i1}"prime": {s.prime},{i1}"truncation": {truncation},'
               f'{i1}"validity": {s.validity},{i1}"basis": {_encode_str(s.basis)},{i1}"terms": ')
    if not s.coeffs:
        out.append("[]" + newline + "}")
        return
    sep = "[" + i2
    for j, jx in _exponents(s):
        monos = []
        for mono, c in s.coeffs[(j, jx)].sorted_terms(s.prime):
            exps, i = [], 1
            while mono:  # mono_exps, each nonzero exponent as a "generator": e line
                if e := mono & MAX_EXP:
                    exps.append(f'{i6}"{i}": {e}')
                mono >>= W
                i += 1
            exps = "{" + ",".join(exps) + i5 + "}" if exps else "{}"
            monos.append(f'{{{i5}"coef": "{c}",{i5}"exps": {exps}{i4}}}')
        poly = "[" + i4 + ("," + i4).join(monos) + i3 + "]"
        out.append(f'{sep}{{{i3}"xi": {j},{i3}"x": {jx},{i3}"poly": {poly}{i2}}}')
        sep = "," + i2
    out.append(i1 + "]" + newline + "}")


def series_to_json(s: Series, truncation: int | None = None) -> str:
    return to_json(s, truncation)


def series_from_json(text: str) -> Series:
    return series_from_obj(json.loads(text))
