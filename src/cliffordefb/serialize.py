"""Canonical JSON forms for elements, vectors, spinors, expansions, reports.

Canonical means: terms sorted by (a, b) bitmask, dict keys sorted, compact
separators, no zero coefficients — so serialized output is byte-stable and
golden-file friendly.  Scalars render as "p/q" (or "p/q+r/s i" in complex
mode); signatures render as lists of +-1.
"""

from __future__ import annotations

import json

from .errors import MalformedInputError, quote_input
from .scalars import FIELD_Q, common_denominator, format_numerator, parse_numerator
from .algebra import Algebra, AlgebraElement, mask_to_sig, sig_to_mask
from .vectors import TNPBasis, WittVector
from .spinors import Spinor
from .bilinear import GammaExpansion, WittExpansion, gamma_word_str
from .simplicity import SimplicityReport


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise MalformedInputError(message)


def _as_m(value) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
        "m must be a positive integer",
    )
    return value


def _require_literal(value):
    if not isinstance(value, str):
        raise MalformedInputError(f"scalar must be a string literal, got {quote_input(value)}")


def _numerator(value, field: str) -> tuple[object, int]:
    _require_literal(value)
    return parse_numerator(value, field)


def element_to_json(x: AlgebraElement) -> dict:
    m, den = x.algebra.m, x.den
    terms = [
        {
            "a": list(mask_to_sig(a, m)),
            "b": list(mask_to_sig(b, m)),
            "c": format_numerator(num, den),
        }
        for (a, b), num in sorted(x.nums.items())
    ]
    return {"m": m, "field": x.algebra.field, "terms": terms}


def element_from_json(data, algebra: Algebra) -> AlgebraElement:
    _require(isinstance(data, dict), "element must be a JSON object")
    m = _as_m(data.get("m"))
    field = data.get("field", FIELD_Q)
    _require(algebra.m == m, f"element has m={m}, context has m={algebra.m}")
    _require(
        algebra.field == field,
        f"element has field={quote_input(field)}, context has {algebra.field}",
    )
    raw_terms = data.get("terms", [])
    _require(isinstance(raw_terms, list), "terms must be a list")
    keys, pairs = [], []
    for term in raw_terms:
        _require(
            isinstance(term, dict) and {"a", "b", "c"} <= set(term),
            "each term needs keys a, b, c",
        )
        keys.append((_parse_sig(term["a"], m), _parse_sig(term["b"], m)))
        pairs.append(_numerator(term["c"], algebra.field))
    # repeated keys add up; the stored form takes the sums over one denominator
    scaled, den = common_denominator(pairs)
    nums = {}
    for key, num in zip(keys, scaled):
        prev = nums.get(key)
        nums[key] = num if prev is None else prev + num
    return AlgebraElement.from_numerators(
        algebra, {key: num for key, num in nums.items() if num}, den
    )


def _parse_sig(entries, m: int) -> int:
    _require(
        isinstance(entries, list)
        and len(entries) == m
        and all(type(e) is int and e in (1, -1) for e in entries),
        f"signature must be a list of {m} entries +-1",
    )
    return sig_to_mask(entries)


def witt_vector_to_json(v: WittVector) -> dict:
    m, den, get = v.algebra.m, v.den, v.nums.get
    texts = [format_numerator(get(j, 0), den) for j in range(2 * m)]
    return {"alpha": texts[:m], "beta": texts[m:]}


def witt_vector_from_json(data, algebra: Algebra) -> WittVector:
    _require(
        isinstance(data, dict) and "alpha" in data and "beta" in data,
        "vector needs alpha and beta coordinate lists",
    )
    alpha = data["alpha"]
    beta = data["beta"]
    _require(
        isinstance(alpha, list) and isinstance(beta, list)
        and len(alpha) == len(beta) == algebra.m,
        f"coordinate lists must have length m={algebra.m}",
    )
    nums, den = common_denominator(_numerator(text, algebra.field) for text in alpha + beta)
    return WittVector.from_numerators(algebra, {j: x for j, x in enumerate(nums) if x}, den)


def spinor_to_json(omega: Spinor) -> dict:
    return {
        "m": omega.algebra.m,
        "xi": {
            str(a): format_numerator(x, omega.den) for a, x in sorted(omega.nums.items())
        },
    }


def spinor_from_json(data, algebra: Algebra) -> Spinor:
    _require(isinstance(data, dict) and "xi" in data, "spinor needs an xi map")
    m = _as_m(data.get("m", algebra.m))
    _require(m == algebra.m, f"spinor has m={m}, context has m={algebra.m}")
    if "field" in data:
        _require(
            data["field"] == algebra.field,
            f"spinor has field={quote_input(data['field'])}, context has {algebra.field}",
        )
    _require(isinstance(data["xi"], dict), "xi must be an object keyed by a-bitmask")
    parsed = {}  # amask -> (numerator, denominator)
    size = 1 << m
    for key, val in data["xi"].items():
        try:
            amask = int(key)
        except ValueError as exc:
            raise MalformedInputError(f"bad coordinate key {quote_input(key)}") from exc
        # one spelling per mask: "01", " 1", "+1" and "1_0" would alias or collide
        if key != str(amask):
            raise MalformedInputError(
                f"coordinate key {quote_input(key)} is not a canonical integer"
            )
        if not 0 <= amask < size:
            raise MalformedInputError(f"coordinate key {quote_input(key)} out of range")
        pair = _numerator(val, algebra.field)
        if pair[0]:
            parsed[amask] = pair
    # the zeros dropped, the rest over one denominator
    nums, den = common_denominator(parsed.values())
    return Spinor.from_numerators(algebra, dict(zip(parsed, nums)), den)


def tnp_to_json(tnp: TNPBasis) -> dict:
    return {
        "dimension": tnp.dimension,
        "vectors": [witt_vector_to_json(v) for v in tnp],
    }


def gamma_expansion_to_json(exp: GammaExpansion) -> list[dict]:
    den = exp.den
    return [
        {"word": gamma_word_str(indices), "coeff": format_numerator(num, den)}
        for indices, num in sorted(exp.nums.items())
    ]


def witt_expansion_to_json(exp: WittExpansion) -> list[dict]:
    """The words sorted by grade, then text; each value is built as it is
    written, so no field-value copy of a large expansion is held."""
    den = exp.den
    items = sorted((word.grade, word.word_str(), num) for word, num in exp.nums.items())
    return [{"word": text, "coeff": format_numerator(num, den)} for _g, text, num in items]


def report_to_json(rep: SimplicityReport) -> dict:
    return {
        "m": rep.m,
        "field": rep.field,
        "nullity": rep.nullity,
        "simple": rep.simple,
        "verdicts": {
            "direct": rep.verdict_direct,
            "cartan_chevalley": rep.verdict_cartan_chevalley,
            "theorem2": rep.verdict_theorem2,
        },
        "chirality": rep.chirality,
        "k_m": rep.k_m,
        "minimal_grade": rep.minimal_grade,
        "constraints": {
            "generated": rep.constraints_generated,
            "violated": rep.constraints_violated,
        },
        "annihilator": tnp_to_json(rep.annihilator),
        "candidate": tnp_to_json(rep.candidate),
    }


def report_table(rep: SimplicityReport) -> str:
    rows = [
        ("m", rep.m),
        ("field", rep.field),
        ("nullity (dim M)", rep.nullity),
        ("simple", rep.simple),
        ("direct verdict", rep.verdict_direct),
        ("cartan-chevalley verdict", rep.verdict_cartan_chevalley),
        ("theorem-2 verdict", rep.verdict_theorem2),
        ("chirality", rep.chirality if rep.chirality is not None else "mixed"),
        ("k_m (self-pairing)", rep.k_m),
        ("minimal grade", rep.minimal_grade if rep.minimal_grade is not None else "-"),
        ("constraints generated", rep.constraints_generated),
        ("constraints violated", rep.constraints_violated),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)
