"""Operator-description documents: a versioned tagged-tree JSON format.

Every operator variant, sequence rule, index sequence and permutation
carries a stable tag; rational scalars travel as ``{"fraction": [p, q]}``
so exact arithmetic survives the round trip.  Parsing doubles as
validation: every error names the JSON-pointer-style path of the
offending node.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import SpecFormatError
from .index_maps import (
    Permutation,
    SpreadSpec,
    identity_permutation,
    one_line_permutation,
    sigma_bilateral,
    z_translation_permutation,
)
from .op_algebra import (
    Adjoint,
    BlockDirectSum,
    Diagonal,
    LambdaShift,
    OperatorExpr,
    PermutationUnitary,
    Product,
    Scale,
    Spread,
    Sum,
    cibws,
)
from .records import record
from .schauder import (
    EmptySetMembers,
    FiniteSetMembers,
    SchauderSpectrumReport,
    VanishingSequenceMembers,
)
from .sequences import (
    AffineRule,
    ArithmeticSequence,
    ConstantRule,
    ExplicitPrefixSequence,
    ExplicitThenRule,
    GeometricRule,
    IndexSequence,
    OffsetRule,
    PowerLawRule,
    RepeatedRule,
    ScalarRule,
    ScaledRule,
)
from .spectral import EigenExclusionCertificate

ANALYSES = ("schauder-spectrum", "classify", "deflate", "certify")

@record
class ParsedSpec:
    version: int
    operator: OperatorExpr
    analysis: str
    params: dict
    raw: dict


def _expect_dict(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SpecFormatError(f"expected an object, got {type(node).__name__}", path)
    return node


def _expect_key(node: dict, key: str, path: str):
    if key not in node:
        raise SpecFormatError(f"missing required key {key!r}", path)
    return node[key]


def _check_no_extra(node: dict, allowed, path: str) -> None:
    extra = sorted(set(node) - set(allowed))
    if extra:
        raise SpecFormatError(f"unknown keys {extra}", path)


def parse_scalar(node, path: str):
    if isinstance(node, bool):
        raise SpecFormatError("booleans are not scalars", path)
    if isinstance(node, (int, float)):
        return node
    if isinstance(node, dict):
        if "fraction" in node:
            _check_no_extra(node, ("fraction",), path)
            pair = node["fraction"]
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, int) for x in pair)):
                raise SpecFormatError("fraction needs [numerator, denominator] ints",
                                      path + ".fraction")
            if pair[1] == 0:
                raise SpecFormatError("fraction denominator is zero",
                                      path + ".fraction")
            return Fraction(pair[0], pair[1])
        if "re" in node or "im" in node:
            _check_no_extra(node, ("re", "im"), path)
            re = node.get("re", 0)
            im = node.get("im", 0)
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in (re, im)):
                raise SpecFormatError("complex parts must be numbers", path)
            return complex(re, im)
    raise SpecFormatError("expected a number, fraction, or complex object", path)


def scalar_to_json(v):
    if isinstance(v, Fraction):
        return {"fraction": [v.numerator, v.denominator]}
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def parse_rule(node, path: str) -> ScalarRule:
    node = _expect_dict(node, path)
    tag = _expect_key(node, "rule", path)
    if tag == "constant":
        _check_no_extra(node, ("rule", "value"), path)
        return ConstantRule(parse_scalar(_expect_key(node, "value", path),
                                         path + ".value"))
    if tag == "geometric":
        _check_no_extra(node, ("rule", "scale", "ratio"), path)
        return GeometricRule(
            parse_scalar(_expect_key(node, "scale", path), path + ".scale"),
            parse_scalar(_expect_key(node, "ratio", path), path + ".ratio"),
        )
    if tag == "power-law":
        _check_no_extra(node, ("rule", "scale", "exponent"), path)
        exponent = node.get("exponent", 1)
        if isinstance(exponent, bool) or not isinstance(exponent, (int, float)):
            raise SpecFormatError("exponent must be a number", path + ".exponent")
        if exponent < 0:
            raise SpecFormatError("exponent must be >= 0", path + ".exponent")
        return PowerLawRule(
            parse_scalar(_expect_key(node, "scale", path), path + ".scale"),
            exponent,
        )
    if tag == "affine":
        _check_no_extra(node, ("rule", "base", "inner"), path)
        return AffineRule(
            parse_scalar(_expect_key(node, "base", path), path + ".base"),
            parse_rule(_expect_key(node, "inner", path), path + ".inner"),
        )
    if tag == "scaled":
        _check_no_extra(node, ("rule", "factor", "inner"), path)
        return ScaledRule(
            parse_scalar(_expect_key(node, "factor", path), path + ".factor"),
            parse_rule(_expect_key(node, "inner", path), path + ".inner"),
        )
    if tag == "offset":
        _check_no_extra(node, ("rule", "inner", "offset"), path)
        offset = _expect_key(node, "offset", path)
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise SpecFormatError("offset must be an int >= 0", path + ".offset")
        return OffsetRule(parse_rule(_expect_key(node, "inner", path),
                                     path + ".inner"), offset)
    if tag == "repeated":
        _check_no_extra(node, ("rule", "inner", "times"), path)
        times = node.get("times", 2)
        if isinstance(times, bool) or not isinstance(times, int) or times < 1:
            raise SpecFormatError("times must be an int >= 1", path + ".times")
        return RepeatedRule(parse_rule(_expect_key(node, "inner", path),
                                       path + ".inner"), times)
    if tag == "explicit-then":
        _check_no_extra(node, ("rule", "prefix", "tail"), path)
        prefix_node = _expect_key(node, "prefix", path)
        if not isinstance(prefix_node, list):
            raise SpecFormatError("prefix must be a list", path + ".prefix")
        prefix = tuple(
            parse_scalar(v, f"{path}.prefix[{i}]")
            for i, v in enumerate(prefix_node)
        )
        tail_node = node.get("tail")
        tail = None if tail_node is None else parse_rule(tail_node, path + ".tail")
        return ExplicitThenRule(prefix, tail)
    raise SpecFormatError(f"unknown rule tag {tag!r}", path + ".rule")


def parse_sequence(node, path: str) -> IndexSequence:
    node = _expect_dict(node, path)
    tag = _expect_key(node, "sequence", path)
    if tag == "arithmetic":
        _check_no_extra(node, ("sequence", "start", "step"), path)
        start = _expect_key(node, "start", path)
        step = node.get("step", 1)
        for name, v in (("start", start), ("step", step)):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise SpecFormatError(f"{name} must be an int >= 1",
                                      f"{path}.{name}")
        return ArithmeticSequence(start, step)
    if tag == "explicit-prefix":
        _check_no_extra(node, ("sequence", "prefix", "tail"), path)
        prefix_node = _expect_key(node, "prefix", path)
        if not isinstance(prefix_node, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in prefix_node
        ):
            raise SpecFormatError("prefix must be a list of ints", path + ".prefix")
        tail_node = node.get("tail")
        tail = None if tail_node is None else parse_sequence(tail_node, path + ".tail")
        try:
            return ExplicitPrefixSequence(tuple(prefix_node), tail)
        except ValueError as exc:
            raise SpecFormatError(str(exc), path + ".prefix") from exc
    raise SpecFormatError(f"unknown sequence tag {tag!r}", path + ".sequence")


def sequence_to_json(seq: IndexSequence) -> dict:
    if isinstance(seq, ArithmeticSequence):
        return {"sequence": "arithmetic", "start": seq.start, "step": seq.step}
    if isinstance(seq, ExplicitPrefixSequence):
        return {
            "sequence": "explicit-prefix",
            "prefix": list(seq.prefix),
            "tail": None if seq.tail is None else sequence_to_json(seq.tail),
        }
    return {"sequence": "opaque", "description": seq.describe()}


def parse_permutation(node, path: str) -> Permutation:
    node = _expect_dict(node, path)
    tag = _expect_key(node, "permutation", path)
    if tag == "identity":
        _check_no_extra(node, ("permutation",), path)
        return identity_permutation()
    if tag == "sigma-bilateral":
        _check_no_extra(node, ("permutation",), path)
        return sigma_bilateral()
    if tag == "z-translation":
        _check_no_extra(node, ("permutation", "step"), path)
        step = _expect_key(node, "step", path)
        if isinstance(step, bool) or not isinstance(step, int):
            raise SpecFormatError("step must be an int", path + ".step")
        return z_translation_permutation(step)
    if tag == "one-line":
        _check_no_extra(node, ("permutation", "images"), path)
        images = _expect_key(node, "images", path)
        if not isinstance(images, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in images
        ):
            raise SpecFormatError("images must be a list of ints", path + ".images")
        try:
            return one_line_permutation(images)
        except ValueError as exc:
            raise SpecFormatError(str(exc), path + ".images") from exc
    raise SpecFormatError(f"unknown permutation tag {tag!r}", path + ".permutation")


def parse_operator(node, path: str) -> OperatorExpr:
    node = _expect_dict(node, path)
    tag = _expect_key(node, "op", path)
    if tag == "diagonal":
        _check_no_extra(node, ("op", "weights"), path)
        return Diagonal(parse_rule(_expect_key(node, "weights", path),
                                   path + ".weights"))
    if tag == "spread":
        _check_no_extra(node, ("op", "domain", "image"), path)
        return Spread(SpreadSpec(
            parse_sequence(_expect_key(node, "domain", path), path + ".domain"),
            parse_sequence(_expect_key(node, "image", path), path + ".image"),
        ))
    if tag == "permutation-unitary":
        _check_no_extra(node, ("op", "of"), path)
        return PermutationUnitary(parse_permutation(
            _expect_key(node, "of", path), path + ".of"))
    if tag == "sum":
        _check_no_extra(node, ("op", "terms"), path)
        terms = _expect_key(node, "terms", path)
        if not isinstance(terms, list) or not terms:
            raise SpecFormatError("terms must be a nonempty list", path + ".terms")
        return Sum(tuple(
            parse_operator(t, f"{path}.terms[{i}]") for i, t in enumerate(terms)
        ))
    if tag == "product":
        _check_no_extra(node, ("op", "left", "right"), path)
        return Product(
            parse_operator(_expect_key(node, "left", path), path + ".left"),
            parse_operator(_expect_key(node, "right", path), path + ".right"),
        )
    if tag == "adjoint":
        _check_no_extra(node, ("op", "inner"), path)
        return Adjoint(parse_operator(_expect_key(node, "inner", path),
                                      path + ".inner"))
    if tag == "scale":
        _check_no_extra(node, ("op", "scalar", "inner"), path)
        return Scale(
            parse_scalar(_expect_key(node, "scalar", path), path + ".scalar"),
            parse_operator(_expect_key(node, "inner", path), path + ".inner"),
        )
    if tag == "lambda-shift":
        _check_no_extra(node, ("op", "lambda", "inner"), path)
        return LambdaShift(
            parse_scalar(_expect_key(node, "lambda", path), path + ".lambda"),
            parse_operator(_expect_key(node, "inner", path), path + ".inner"),
        )
    if tag == "block-direct-sum":
        _check_no_extra(node, ("op", "blocks", "partition"), path)
        blocks = _expect_key(node, "blocks", path)
        partition = _expect_key(node, "partition", path)
        if not isinstance(blocks, list) or not blocks:
            raise SpecFormatError("blocks must be a nonempty list", path + ".blocks")
        if not isinstance(partition, list) or len(partition) != len(blocks):
            raise SpecFormatError("partition must list one cell per block",
                                  path + ".partition")
        return BlockDirectSum(
            tuple(parse_operator(b, f"{path}.blocks[{i}]")
                  for i, b in enumerate(blocks)),
            tuple(parse_sequence(s, f"{path}.partition[{i}]")
                  for i, s in enumerate(partition)),
        )
    if tag == "cibws":
        _check_no_extra(node, ("op",), path)
        return cibws().to_expr()
    raise SpecFormatError(f"unknown operator tag {tag!r}", path + ".op")


# The run parameters, one row each: the key (a document's ``params`` key
# and, prefixed ``--``, the CLI flag), its kind, and the
# ``CertificateGridConfig`` field it sets.  The truncation sets no field.
# A ``positive-int`` flag parses as an int, every other kind as a float.
RUN_PARAMS = (
    ("truncation", "positive-int", None),
    ("grid-moduli", "positive-int", "moduli"),
    ("grid-phases", "positive-int", "phases"),
    ("bound", "positive-number", "bound"),
    ("step-cap", "positive-int", "step_cap"),
    ("min-modulus", "positive-number", "min_modulus"),
    ("max-modulus", "positive-number-or-null", "max_modulus"),
)
_PARAM_KINDS = {key: kind for key, kind, _field in RUN_PARAMS}


def _positive_finite(value) -> bool:
    # NaN fails every comparison, so ``value <= 0`` alone lets it through.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value > 0 and (isinstance(value, int) or math.isfinite(value))


def check_param(key: str, value, path: str) -> None:
    """Raise ``SpecFormatError`` at ``path`` unless ``value`` suits ``key``.

    The same rules hold for a document's ``params`` and for CLI flags.
    """
    kind = _PARAM_KINDS.get(key)
    if kind is None:
        raise SpecFormatError(f"unknown parameter {key!r}", path)
    if kind == "positive-int":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SpecFormatError(f"{key} must be an int >= 1", path)
    elif kind == "positive-number":
        if not _positive_finite(value):
            raise SpecFormatError(f"{key} must be a finite positive number", path)
    elif kind == "positive-number-or-null":
        if value is not None and not _positive_finite(value):
            raise SpecFormatError(
                f"{key} must be a finite positive number or null", path)


def parse_params(node, path: str) -> dict:
    if node is None:
        return {}
    node = _expect_dict(node, path)
    for key, value in node.items():
        check_param(key, value, f"{path}.{key}")
    return dict(node)


def parse_spec_document(doc) -> ParsedSpec:
    doc = _expect_dict(doc, "$")
    _check_no_extra(doc, ("version", "operator", "analysis", "params"), "$")
    version = _expect_key(doc, "version", "$")
    if version != 1:
        raise SpecFormatError(f"unsupported version {version!r}", "$.version")
    analysis = _expect_key(doc, "analysis", "$")
    if analysis not in ANALYSES:
        raise SpecFormatError(
            f"unknown analysis {analysis!r}; expected one of {list(ANALYSES)}",
            "$.analysis",
        )
    operator = parse_operator(_expect_key(doc, "operator", "$"), "$.operator")
    params = parse_params(doc.get("params"), "$.params")
    return ParsedSpec(version=1, operator=operator, analysis=analysis,
                      params=params, raw=doc)


def validate_document(doc) -> list:
    """All schema diagnostics found by sectionwise parsing."""
    diagnostics = []
    try:
        doc = _expect_dict(doc, "$")
    except SpecFormatError as exc:
        return [(exc.path, exc.message)]
    try:
        _check_no_extra(doc, ("version", "operator", "analysis", "params"), "$")
    except SpecFormatError as exc:
        diagnostics.append((exc.path, exc.message))
    if "version" not in doc:
        diagnostics.append(("$", "missing required key 'version'"))
    elif doc["version"] != 1:
        diagnostics.append(("$.version", f"unsupported version {doc['version']!r}"))
    try:
        analysis = _expect_key(doc, "analysis", "$")
        if analysis not in ANALYSES:
            raise SpecFormatError(
                f"unknown analysis {analysis!r}; expected one of {list(ANALYSES)}",
                "$.analysis",
            )
    except SpecFormatError as exc:
        diagnostics.append((exc.path, exc.message))
    try:
        parse_operator(_expect_key(doc, "operator", "$"), "$.operator")
    except SpecFormatError as exc:
        diagnostics.append((exc.path, exc.message))
    try:
        parse_params(doc.get("params"), "$.params")
    except SpecFormatError as exc:
        diagnostics.append((exc.path, exc.message))
    return diagnostics


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def certificate_to_json(cert: EigenExclusionCertificate) -> dict:
    return {
        "lambdaRe": cert.lam.real,
        "lambdaIm": cert.lam.imag,
        "witnessIndex": cert.witness_index,
        "magnitude": cert.attained_magnitude,
        "kind": cert.recurrence_kind,
        "bound": cert.bound,
        "regime": cert.regime,
        "startIndex": cert.start_index,
        "side": cert.side,
        "coveredRegion": cert.covered_region,
        "details": {
            k: scalar_to_json(v) if isinstance(v, (complex, Fraction)) else v
            for k, v in cert.details
        },
    }


def members_to_json(members, sample: int = 16) -> dict:
    if isinstance(members, EmptySetMembers):
        return {"kind": "empty"}
    if isinstance(members, FiniteSetMembers):
        return {"kind": "finite",
                "values": [scalar_to_json(v) for v in members.values]}
    if isinstance(members, VanishingSequenceMembers):
        return {
            "kind": "sequence-to-zero",
            "includesZero": members.includes_zero,
            "rule": members.rule.describe(),
            "sample": [scalar_to_json(v) for v in members.rule.values(sample)],
        }
    raise TypeError(f"unknown members {type(members).__name__}")


def report_to_json(report: SchauderSpectrumReport) -> dict:
    return {
        "members": members_to_json(report.members),
        "perMemberReason": [
            {"member": scalar_to_json(k) if not isinstance(k, str) else k,
             "reason": v}
            for k, v in report.per_member_reason
        ],
        "classificationCase": report.classification_case,
        "coveredRegion": report.covered_region,
        "notes": list(report.notes),
        "certificateCount": len(report.certificates),
        "certificates": [certificate_to_json(c) for c in report.certificates],
    }


_FLUSH_PARTS = 4096
# float.__repr__ spells the non-finite floats this way; json writes
# NaN, Infinity and -Infinity.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _token(o):
    """JSON token of a scalar, None for a container, in json.encoder's order.

    This is the path for subclasses of the JSON types and for the top
    level; exact types go through ``write_report``'s token table.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        token = float.__repr__(o)
        return _NONFINITE.get(token, token)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# Token functions of the exact JSON types but float, whose tokens
# write_report memoizes; None marks a container.
_TOKENS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    dict: None,
    list: None,
    tuple: None,
}


def _float_token(x: float) -> str:
    token = float.__repr__(x)
    return _NONFINITE.get(token, token)


def float_texts(fmt):
    """``fmt`` that formats each distinct nonzero exact float once.

    Zeros are formatted every time: ``0.0 == -0.0``, so one memo entry
    would give one sign the other's text.  Anything that is not an exact
    float goes straight to ``fmt``.
    """
    texts = {}

    def text(x):
        if type(x) is not float or not x:
            return fmt(x)
        t = texts.get(x)
        if t is None:
            t = texts[x] = fmt(x)
        return t

    return text


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _token(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def write_report(path, report) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` to ``path``.

    The text is streamed, never held whole: list loops hand the pending
    parts to the file every ``_FLUSH_PARTS`` parts.  It goes to a
    temporary file beside ``path`` that replaces ``path`` only once it is
    complete, so a reader never sees a partial report.  Unlike
    ``json.dumps`` it does not look for reference cycles.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    parts = []
    key_heads = {}  # str key -> '"key": '
    token_of = {**_TOKENS, float: float_texts(_float_token)}.get

    def emit(o, nl):
        # Append the text of the container ``o``, which opens at indent ``nl``.
        if not o:
            parts.append("{}" if isinstance(o, dict) else "[]")
            return
        inner = nl + "  "
        head, sep = inner, "," + inner
        if isinstance(o, dict):
            parts.append("{")
            # Distinct dict keys never compare equal, so sorting the keys
            # gives the order json.dumps gets from sorting the items.
            for key in sorted(o):
                value = o[key]
                if type(key) is str:
                    key_head = key_heads.get(key)
                    if key_head is None:
                        key_head = key_heads[key] = \
                            encode_basestring_ascii(key) + ": "
                else:
                    key_head = encode_basestring_ascii(_key_text(key)) + ": "
                to = token_of(type(value), _token)
                token = to and to(value)
                if token is None:
                    parts.append(head + key_head)
                    emit(value, inner)
                else:
                    parts.append(f"{head}{key_head}{token}")
                head = sep
            parts.append(nl + "}")
        else:
            parts.append("[")
            for value in o:
                to = token_of(type(value), _token)
                token = to and to(value)
                if token is None:
                    parts.append(head)
                    emit(value, inner)
                else:
                    parts.append(head + token)
                head = sep
                if len(parts) > _FLUSH_PARTS:
                    fh.write("".join(parts))
                    parts.clear()
            parts.append(nl + "]")

    try:
        with tmp.open("w") as fh:
            token = _token(report)
            if token is None:
                emit(report, "\n")
            else:
                parts.append(token)
            parts.append("\n")
            fh.write("".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
