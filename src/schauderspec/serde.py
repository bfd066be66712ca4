"""Operator-description documents: a versioned tagged-tree JSON format.

Every operator variant, sequence rule, index sequence and permutation
carries a stable tag; rational scalars travel as ``{"fraction": [p, q]}``
so exact arithmetic survives the round trip.  Parsing doubles as
validation: every error names the JSON-pointer-style path of the
offending node.
"""

from __future__ import annotations

import io
import math
import os
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .errors import SpecFormatError
from .index_maps import (
    SpreadSpec,
    identity_permutation,
    one_line_permutation,
    partition_fault,
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


def _check_no_extra(node: dict, allowed, path: str) -> None:
    extra = node.keys() - allowed
    if extra:
        raise SpecFormatError(f"unknown keys {sorted(extra)}", path)


_REQUIRED = object()  # the default of a field that must be given


def _value(node: dict, key: str, default, path: str):
    """``node[key]``, or ``default`` when ``key`` is absent."""
    value = node.get(key, default)
    if value is _REQUIRED:
        raise SpecFormatError(f"missing required key {key!r}", path)
    return value


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
            try:
                return complex(re, im)
            except OverflowError:  # an int part beyond the float range
                raise SpecFormatError("complex parts must fit a float", path) from None
    raise SpecFormatError("expected a number, fraction, or complex object", path)


def scalar_to_json(v):
    if isinstance(v, Fraction):
        return {"fraction": [v.numerator, v.denominator]}
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


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


def _int(key: str, value, path: str, low=None) -> int:
    """``value`` if it is an int (not a bool) of at least ``low``, if given."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or low is not None and value < low):
        raise SpecFormatError(
            f"{key} must be an int" + ("" if low is None else f" >= {low}"), path)
    return value


def _ints(key: str, value, path: str) -> tuple:
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise SpecFormatError(f"{key} must be a list of ints", path)
    return tuple(value)


# An int exponent is raised exactly (n ** exponent), so its size bounds
# the memory a weight takes; docs/formats.md states the same bound.
MAX_INT_EXPONENT = 1024


def _exponent(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError("exponent must be a number", path)
    if isinstance(value, float) and not math.isfinite(value):
        raise SpecFormatError("exponent must be finite", path)
    if value < 0:
        raise SpecFormatError("exponent must be >= 0", path)
    if isinstance(value, int) and value > MAX_INT_EXPONENT:
        raise SpecFormatError(f"an int exponent must be <= {MAX_INT_EXPONENT}", path)
    return value


def _list(item, message: str, nonempty=False):
    """Parser of a list field whose items ``item`` reads, as a tuple."""
    def parse(value, path):
        if not isinstance(value, list) or nonempty and not value:
            raise SpecFormatError(message, path)
        parsed = []
        for i, v in enumerate(value):
            if item in _ROWS:
                parsed.append(_parse(v, f"{path}[{i}]", item))
            else:
                parsed.append(item(v, f"{path}[{i}]"))
        return tuple(parsed)

    return parse


def _unparsed(value, path: str) -> tuple:
    return value, path


def _block_direct_sum(blocks, partition) -> BlockDirectSum:
    """Both keys are required, and both lists checked, before any item is parsed."""
    (blocks, blocks_path), (cells, cells_path) = blocks, partition
    if not isinstance(blocks, list) or not blocks:
        raise SpecFormatError("blocks must be a nonempty list", blocks_path)
    if not isinstance(cells, list) or len(cells) != len(blocks):
        raise SpecFormatError("partition must list one cell per block", cells_path)
    parsed_blocks, parsed_cells = [], []
    for i, block in enumerate(blocks):
        parsed_blocks.append(_parse(block, f"{blocks_path}[{i}]", "operator", True))
    for i, cell in enumerate(cells):
        parsed_cells.append(_parse(cell, f"{cells_path}[{i}]", "sequence"))
    fault = partition_fault([cell.progression() for cell in parsed_cells])
    if fault:
        g, owners = fault
        raise SpecFormatError(f"cells {owners[0]} and {owners[1]} share the index {g}" if owners
                              else f"no cell holds the index {g}", cells_path)
    for i, (block, cell) in enumerate(zip(parsed_blocks, parsed_cells)):
        n = block.weights.length() if isinstance(block, Diagonal) else None
        if n is not None and n != (held := cell.length()):
            raise SpecFormatError(_FINITE_RULE.format(n) + f"; cell {i} " + (
                "is infinite" if held is None else f"holds {held} indices"),
                f"{blocks_path}[{i}].weights")
    return BlockDirectSum(tuple(parsed_blocks), tuple(parsed_cells))


# A finite rule leaves its diagonal undefined past its last term.
_FINITE_RULE = ("a finite rule of length {} must be a diagonal block on a finite "
                "cell of the same length")


# The grammar of the tagged nodes.  For each family: the key that holds
# the tag, and for each tag the constructor and its fields in the order
# they are checked, as ``(key, parse)`` or, when the key may be left
# out, ``(key, parse, default)``; a None default also admits null.
# ``parse`` is a family name or a function ``parse(value, path)``.  A
# ValueError of the constructor is a schema error at the first field.
# docs/formats.md lists the same tags and fields.
GRAMMAR = {
    "rule": ("rule", {
        "constant": (ConstantRule, ("value", parse_scalar)),
        "geometric": (GeometricRule, ("scale", parse_scalar), ("ratio", parse_scalar)),
        "power-law": (lambda exponent, scale: PowerLawRule(scale, exponent),
                      ("exponent", _exponent, 1), ("scale", parse_scalar)),
        "affine": (AffineRule, ("base", parse_scalar), ("inner", "rule")),
        "scaled": (ScaledRule, ("factor", parse_scalar), ("inner", "rule")),
        "offset": (lambda offset, inner: OffsetRule(inner, offset),
                   ("offset", partial(_int, "offset", low=0)), ("inner", "rule")),
        "repeated": (lambda times, inner: RepeatedRule(inner, times),
                     ("times", partial(_int, "times", low=1), 2), ("inner", "rule")),
        "explicit-then": (ExplicitThenRule,
                          ("prefix", _list(parse_scalar, "prefix must be a list")),
                          ("tail", "rule", None)),
    }),
    "sequence": ("sequence", {
        "arithmetic": (ArithmeticSequence, ("start", partial(_int, "start", low=1)),
                       ("step", partial(_int, "step", low=1), 1)),
        "explicit-prefix": (ExplicitPrefixSequence, ("prefix", partial(_ints, "prefix")),
                            ("tail", "sequence", None)),
    }),
    "permutation": ("permutation", {
        "identity": (identity_permutation,),
        "sigma-bilateral": (sigma_bilateral,),
        "z-translation": (z_translation_permutation, ("step", partial(_int, "step"))),
        "one-line": (one_line_permutation, ("images", partial(_ints, "images"))),
    }),
    "operator": ("op", {
        "diagonal": (Diagonal, ("weights", "rule")),
        "spread": (lambda domain, image: Spread(SpreadSpec(domain, image)),
                   ("domain", "sequence"), ("image", "sequence")),
        "permutation-unitary": (PermutationUnitary, ("of", "permutation")),
        "sum": (Sum, ("terms", _list("operator", "terms must be a nonempty list", True))),
        "product": (Product, ("left", "operator"), ("right", "operator")),
        "adjoint": (Adjoint, ("inner", "operator")),
        "scale": (Scale, ("scalar", parse_scalar), ("inner", "operator")),
        "lambda-shift": (LambdaShift, ("lambda", parse_scalar), ("inner", "operator")),
        "block-direct-sum": (_block_direct_sum, ("blocks", _unparsed),
                             ("partition", _unparsed)),
        "cibws": (lambda: cibws().to_expr(),),
    }),
}
# family -> (tag key, {tag: (constructor, field triples, allowed keys)})
_ROWS = {family: (tag_key, {
    tag: (build, tuple((*field, _REQUIRED)[:3] for field in fields),
          {tag_key, *(field[0] for field in fields)})
    for tag, (build, *fields) in rows.items()
}) for family, (tag_key, rows) in GRAMMAR.items()}


def _parse(node, path: str, family: str, block: bool = False):
    """The ``family`` node at ``path``, read by its grammar row.

    Nested nodes and list items come back here from a loop, with no
    wrapper or comprehension between: before Python 3.12 each would cost
    a frame per level and halve how deeply a document can nest.  A
    diagonal with a finite rule is legal only as a ``block`` of a block
    direct sum, which checks its cell.
    """
    tag_key, rows = _ROWS[family]
    node = _expect_dict(node, path)
    tag = _value(node, tag_key, _REQUIRED, path)
    try:
        build, fields, allowed = rows[tag]
    except (KeyError, TypeError):  # an unhashable tag is unknown too
        raise SpecFormatError(f"unknown {family} tag {tag!r}",
                              f"{path}.{tag_key}") from None
    _check_no_extra(node, allowed, path)
    values = []
    for key, parse, default in fields:
        value = _value(node, key, default, path)
        if value is None and default is None:
            values.append(None)
        elif parse in _ROWS:
            values.append(_parse(value, f"{path}.{key}", parse))
        else:
            values.append(parse(value, f"{path}.{key}"))
    try:
        built = build(*values)
    except ValueError as exc:
        raise SpecFormatError(str(exc), f"{path}.{fields[0][0]}") from exc
    if tag == "diagonal" and not block and (n := built.weights.length()) is not None:
        raise SpecFormatError(_FINITE_RULE.format(n), f"{path}.weights")
    return built


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


def _version(value, path: str) -> int:
    if value != 1:
        raise SpecFormatError(f"unsupported version {value!r}", path)
    return 1  # a version of true or 1.0 passes, and is stored as 1


def _analysis(value, path: str) -> str:
    if value not in ANALYSES:
        raise SpecFormatError(
            f"unknown analysis {value!r}; expected one of {list(ANALYSES)}", path)
    return value


# The document's sections as ``(key, parse, default)`` fields, in the
# order they are read: parse_spec_document stops at the first error,
# validate_document lists them all.
SECTIONS = (
    ("version", _version, _REQUIRED),
    ("analysis", _analysis, _REQUIRED),
    ("operator", partial(_parse, family="operator"), _REQUIRED),
    ("params", parse_params, None),
)


def _sections(doc, parsed: dict):
    """Yield the schema error of each faulty section; fill ``parsed`` with the rest."""
    try:
        _check_no_extra(_expect_dict(doc, "$"), {s[0] for s in SECTIONS}, "$")
    except SpecFormatError as exc:
        yield exc
        if not isinstance(doc, dict):
            return
    for key, parse, default in SECTIONS:
        try:
            parsed[key] = parse(_value(doc, key, default, "$"), f"$.{key}")
        except SpecFormatError as exc:
            yield exc


def parse_spec_document(doc) -> ParsedSpec:
    parsed = {}
    for exc in _sections(doc, parsed):
        raise exc
    return ParsedSpec(raw=doc, **parsed)


def validate_document(doc) -> list:
    """The ``(path, message)`` of every section's schema error, in order."""
    return [(exc.path, exc.message) for exc in _sections(doc, {})]


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
        "certificates": list(report.certificates),
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
    if isinstance(o, (list, tuple, dict, EigenExclusionCertificate)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class _Slot(str):  # the token of a value that a certificate frame leaves open
    pass


# Token functions of the exact JSON types but float; None marks a container.
_TOKENS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    dict: None,
    list: None,
    tuple: None,
    EigenExclusionCertificate: None,
    _Slot: str,
}
# The values that change along one walk's certificates: lambdaRe, lambdaIm
# and the details' adjoint_lambda re and im.  JSON text never holds a \x01.
_SLOTS = [_Slot(f"\x01{i}") for i in range(4)]


def _float_token(x: float) -> str:
    token = float.__repr__(x)
    return _NONFINITE.get(token, token)


class WalkTable:
    """The lambda texts that a run's certificate writers share.

    ``texts(cert, adjoint)`` is the ``repr`` of the parts of ``cert.lam``,
    then, if ``adjoint``, of its details' ``adjoint_lambda``, or None unless
    the lambda's parts are exact floats.  Each grid lambda is spelled once:
    its pair is kept if both parts are nonzero and not nan (``0.0 == -0.0``,
    and nan equals nothing), and an ``adjoint_lambda`` that is ``conj(lam)``
    flips the sign of its imaginary text.
    """

    def __init__(self):
        self.pairs = {}  # lam -> (its texts, with its conjugate's texts)

    def texts(self, cert, adjoint: bool = False):
        lam = cert.lam
        memo = self.pairs.get(lam) if type(lam) is complex else None
        if memo is None:
            if type(lam.real) is not float or type(lam.imag) is not float:
                return None
            pair = (repr(lam.real), repr(lam.imag))
            memo = (pair, None)
            if type(lam) is complex and lam.real and lam.imag and lam == lam:
                re, im = pair
                memo = self.pairs[lam] = (pair, (re, im, re, im[1:] if im[0] == "-" else "-" + im))
        if not adjoint:
            return memo[0]
        conj = dict(cert.details)["adjoint_lambda"]  # the last, as JSON keeps it
        if memo[1] is not None and conj == lam.conjugate():  # equal nonzero floats share their bits
            return memo[1]
        return memo[0] + (repr(conj.real), repr(conj.imag))


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _token(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def write_report(path, report, walks: WalkTable = None) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` to ``path``.

    The text is streamed, never held whole: list loops hand the pending
    parts to the file every ``_FLUSH_PARTS`` parts.  It goes to a
    temporary file beside ``path`` that replaces ``path`` only once it is
    complete, so a reader never sees a partial report.  Unlike
    ``json.dumps`` it does not look for reference cycles.  A certificate
    record is written as its ``certificate_to_json``: its walk's text once
    per indent and ``walk_key``, as a frame that each certificate fills in
    with its lambda texts from ``walks``, which other writers of the run
    may share.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    parts = []
    key_heads = {}  # str key -> '"key": '
    token_of = {**_TOKENS, float: _float_token}.get
    walks = walks or WalkTable()
    frames = {}  # (walk key, indent) -> (text segments, slot picker, adjoint)

    def certificate(cert, nl):
        # Emit a walk's text once per indent, with slot tokens, and split it
        # there; what that emit flushes goes to a buffer, not to the file.
        nonlocal parts, fh
        key = cert.walk_key
        frame = frames.get((key, nl))
        if frame is None:
            doc = certificate_to_json(cert)
            doc["lambdaRe"], doc["lambdaIm"] = _SLOTS[:2]
            adjoint = type(dict(cert.details).get("adjoint_lambda")) is complex
            if adjoint:
                doc["details"]["adjoint_lambda"] = {"re": _SLOTS[2], "im": _SLOTS[3]}
            saved, parts, fh = (parts, fh), [], io.StringIO()
            emit(doc, nl)
            text = (fh.getvalue() + "".join(parts)).split("\x01")
            parts, fh = saved
            frame = ([text[0], *[s[1:] for s in text[1:]]],
                     itemgetter(*[int(s[0]) for s in text[1:]]), adjoint)
            if key is not None:
                frames[key, nl] = frame
        segments, pick, adjoint = frame
        texts = walks.texts(cert, adjoint)
        if texts is None:
            lam, conj = cert.lam, adjoint and dict(cert.details)["adjoint_lambda"]
            tokens = map(_token, pick((lam.real, lam.imag) + (
                (conj.real, conj.imag) if adjoint else ())))
        else:
            picked = pick(texts)
            tokens = map(_NONFINITE.get, picked, picked)
        pieces = [None] * (2 * len(segments) - 1)
        pieces[::2] = segments
        pieces[1::2] = tokens
        parts += pieces

    def emit(o, nl):
        # Append the text of the container or certificate ``o``, which
        # opens at indent ``nl``.
        if isinstance(o, EigenExclusionCertificate):
            certificate(o, nl)
            return
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
    finally:  # emit and certificate call each other: free them, and walks, now
        del emit
