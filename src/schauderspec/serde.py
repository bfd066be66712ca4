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
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
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
        "details": {k: scalar_to_json(v) for k, v in cert.details},
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


_FLUSH_PARTS = 512
# float.__repr__ spells the non-finite floats this way; json writes
# NaN, Infinity and -Infinity.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# Token functions of the exact JSON types; None marks a container.
_TOKENS = {str: encode_basestring_ascii, int: int.__repr__,
           float: lambda x: _NONFINITE.get(token := float.__repr__(x), token),
           bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__,
           dict: None, list: None, tuple: None, EigenExclusionCertificate: None}


def _token(o):
    """JSON token of a scalar, None for a container, by its first class in ``_TOKENS``."""
    for klass in type(o).__mro__:
        if klass in _TOKENS:
            to = _TOKENS[klass]
            return to and to(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _exact_token(value):
    """JSON token of a value of an exact JSON scalar type, else None."""
    to = _TOKENS.get(type(value))
    return to and to(value)


# certificate_to_json's text at indent "\n", keys sorted, with a NUL (which
# JSON text never holds) for each part of its lambda and, in its details, of
# a complex adjoint_lambda, imaginary first.
_CERTIFICATE = (
    '{\n  "bound": %s,\n  "coveredRegion": %s,\n  "details": %s,\n  "kind": %s,'
    '\n  "lambdaIm": \0,\n  "lambdaRe": \0,\n  "magnitude": %s,\n  "regime": %s,'
    '\n  "side": %s,\n  "startIndex": %s,\n  "witnessIndex": %s\n}')
_ADJOINT_LAMBDA = '{\n      "im": \0,\n      "re": \0\n    }'


def _report_frame(cert, nl: str, magnitude: str, bound: str) -> tuple:
    """``cert``'s report text at indent ``nl``, cut at the NULs of ``_CERTIFICATE``,
    with where a complex ``adjoint_lambda`` stands among its details (else None)
    and their number; ``magnitude`` and ``bound`` are the ``repr`` of those
    fields.  Empty unless each detail key is a str and each other value an
    exact JSON scalar."""
    details = dict(cert.details)  # the last of a repeated key, as JSON keeps it
    if not all(type(key) is str for key in details):
        return ()
    keys = sorted(details)
    values = [_ADJOINT_LAMBDA if key == "adjoint_lambda" and type(details[key]) is complex
              else _exact_token(details[key]) for key in keys]
    tokens = [
        _NONFINITE.get(bound, bound) if type(cert.bound) is float else _exact_token(cert.bound),
        _exact_token(cert.covered_region),
        _exact_token(cert.recurrence_kind),
        _NONFINITE.get(magnitude, magnitude) if type(cert.attained_magnitude) is float
        else _exact_token(cert.attained_magnitude),
        *map(_exact_token, (cert.regime, cert.side, cert.start_index, cert.witness_index))]
    if None in values or None in tokens:
        return ()
    tokens.insert(2, "{" + ",".join([f"\n    {encode_basestring_ascii(key)}: {value}" for key, value
                                     in zip(keys, values)]) + "\n  }" if keys else "{}")
    at = (list(details).index("adjoint_lambda")
          if type(details.get("adjoint_lambda")) is complex else None)
    return (_CERTIFICATE % tuple(tokens)).replace("\n", nl).split("\0"), at, len(details)


class WalkTable:
    """What a run's certificate writers share, each made once: ``by_key`` maps
    a ``walk_key`` to the ``repr`` of its walk's magnitude and bound (see
    ``walk``), and ``by_lam`` a lambda to its texts (see ``lam``)."""

    def __init__(self):
        self.by_key = {}
        self.by_lam = {}

    def walk(self, cert) -> tuple:
        """The ``repr`` of ``cert``'s magnitude and bound, kept by its ``walk_key`` if any."""
        key = cert.walk_key
        reprs = self.by_key.get(key)
        if reprs is None:
            reprs = (repr(cert.attained_magnitude), repr(cert.bound))
            if key is not None:
                self.by_key[key] = reprs
        return reprs

    def lam(self, lam):
        """The ``repr`` of ``lam``'s parts, then the report tokens of its parts
        and of its conjugate's imaginary part, kept; None unless its parts are
        nonzero and not nan (``0.0 == -0.0``, and nan equals nothing, so no
        other lambda can take its texts)."""
        if type(lam) is not complex or not (lam.real and lam.imag) or lam != lam:
            return None
        re, im = repr(lam.real), repr(lam.imag)
        conj = im[1:] if im[0] == "-" else "-" + im
        texts = self.by_lam[lam] = (re, im, *[_NONFINITE.get(t, t) for t in (re, im, conj)])
        return texts


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _token(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def write_report(path, report, walks: WalkTable = None) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` to ``path``.

    The text is streamed, never held whole: container loops hand the
    pending parts to the file every ``_FLUSH_PARTS`` parts.  It goes to a
    temporary file beside ``path`` that replaces ``path`` only once it is
    complete, so a reader never sees a partial report.  Unlike
    ``json.dumps`` it does not look for reference cycles.  A certificate is
    written as its ``certificate_to_json``: its walk's text, cut once per
    indent at the lambda parts, filled in with its lambda's tokens from
    ``walks``, which the CSV writer shares (or as that dict, if a detail is
    not a plain JSON scalar)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    parts = []
    walks = walks or WalkTable()
    lam_of = walks.by_lam.get
    frames = {}  # indent -> {walk key -> its _report_frame}

    def certificate(cert, cuts, nl):
        # Append the text of ``cert`` at indent ``nl``; ``cuts`` is frames[nl].
        key = cert.walk_key
        frame = cuts.get(key)
        if frame is None:
            frame = _report_frame(cert, nl, *walks.walk(cert))
            if key is not None:
                cuts[key] = frame
        if not frame:
            emit(certificate_to_json(cert), nl)
            return
        cut, at, count = frame
        lam = cert.lam
        texts = lam_of(lam) or walks.lam(lam)
        _re, _im, re, im, conj_im = texts or (None, None, _token(lam.real), _token(lam.imag), None)
        if at is None:
            a, b, c = cut
            parts.append(f"{a}{im}{b}{re}{c}")
            return
        details = cert.details
        conj = details[at][1] if len(details) == count else dict(details)["adjoint_lambda"]
        conj_re = re
        if not (texts and conj == lam.conjugate()):  # equal nonzero floats share their bits
            conj_re, conj_im = _token(conj.real), _token(conj.imag)
        a, b, c, d, e = cut
        parts.append(f"{a}{conj_im}{b}{conj_re}{c}{im}{d}{re}{e}")

    def emit(o, nl):
        # Append the text of the container or certificate ``o``, which
        # opens at indent ``nl``.
        if isinstance(o, EigenExclusionCertificate):
            certificate(o, frames.setdefault(nl, {}), nl)
            return
        if not o:
            parts.append("{}" if isinstance(o, dict) else "[]")
            return
        inner = nl + "  "
        head, sep = inner, "," + inner
        cuts = frames.setdefault(inner, {})
        if isinstance(o, dict):
            parts.append("{")
            # Distinct dict keys never compare equal, so sorting the keys
            # gives the order json.dumps gets from sorting the items.
            keys = sorted(o)
            items = zip([encode_basestring_ascii(key if type(key) is str else _key_text(key))
                         + ": " for key in keys], map(o.__getitem__, keys))
        else:
            parts.append("[")
            items = zip(repeat(""), o)
        for key_head, value in items:
            if type(value) is EigenExclusionCertificate:
                parts.append(head + key_head)
                certificate(value, cuts, inner)
            else:
                to = _TOKENS.get(type(value), _token)
                token = to and to(value)
                if token is None:
                    parts.append(head + key_head)
                    emit(value, inner)
                else:
                    parts.append(f"{head}{key_head}{token}")
            head = sep
            if len(parts) > _FLUSH_PARTS:
                fh.write("".join(parts))
                parts.clear()
        parts.append(nl + ("}" if isinstance(o, dict) else "]"))

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
