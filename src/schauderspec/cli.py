"""Batch front door: operator-description files in, reports and CSV out.

``schauderspec run spec.json --out results/`` parses the document, runs
the requested analysis, and writes ``report.json`` (plus CSV artifacts
with ``--csv``).  The ``results`` section of a report is deterministic:
two runs on the same document produce byte-identical bytes there, with
wall time kept outside it.

Exit codes: 0 success, 1 schema error, 2 unsupported operator class,
3 precondition violation, 4 certificate failure (step cap exceeded).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import (
    ConvergenceFailureError,
    SchauderSpecError,
    SpecFormatError,
    StepCapExceededError,
    UnsupportedClassError,
)
from .op_algebra import corner_entries, recognize_shift_form, unrecognized
from .schauder import (
    _analysed_subject,
    audit_deflation,
    classify_compact,
    deflate,
    is_compact_structural,
    schauder_spectrum,
)
from .serde import (
    RUN_PARAMS,
    WalkTable,
    check_param,
    parse_spec_document,
    report_to_json,
    scalar_to_json,
    sequence_to_json,
    validate_document,
    write_report,
)
from .spectral import (
    CertificateGridConfig,
    corner_eigs,
    grid_certificates,
    lambda_grid,
    sup_abs_weight,
)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_UNSUPPORTED = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATE = 4

_ERROR_KINDS = (
    (SpecFormatError, EXIT_SCHEMA, "schema-error"),
    (UnsupportedClassError, EXIT_UNSUPPORTED, "unsupported-class"),
    (StepCapExceededError, EXIT_CERTIFICATE, "certificate-failure"),
    (ConvergenceFailureError, EXIT_CERTIFICATE, "certificate-failure"),
    (SchauderSpecError, EXIT_PRECONDITION, "precondition-violation"),
)

DEFAULT_TRUNCATION = 64
_CSV_CHUNK = 512  # certificates.csv lines per write


def _run_config(params: dict) -> tuple:
    """The certificate grid and the audit truncation that ``params`` set.

    The truncation's row in ``RUN_PARAMS`` names no grid field, so it is
    the value left under ``None``.
    """
    fields = {field: params[key] for key, _kind, field in RUN_PARAMS
              if key in params}
    truncation = fields.pop(None, DEFAULT_TRUNCATION)
    return CertificateGridConfig(**fields), truncation


def _run_analysis(spec, cfg: CertificateGridConfig, truncation: int) -> dict:
    """The deterministic results section for one parsed document."""
    if spec.analysis == "schauder-spectrum":
        report = schauder_spectrum(spec.operator, cfg)
        return {"analysis": spec.analysis, "report": report_to_json(report)}
    if spec.analysis == "classify":
        subject = _analysed_subject(spec.operator)
        report = schauder_spectrum(subject, cfg)
        compact = is_compact_structural(subject)
        if compact is None:
            raise UnsupportedClassError("compactness is not structurally decidable")
        case = classify_compact(report, compact)
        return {
            "analysis": spec.analysis,
            "classificationCase": case,
            "report": report_to_json(report),
        }
    if spec.analysis == "deflate":
        result = deflate(spec.operator, cfg)
        exact, worst = audit_deflation(result, truncation)
        return {
            "analysis": spec.analysis,
            "lemmaPath": result.lemma_path,
            "coveredRegion": result.covered_region,
            "zeroCheck": {
                "injective": result.zero_check.injective,
                "denseRange": result.zero_check.dense_range,
                "certified": result.zero_check.certified,
                "detail": result.zero_check.detail,
            },
            "audit": {"window": truncation, "exact": exact, "maxAbsDiff": worst},
            "spreads": [
                {"domain": sequence_to_json(s.domain),
                 "image": sequence_to_json(s.image)}
                for s in result.spreads
            ],
            "notes": list(result.notes),
            "schauderSpectrum": {"kind": "empty"},
            "certificates": list(result.certificates),
        }
    if spec.analysis == "certify":
        rec = recognize_shift_form(spec.operator)
        if rec is None:
            raise unrecognized(spec.operator)
        certs = grid_certificates(
            rec.shift, lambda_grid(cfg, sup_abs_weight(rec.shift.weights)),
            cfg.bound, cfg.step_cap)
        return {"analysis": spec.analysis, "certificates": list(certs)}
    raise UnsupportedClassError(f"unknown analysis {spec.analysis!r}")


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_certificates(path: Path, certs, walks: WalkTable = None) -> str:
    """``certificates.csv``: csv.writer renders each walk's row tail once, by its
    ``walk_key``; the lambda texts from ``walks`` go in front; lines go out in chunks."""
    lines = ["lambda_re,lambda_im,side,kind,regime,block,witness_index,magnitude,bound\r\n"]
    writer = csv.writer(SimpleNamespace(write=lines.append))
    walks = walks or WalkTable()
    lam_of = walks.by_lam.get
    tails = {}  # walk key -> tail text
    with path.open("w", newline="") as fh:
        for cert in certs:
            key, lam = cert.walk_key, cert.lam
            tail = tails.get(key)
            if tail is None:
                magnitude, bound = walks.walk(cert)
                writer.writerow([cert.side, cert.recurrence_kind, cert.regime,
                                 scalar_to_json(dict(cert.details).get("block", 0)),
                                 cert.witness_index, magnitude, bound])
                tail = lines.pop()
                if key is not None:
                    tails[key] = tail
            texts = lam_of(lam) or walks.lam(lam)
            if texts:
                lines.append(f"{texts[0]},{texts[1]},{tail}")
            else:
                writer.writerow([repr(lam.real), repr(lam.imag)])  # quoted where needed
                lines.append(f"{lines.pop()[:-2]},{tail}")
            if len(lines) >= _CSV_CHUNK:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))
    return path.name


def _write_csv_artifacts(outdir: Path, spec, results: dict, truncation: int, walks=None) -> list:
    """Write the CSV artifacts and return their names.  Each goes to a temporary
    sibling; all replace their targets only once every one is complete."""
    written = {}  # name -> its temporary file

    def tmp(name):
        written[name] = outdir / (name + ".tmp")
        return written[name]

    try:
        certs = results.get("certificates") or results.get("report", {}).get(
            "certificates", [])
        if certs:
            _write_certificates(tmp("certificates.csv"), certs, walks)
        # Row-major over the numerically nonzero entries; the eigensolve reads
        # the same entries, and builds a dense corner only to fall back on LAPACK.
        entries = corner_entries(spec.operator, truncation)
        cells = sorted((key, complex(v)) for key, v in entries.items())
        _write_csv(tmp("matrix.csv"), ["i", "j", "re", "im"], (
            [i + 1, j + 1, repr(z.real), repr(z.imag)] for (i, j), z in cells if z))
        eigs = corner_eigs(entries, min(truncation, 512))
        _write_csv(tmp("eigs.csv"), ["re", "im"], (
            [repr(e.real), repr(e.imag)] for e in eigs))
    except BaseException:
        for path in written.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in written.items():
        os.replace(path, outdir / name)
    return list(written)


def _error_block(exc: Exception):
    for klass, code, kind in _ERROR_KINDS:
        if isinstance(exc, klass):
            block = {"kind": kind, "exitCode": code, "message": str(exc)}
            if isinstance(exc, SpecFormatError):
                block["path"] = exc.path
            return code, block
    raise exc


def run(spec_path: str, outdir: str, overrides: dict, write_csv: bool) -> int:
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {outdir}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    started = time.perf_counter()
    try:
        with open(spec_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except json.JSONDecodeError as exc:
        report = {
            "toolVersion": __version__,
            "error": {"kind": "schema-error", "exitCode": EXIT_SCHEMA,
                      "message": f"invalid JSON: {exc}"},
        }
        write_report(out / "report.json", report)
        print(f"error: invalid JSON in {spec_path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        spec = parse_spec_document(doc)
        params = dict(spec.params)
        for key, value in overrides.items():
            if value is not None:
                check_param(key, value, f"--{key}")
                params[key] = value
        cfg, truncation = _run_config(params)
        results = _run_analysis(spec, cfg, truncation)
        walks = WalkTable()  # both certificate writers read it; it ends with the run
        artifacts = []
        if write_csv:
            artifacts = _write_csv_artifacts(out, spec, results, truncation, walks)
    except Exception as exc:  # mapped to exit codes below
        code, block = _error_block(exc)
        report = {
            "toolVersion": __version__,
            "inputs": doc,
            "error": block,
            "wallTime": time.perf_counter() - started,
        }
        write_report(out / "report.json", report)
        print(f"error[{block['kind']}]: {block['message']}", file=sys.stderr)
        return code

    report = {
        "toolVersion": __version__,
        "inputs": spec.raw,
        "results": results,
        "auditedWindows": [truncation],
        "artifacts": artifacts,
        "wallTime": time.perf_counter() - started,
    }
    write_report(out / "report.json", report, walks)
    print(f"ok: {spec.analysis} report written to {out / 'report.json'}")
    return EXIT_OK


def validate(spec_path: str) -> int:
    try:
        with open(spec_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except json.JSONDecodeError as exc:
        print(f"$: invalid JSON: {exc}")
        return EXIT_SCHEMA
    diagnostics = validate_document(doc)
    for path, message in diagnostics:
        print(f"{path}: {message}")
    if diagnostics:
        return EXIT_SCHEMA
    print("ok: document is schema-valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schauderspec",
        description="Schauder spectra, classification and deflation for "
                    "structured operators on l2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an analysis from a spec file")
    runp.add_argument("spec", help="operator-description JSON file")
    runp.add_argument("--out", default=".", help="output directory")
    for key, kind, _field in RUN_PARAMS:
        runp.add_argument(f"--{key}", dest=key, default=None,
                          type=int if kind == "positive-int" else float)
    runp.add_argument("--csv", action="store_true",
                      help="write matrix/certificate/eigenvalue CSV artifacts")

    valp = sub.add_parser("validate", help="schema-check a spec file")
    valp.add_argument("spec", help="operator-description JSON file")
    return parser


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return validate(args.spec)
    overrides = {key: getattr(args, key) for key, _kind, _field in RUN_PARAMS}
    return run(args.spec, args.out, overrides, args.csv)


if __name__ == "__main__":
    sys.exit(main())
