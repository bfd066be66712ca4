"""Correctness gate: every document run is checked outside the timed region.

A run of one document passes when

* its exit code is the one the generator expects;
* its ``results`` section (and ``certificates.csv``, when written) is
  byte-identical to the first run of the same document in this
  benchmark run, compared through the canonical dump
  ``json.dumps(results, indent=2, sort_keys=True)`` that the goldens use;
* that first run itself passed the deep checks: every certificate
  replays to relative 1e-12 through the library's reference replay
  ``replay_shift_certificate`` and exceeds its bound, every deflate
  audit reports ``exact: true``, and golden documents reproduce
  ``docs/goldens/<name>.results.json`` (and the certificate CSV) byte
  for byte.

Every miss counts against the run in ``failed / attempted``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from schauderspec.index_maps import sigma_bilateral
from schauderspec.op_algebra import (
    BlockDirectSum,
    Diagonal,
    ShiftForm,
    recognize_shift_form,
)
from schauderspec.serde import parse_spec_document
from schauderspec.spectral import (
    EigenExclusionCertificate,
    replay_shift_certificate,
)

REPLAY_RTOL = 1e-12


def canonical(results) -> bytes:
    return (json.dumps(results, indent=2, sort_keys=True) + "\n").encode()


def certificates_of(results: dict) -> list:
    if "certificates" in results:
        return results["certificates"]
    return results.get("report", {}).get("certificates", [])


def certificate_shifts(spec) -> list:
    """``(shift, count)`` pairs in the order the report lists certificates.

    ``count`` is ``None`` for "all remaining".  certify walks the
    recognized shift; deflate walks sigma-bilateral with the recognized
    diagonal weights (the two-spread construction); a spectrum lists one
    grid of direct and adjoint certificates per non-diagonal block.
    """
    op = spec.operator
    if spec.analysis in ("certify", "deflate"):
        rec = recognize_shift_form(op, window=64)
        if spec.analysis == "certify":
            return [(rec.shift, None)]
        return [(ShiftForm(sigma_bilateral(), rec.diagonal.weights), None)]
    per_grid = 2 * spec.params["grid-moduli"] * spec.params["grid-phases"]
    out = []
    for block in op.blocks if isinstance(op, BlockDirectSum) else (op,):
        if isinstance(block, Diagonal):
            continue
        rec = recognize_shift_form(block, window=64)
        if rec is not None and rec.shift.perm.tag != ("identity",):
            out.append((rec.shift, per_grid))
    return out


def _certificate(c: dict) -> EigenExclusionCertificate:
    return EigenExclusionCertificate(
        lam=complex(c["lambdaRe"], c["lambdaIm"]),
        witness_index=c["witnessIndex"],
        attained_magnitude=c["magnitude"],
        recurrence_kind=c["kind"],
        bound=c["bound"],
        regime=c["regime"],
        start_index=c["startIndex"],
        side=c["side"],
    )


def replay_misses(doc_json: dict, results: dict) -> list:
    """Replay every certificate of ``results``; one message per miss."""
    certs = certificates_of(results)
    if not certs:
        return []
    spec = parse_spec_document(doc_json)
    misses = []
    pos = 0
    for shift, count in certificate_shifts(spec):
        stop = len(certs) if count is None else pos + count
        for c in certs[pos:stop]:
            if c["kind"] != "scalar-shift":
                misses.append(f"{c['kind']} certificate cannot be replayed "
                              "from the document")
                continue
            mag = c["magnitude"]
            got = replay_shift_certificate(shift, _certificate(c))
            if abs(got - mag) > REPLAY_RTOL * abs(mag):
                misses.append(f"certificate at lambda=({c['lambdaRe']}, "
                              f"{c['lambdaIm']}) {c['side']} replays to {got!r},"
                              f" report says {mag!r}")
            if not mag > c["bound"]:
                misses.append(f"certificate magnitude {mag!r} does not exceed "
                              f"its bound {c['bound']!r}")
        pos = stop
    if pos != len(certs):
        misses.append(f"{len(certs)} certificates, {pos} accounted for by "
                      "the document's shifts")
    return misses


class Gate:
    """Checks document runs and keeps the counts behind ``fail_ratio``."""

    def __init__(self, golden_dir: Path):
        self.golden_dir = golden_dir
        self.reference = {}  # doc name -> (digest, reference passed, results)
        self.attempted = 0
        self.failed = 0
        self.misses = []  # (doc name, message) for the log

    def check(self, doc, exit_code: int, outdir: Path) -> bool:
        """Check one run of ``doc`` whose outputs are in ``outdir``."""
        self.attempted += 1
        misses = []
        if exit_code != doc.expected_exit:
            misses.append(f"exit code {exit_code}, expected {doc.expected_exit}")
        results, digest = self._outputs(outdir)
        if doc.expected_exit and digest != ("error", doc.expected_exit):
            misses.append(f"no error report with exit code {doc.expected_exit}")
        if doc.name not in self.reference:
            ref_misses = self.reference_misses(doc, results, outdir)
            self.reference[doc.name] = (digest, not ref_misses, results)
            misses += ref_misses
        else:
            ref_digest, ref_ok, _ = self.reference[doc.name]
            if digest != ref_digest:
                misses.append("outputs differ from the first run")
            if not ref_ok:
                misses.append("the first run of this document failed its checks")
        if misses:
            self.failed += 1
            self.misses.extend((doc.name, m) for m in misses)
        return not misses

    @staticmethod
    def _outputs(outdir: Path):
        report_path = outdir / "report.json"
        if not report_path.is_file():
            return None, None
        report = json.loads(report_path.read_text())
        if "results" not in report:
            return None, ("error", report.get("error", {}).get("exitCode"))
        h = hashlib.sha256(json.dumps(report["results"], sort_keys=True,
                                      separators=(",", ":")).encode())
        csv_path = outdir / "certificates.csv"
        if csv_path.is_file():
            h.update(csv_path.read_bytes())
        return report["results"], h.hexdigest()

    def reference_misses(self, doc, results, outdir: Path) -> list:
        """Deep checks on the first run of a document."""
        if doc.expected_exit != 0:
            return []
        if results is None:
            return ["no results section"]
        try:
            misses = replay_misses(json.loads(doc.path.read_text()), results)
        except Exception as exc:  # the run goes on; the document fails
            misses = [f"certificate replay raised {exc!r}"]
        if results.get("analysis") == "deflate" and \
                results.get("audit", {}).get("exact") is not True:
            misses.append("deflate audit is not exact")
        if doc.golden:
            want = (self.golden_dir / f"{doc.golden}.results.json").read_bytes()
            if canonical(results) != want:
                misses.append(f"results differ from golden {doc.golden}")
            want_csv = self.golden_dir / f"{doc.golden}.certificates.csv"
            got_csv = outdir / "certificates.csv"
            if want_csv.is_file() and (not got_csv.is_file() or
                                       got_csv.read_bytes() != want_csv.read_bytes()):
                misses.append(f"certificates.csv differs from golden {doc.golden}")
        return misses

    def self_test(self, docs) -> bool:
        """The gate must flag a certificate magnitude off by relative 1e-9."""
        for doc in docs:
            ref = self.reference.get(doc.name)
            if ref is None or ref[2] is None or not certificates_of(ref[2]):
                continue
            results = copy.deepcopy(ref[2])
            certificates_of(results)[0]["magnitude"] *= 1 + 1e-9
            return bool(replay_misses(json.loads(doc.path.read_text()),
                                      results))
        return False

    def workload_properties(self) -> dict:
        """Certificate statistics of the first run of every document."""
        certs = [c for _, _, results in self.reference.values() if results
                 for c in certificates_of(results)]
        distinct = sum(
            len({(abs(complex(c["lambdaRe"], c["lambdaIm"])), c["side"])
                 for c in certificates_of(results)})
            for _, _, results in self.reference.values() if results)
        return {
            "certificates": len(certs),
            "witness_steps": sum(c["witnessIndex"] for c in certs),
            "max_witness_step": max((c["witnessIndex"] for c in certs),
                                    default=0),
            "distinct_moduli_share": distinct / len(certs) if certs else 0.0,
        }

    def deepest_walk(self, docs):
        """``(shift, steps)``: the walked shift of the document with the
        most witness steps, and its deepest witness step."""
        walks = []
        for doc in docs:
            ref = self.reference.get(doc.name)
            steps = [c["witnessIndex"]
                     for c in certificates_of(ref[2] if ref and ref[2] else {})]
            if steps:
                walks.append((sum(steps), max(steps), doc))
        if not walks:
            return None
        _, deepest, doc = max(walks, key=lambda w: w[0])
        spec = parse_spec_document(json.loads(doc.path.read_text()))
        return certificate_shifts(spec)[0][0], deepest
