import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schauderspec import cibws, recognize_shift_form, replay_shift_certificate, truncate_complex
from schauderspec import CertificateGridConfig, cli, errors
from schauderspec.cli import main
from schauderspec.serde import (
    GRAMMAR,
    RUN_PARAMS,
    certificate_to_json,
    parse_spec_document,
    WalkTable,
    validate_document,
    write_report,
)
from schauderspec.errors import ConvergenceFailureError, SpecFormatError
from schauderspec.records import replace
from schauderspec.spectral import EigenExclusionCertificate

REPO = Path(__file__).resolve().parent.parent
SMALL_PARAMS = {"grid-moduli": 4, "grid-phases": 4}


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def diag_spec(analysis="schauder-spectrum", params=SMALL_PARAMS):
    return {
        "version": 1,
        "operator": {
            "op": "diagonal",
            "weights": {"rule": "power-law",
                        "scale": {"fraction": [1, 1]}, "exponent": 1},
        },
        "analysis": analysis,
        "params": dict(params),
    }


def cibws_spec(analysis="deflate"):
    return {"version": 1, "operator": {"op": "cibws"}, "analysis": analysis,
            "params": dict(SMALL_PARAMS)}


# (exit code, error kind) for each library error class
ERROR_OUTCOMES = {
    errors.SpecFormatError: (1, "schema-error"),
    errors.UnsupportedClassError: (2, "unsupported-class"),
    errors.PreconditionViolatedError: (3, "precondition-violation"),
    errors.StepCapExceededError: (4, "certificate-failure"),
    errors.NotSummableError: (3, "precondition-violation"),
    errors.EmptyInputError: (3, "precondition-violation"),
    errors.NotCompactError: (3, "precondition-violation"),
    errors.ConvergenceFailureError: (4, "certificate-failure"),
    errors.SchauderSpecError: (3, "precondition-violation"),
}


class TestRun:
    def test_diagonal_spectrum_report(self, tmp_path):
        spec = write_spec(tmp_path, "diag.json", diag_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rep = report["results"]["report"]
        assert rep["members"]["kind"] == "sequence-to-zero"
        assert rep["members"]["includesZero"] is False
        assert rep["members"]["sample"][1] == {"fraction": [1, 2]}
        assert rep["classificationCase"] == 5

    def test_identity_deflate_unsupported(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "id.json", {
            "version": 1,
            "operator": {"op": "permutation-unitary",
                         "of": {"permutation": "identity"}},
            "analysis": "deflate",
        })
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["kind"] == "unsupported-class"
        assert report["error"]["exitCode"] == 2
        assert "point spectrum {1}" in report["error"]["message"]

    def test_backward_shift_precondition_exit(self, tmp_path):
        spec = write_spec(tmp_path, "back.json", {
            "version": 1,
            "operator": {
                "op": "spread",
                "domain": {"sequence": "arithmetic", "start": 2, "step": 1},
                "image": {"sequence": "arithmetic", "start": 1, "step": 1},
            },
            "analysis": "deflate",
        })
        assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 3

    def test_zero_weight_past_the_schauder_probe_exit(self, tmp_path):
        # the offset rule decides from its prefix that the zero at index
        # 1001 is a term, and places it
        prefix = [1] + [{"fraction": [1, k]} for k in range(2, 11)] + [0]
        weights = {"rule": "offset", "offset": 0, "inner": {
            "rule": "repeated", "times": 100, "inner": {
                "rule": "explicit-then", "prefix": prefix,
                "tail": {"rule": "power-law", "scale": {"fraction": [1, 11]},
                         "exponent": 1}}}}
        spec = write_spec(tmp_path, "late-zero.json", {
            "version": 1,
            "operator": {"op": "diagonal", "weights": weights},
            "analysis": "deflate",
            "params": {"grid-moduli": 8, "grid-phases": 2},
        })
        out = tmp_path / "o"
        assert main(["run", str(spec), "--out", str(out)]) == 3
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "precondition-violation"
        assert error["message"] == ("not a Schauder operator: not-injective "
                                    "(witness index 1001); zero diagonal entry")

    def test_step_cap_exit_code(self, tmp_path):
        spec = write_spec(tmp_path, "cap.json", diag_spec("deflate"))
        code = main(["run", str(spec), "--out", str(tmp_path / "o"),
                     "--step-cap", "2"])
        assert code == 4
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["error"]["kind"] == "certificate-failure"

    def test_cibws_deflate_with_certificate_table(self, tmp_path):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), "--csv"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["schauderSpectrum"] == {"kind": "empty"}
        assert report["results"]["audit"]["exact"] is True
        rows = (out / "certificates.csv").read_text().strip().splitlines()
        assert rows[0].startswith("lambda_re,lambda_im,side")
        assert len(rows) == 1 + 2 * 16  # direct + adjoint per grid point
        cells = [row.split(",") for row in
                 (out / "matrix.csv").read_text().splitlines()]
        assert cells[0] == ["i", "j", "re", "im"]
        got = [(int(i), int(j), float(re), float(im))
               for i, j, re, im in cells[1:]]
        M = truncate_complex(parse_spec_document(cibws_spec()).operator, 64)
        want = [(i + 1, j + 1, M[i, j].real, M[i, j].imag)
                for i in range(64) for j in range(64) if M[i, j] != 0]
        assert got == want
        assert (out / "eigs.csv").exists()

    def test_certificate_table_matches_uncached_repr(self, tmp_path):
        # signed zeros compare equal, so each must keep its own text
        import csv
        import io

        from schauderspec import grid_certificates

        spec = parse_spec_document(cibws_spec())
        grid = [complex(re, im) for re, im in
                [(0.5, 0.0), (0.5, -0.0), (-0.5, -0.0), (-0.5, 0.0),
                 (0.0, 2.0), (-0.0, 2.0), (-0.0, -2.0), (0.5, 0.0), (0.5, -0.0)]]
        records = list(grid_certificates(cibws(), grid, 1e12))
        written = cli._write_csv_artifacts(tmp_path, spec,
                                           {"certificates": records}, 16)
        assert written[0] == "certificates.csv"
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["lambda_re", "lambda_im", "side", "kind", "regime",
                         "block", "witness_index", "magnitude", "bound"])
        for c in map(certificate_to_json, records):
            writer.writerow([repr(c["lambdaRe"]), repr(c["lambdaIm"]), c["side"],
                             c["kind"], c["regime"], c["details"].get("block", 0),
                             c["witnessIndex"], repr(c["magnitude"]),
                             repr(c["bound"])])
        got = (tmp_path / "certificates.csv").read_bytes().decode()
        assert got == want.getvalue()
        assert "-0.0,direct" in got and ",0.0,direct" in got
        assert "\n-0.0,2.0," in got and "\n0.0,2.0," in got

    def test_csv_rows_replay(self, tmp_path):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), "--csv"]) == 0
        report = json.loads((out / "report.json").read_text())
        shift = cibws()
        from schauderspec.spectral import EigenExclusionCertificate

        rows = (out / "certificates.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            lam_re, lam_im, side, kind, regime, block, widx, mag, bound = \
                row.split(",")
            cert = EigenExclusionCertificate(
                lam=complex(float(lam_re), float(lam_im)),
                witness_index=int(widx),
                attained_magnitude=float(mag),
                recurrence_kind=kind, bound=float(bound), regime=regime,
                side=side,
            )
            replayed = replay_shift_certificate(shift, cert)
            assert abs(replayed - cert.attained_magnitude) <= \
                1e-12 * cert.attained_magnitude

    def test_determinism_byte_identical_results(self, tmp_path):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", str(spec), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            blobs.append(json.dumps(report["results"], sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_flag_overrides_file_params(self, tmp_path):
        spec = write_spec(tmp_path, "diag.json", diag_spec("deflate"))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out),
                     "--grid-moduli", "2", "--grid-phases", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        lams = {(c["lambdaRe"], c["lambdaIm"])
                for c in report["results"]["certificates"]}
        assert len(lams) == 4

    @pytest.mark.parametrize("flag, value", [
        ("--truncation", "0"),
        ("--grid-moduli", "0"),
        ("--grid-phases", "-1"),
        ("--step-cap", "0"),
        ("--bound", "0"),
        ("--min-modulus", "-1e-3"),
        ("--max-modulus", "0"),
        ("--bound", "nan"),
        ("--bound", "inf"),
        ("--min-modulus", "inf"),
        ("--min-modulus", "nan"),
        ("--max-modulus", "nan"),
        ("--max-modulus", "inf"),
    ])
    def test_bad_flag_is_schema_error(self, tmp_path, flag, value):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), f"{flag}={value}"]) == 1
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "schema-error"
        assert error["exitCode"] == 1
        assert error["path"] == flag

    @pytest.mark.parametrize("key", ["bound", "min-modulus", "max-modulus"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_param_in_file_is_schema_error(self, tmp_path, key, value):
        doc = cibws_spec()
        doc["params"][key] = value
        spec = write_spec(tmp_path, "cibws.json", doc)  # NaN / Infinity tokens
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 1
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "schema-error"
        assert error["path"] == f"$.params.{key}"

    @pytest.mark.parametrize("flags, lo, hi", [
        (["--min-modulus", "2", "--max-modulus", "0.5"], 2.0, 20.0),
        # the default top, 10 x the largest weight (1), is not above 10
        (["--min-modulus", "10"], 10.0, 100.0),
        (["--grid-moduli", "1"], 0.001, 0.001),  # only min-modulus is walked
    ])
    def test_covered_region_states_walked_moduli(self, tmp_path, flags, lo, hi):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), *flags]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert f"moduli in [{lo!r}, {hi!r}]" in results["coveredRegion"]
        moduli = [abs(complex(c["lambdaRe"], c["lambdaIm"]))
                  for c in results["certificates"]]
        assert math.isclose(min(moduli), lo, rel_tol=1e-12)
        assert math.isclose(max(moduli), hi, rel_tol=1e-12)

    def test_large_truncation_csv_builds_no_dense_corner(self, tmp_path):
        # A dense 3000 x 3000 complex corner alone would take 144 MB.
        spec = write_spec(tmp_path, "diag.json", diag_spec())
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["run", str(spec), "--out", str(out),
                         "--truncation", "3000", "--csv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = (out / "matrix.csv").read_text().splitlines()
        assert rows[1:] == [f"{k},{k},{1 / k!r},0.0" for k in range(1, 3001)]
        eigs = (out / "eigs.csv").read_text().splitlines()
        assert eigs[1:] == [f"{1 / k!r},0.0" for k in range(512, 0, -1)]
        assert peak < 16e6

    def test_overlapping_sum_corner_goes_through_lapack(self, tmp_path, monkeypatch):
        # diag(1/n) + sigma's unitary: two nonzero entries in most columns
        import numpy as np

        from schauderspec import dense_eigs

        spec = parse_spec_document({
            "version": 1, "analysis": "schauder-spectrum", "operator": {
                "op": "sum", "terms": [
                    diag_spec()["operator"],
                    {"op": "permutation-unitary",
                     "of": {"permutation": "sigma-bilateral"}}]}})
        want = dense_eigs(truncate_complex(spec.operator, 16))
        calls, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(np.shape(a)) or eig(a))
        assert cli._write_csv_artifacts(tmp_path, spec, {}, 16) == [
            "matrix.csv", "eigs.csv"]
        assert calls == [(16, 16)]
        rows = (tmp_path / "eigs.csv").read_text().splitlines()
        assert rows[1:] == [f"{z.real!r},{z.imag!r}" for z in want]

    def test_csv_artifact_failure_maps_to_exit_code(self, tmp_path, monkeypatch):
        def fail(entries, n):
            raise ConvergenceFailureError("residual guarantee violated")

        monkeypatch.setattr(cli, "corner_eigs", fail)
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), "--csv"]) == 4
        report = json.loads((out / "report.json").read_text())
        assert "results" not in report
        assert report["error"]["kind"] == "certificate-failure"
        assert report["error"]["exitCode"] == 4
        assert "residual guarantee" in report["error"]["message"]
        # the CSVs written before the failure are temporaries, removed with it
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_classify_analysis(self, tmp_path):
        spec = write_spec(tmp_path, "diag.json", diag_spec("classify"))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["classificationCase"] == 5

    def test_certify_analysis(self, tmp_path):
        spec = write_spec(tmp_path, "c.json", cibws_spec("certify"))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        certs = report["results"]["certificates"]
        assert len(certs) == 2 * 16
        assert all(c["magnitude"] > c["bound"] for c in certs)

    @pytest.mark.parametrize("analysis", ["schauder-spectrum", "classify", "certify"])
    def test_multi_orbit_composition_is_unsupported(self, tmp_path, analysis):
        # sigma o (101 <-> 103) o diag(1/n): the swap closes 103 into a
        # fixed point, T e_103 = (1/103) e_103, so no certificate may
        # claim the spectrum is empty
        images = list(range(1, 104))
        images[100], images[102] = 103, 101
        unitary = {"op": "permutation-unitary", "of": {"permutation": "sigma-bilateral"}}
        swap = {"op": "permutation-unitary",
                "of": {"permutation": "one-line", "images": images}}
        spec = write_spec(tmp_path, "swap.json", {
            "version": 1, "analysis": analysis, "params": {"grid-moduli": 2, "grid-phases": 2},
            "operator": {"op": "product", "left": unitary, "right": {
                "op": "product", "left": swap,
                "right": diag_spec()["operator"]}},
        })
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        block = json.loads((out / "report.json").read_text())["error"]
        assert block["kind"] == "unsupported-class"
        assert "single-orbit" in block["message"]
        assert block["message"].endswith(
            "it has 1 infinite orbit and the finite cycle (103)")

    def test_examples_decide_their_orbit_structure(self, tmp_path):
        # docs/examples: the composition above, and sigma o (18 19 20), whose
        # one orbit is all of N, so every certificate it writes replays
        out = tmp_path / "cycle"
        doc = REPO / "docs" / "examples" / "finite-cycle-103.json"
        assert main(["run", str(doc), "--out", str(out)]) == 2
        block = json.loads((out / "report.json").read_text())["error"]
        assert "the finite cycle (103)" in block["message"]
        out = tmp_path / "single"
        doc = REPO / "docs" / "examples" / "single-orbit-composition.json"
        assert main(["run", str(doc), "--out", str(out)]) == 0
        shift = recognize_shift_form(
            parse_spec_document(json.loads(doc.read_text())).operator).shift
        certs = json.loads((out / "report.json").read_text())["results"]["certificates"]
        assert len(certs) == 32
        for c in certs:
            cert = EigenExclusionCertificate(
                lam=complex(c["lambdaRe"], c["lambdaIm"]), witness_index=c["witnessIndex"],
                attained_magnitude=c["magnitude"], recurrence_kind=c["kind"],
                bound=c["bound"], regime=c["regime"], start_index=c["startIndex"],
                side=c["side"])
            replayed = replay_shift_certificate(shift, cert)
            assert abs(replayed - cert.attained_magnitude) <= 1e-12 * cert.attained_magnitude
            assert replayed > cert.bound

    def test_zero_weight_at_1_and_at_100_report_alike(self, tmp_path):
        # docs/examples: 1/2 * diag(1, .., 1, 0, 1, ..) with its zero at index
        # 1 or 100; recognition reads no window, so both are scaled diagonals
        # and the exact value set decides both: {1/2, 0}, each not-injective
        results = []
        for at in (1, 100):
            out = tmp_path / f"at-{at}"
            doc = REPO / "docs" / "examples" / f"zero-weight-at-{at}.json"
            assert main(["run", str(doc), "--out", str(out)]) == 0
            results.append(json.loads((out / "report.json").read_text())["results"])
        assert results[0] == results[1]
        report = results[0]["report"]
        assert report["members"] == {"kind": "finite",
                                     "values": [{"fraction": [1, 2]}, {"fraction": [0, 1]}]}
        assert [r["reason"] for r in report["perMemberReason"]] == ["not-injective"] * 2
        # sigma times diag(0, 1, 1/2, ..) is recognized too; its orbit walk
        # refuses it by its own precondition, not as an unrecognized operator
        spec = write_spec(tmp_path, "sigma-zero-at-1.json", {
            "version": 1, "analysis": "schauder-spectrum", "params": SMALL_PARAMS,
            "operator": {"op": "product",
                         "left": {"op": "permutation-unitary",
                                  "of": {"permutation": "sigma-bilateral"}},
                         "right": {"op": "diagonal", "weights": {
                             "rule": "explicit-then", "prefix": [0],
                             "tail": diag_spec()["operator"]["weights"]}}}})
        assert main(["run", str(spec), "--out", str(tmp_path / "sigma")]) == 3
        error = json.loads((tmp_path / "sigma" / "report.json").read_text())["error"]
        assert error["message"] == "weight magnitudes are not nonincreasing: they increase at index 1"

    @pytest.mark.parametrize("k", [50, 70])
    def test_deflate_refuses_a_rise_inside_and_past_the_probe_window(self, tmp_path, k):
        # docs/examples: diag(1, 1/2, .., 1/k, 1, 1/2, ..) rises after index k,
        # inside (50) or past (70) the 64 weights the premise was once read off
        doc = REPO / "docs" / "examples" / f"rise-after-{k}.json"
        assert main(["run", str(doc), "--out", str(tmp_path)]) == 3
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["message"] == f"weights increase at index {k}: Fraction(1, {k}) < Fraction(1, 1)"

    def test_deflate_names_a_zero_that_the_rule_does_not_decide(self, tmp_path):
        # docs/examples: diag(1/2 (600 times), 0, 1, 1/2, ..) as an affine rule,
        # which decides no zero; the zero search reads the witness at 601
        doc = REPO / "docs" / "examples" / "zero-weight-at-601.json"
        assert main(["run", str(doc), "--out", str(tmp_path)]) == 3
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["message"] == ("not a Schauder operator: not-injective "
                                    "(witness index 601); zero diagonal entry")

    def test_deflate_refuses_the_adjoint_of_a_rise_alike(self, tmp_path):
        # docs/examples: the adjoint of rise-after-70.json, the same operator,
        # as its weights are real; they are read through the adjoint exactly
        doc = REPO / "docs" / "examples" / "adjoint-rise-after-70.json"
        assert main(["run", str(doc), "--out", str(tmp_path)]) == 3
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["message"] == "weights increase at index 70: Fraction(1, 70) < Fraction(1, 1)"

    @pytest.mark.parametrize("k", [20, 40])
    def test_certify_refuses_a_rise_inside_and_past_the_probe_window(self, tmp_path, k):
        # sigma * diag(1, 1/2, .., 1/k, 1, 1/2, ..) rises after index k, inside
        # (20) or past (40) the 32 weight magnitudes the walk once probed; its
        # double adjoint is the same operator, and is refused alike
        weights = {"rule": "explicit-then",
                   "prefix": [1] + [{"fraction": [1, j]} for j in range(2, k + 1)],
                   "tail": diag_spec()["operator"]["weights"]}
        operator = {"op": "product",
                    "left": {"op": "permutation-unitary", "of": {"permutation": "sigma-bilateral"}},
                    "right": {"op": "diagonal", "weights": weights}}
        double = {"op": "adjoint", "inner": {"op": "adjoint", "inner": operator}}
        for name, op in (("rise", operator), ("double-adjoint", double)):
            spec = write_spec(tmp_path, f"{name}.json", {
                "version": 1, "analysis": "certify", "params": SMALL_PARAMS, "operator": op})
            assert main(["run", str(spec), "--out", str(tmp_path / name)]) == 3
            error = json.loads((tmp_path / name / "report.json").read_text())["error"]
            assert error["message"] == (
                f"weight magnitudes are not nonincreasing: they increase at index {k}")

    def test_a_zero_on_the_orbit_walk_is_refused(self, tmp_path):
        # sigma * diag(w) with w = (0, 1, 1/2, ..) or (1 (99 times), 0, 1, 1/2, ..):
        # the zero lies on the walk, and the rise after it refuses both;
        # with (1 (99 times), 0, 0, ..) nothing rises, and the zero refuses it
        recip = diag_spec()["operator"]["weights"]
        zero = {"rule": "constant", "value": 0}
        for ones, tail, message in (
                (0, recip, "weight magnitudes are not nonincreasing: they increase at index 1"),
                (99, recip, "weight magnitudes are not nonincreasing: they increase at index 100"),
                (99, zero, "zero weight at index 100; run kernel_trivial instead")):
            for analysis in ("schauder-spectrum", "certify"):
                name = f"{analysis}-zero-after-{ones}-then-{tail['rule']}"
                spec = write_spec(tmp_path, f"{name}.json", {
                    "version": 1, "analysis": analysis, "params": SMALL_PARAMS,
                    "operator": {"op": "product",
                                 "left": {"op": "permutation-unitary",
                                          "of": {"permutation": "sigma-bilateral"}},
                                 "right": {"op": "diagonal", "weights": {
                                     "rule": "explicit-then", "prefix": [1] * ones + [0],
                                     "tail": tail}}}})
                out = tmp_path / name
                assert main(["run", str(spec), "--out", str(out)]) == 3
                error = json.loads((out / "report.json").read_text())["error"]
                assert error["message"] == message

    def test_a_zero_read_through_an_adjoint_is_named(self, tmp_path):
        # the adjoint of sigma * diag(1, 1, 0, 1/4, ..) reads the zero at 3
        # through the permutation: its own weight 5 is zero
        spec = write_spec(tmp_path, "adjoint-zero.json", {
            "version": 1, "analysis": "deflate", "params": SMALL_PARAMS,
            "operator": {"op": "adjoint", "inner": {
                "op": "product",
                "left": {"op": "permutation-unitary", "of": {"permutation": "sigma-bilateral"}},
                "right": {"op": "diagonal", "weights": {
                    "rule": "explicit-then", "prefix": [1, 1, 0],
                    "tail": diag_spec()["operator"]["weights"]}}}}})
        out = tmp_path / "adjoint-zero"
        assert main(["run", str(spec), "--out", str(out)]) == 3
        assert json.loads((out / "report.json").read_text())["error"]["message"] == (
            "not a Schauder operator: not-injective (witness index 5); weight at index 5 is zero")

    def test_a_block_sum_whose_members_rise_is_refused(self, tmp_path):
        # block 0 is diag(1, 1/2, .., 1/70, 1, 1/2, ..); a block sum merges its
        # members with the other block's by magnitude, which needs them to fall
        rise = json.loads((REPO / "docs" / "examples" / "rise-after-70.json").read_text())
        spec = write_spec(tmp_path, "block-rise.json", {
            "version": 1, "analysis": "schauder-spectrum", "params": SMALL_PARAMS,
            "operator": {"op": "block-direct-sum",
                         "blocks": [rise["operator"], diag_spec()["operator"]],
                         "partition": [{"sequence": "arithmetic", "start": 1, "step": 2},
                                       {"sequence": "arithmetic", "start": 2, "step": 2}]}})
        # block 0 is diag(1/2, 1/2, 1/2, 0, 1, 1/2, ..) under a rule that
        # decides no monotony: the merge would stall at its 0 and never reach 1
        zero = REPO / "docs" / "examples" / "block-sum-rise-after-zero.json"
        for path, at in ((spec, 70), (zero, 4)):
            out = tmp_path / f"out-{at}"
            assert main(["run", str(path), "--out", str(out)]) == 2
            error = json.loads((out / "report.json").read_text())["error"]
            assert error == {"kind": "unsupported-class", "exitCode": 2, "message": (
                f"block 0: its members rise at index {at}; a block sum's members are "
                "merged only by nonincreasing magnitude")}

    def test_adjoint_of_a_constant_diagonal_has_its_value(self, tmp_path):
        # the adjoint's weights are the diagonal's, read exactly: {2}
        spec = write_spec(tmp_path, "adjoint-const.json", {
            "version": 1, "analysis": "schauder-spectrum", "params": SMALL_PARAMS,
            "operator": {"op": "adjoint", "inner": {
                "op": "diagonal", "weights": {"rule": "constant", "value": 2}}}})
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["report"]
        assert report["members"] == {"kind": "finite", "values": [2]}

    def test_column_past_the_recognition_window_is_unsupported(self, tmp_path):
        # diag(1/n) + the spread {100, 101, ..} -> {101, 102, ..}: the
        # first 99 columns carry one entry each and column 100 two; the
        # sum of a diagonal and a spread has no shift form at all
        spread = {"op": "spread",
                  "domain": {"sequence": "arithmetic", "start": 100, "step": 1},
                  "image": {"sequence": "arithmetic", "start": 101, "step": 1}}
        spec = write_spec(tmp_path, "late-overlap.json", {
            "version": 1, "analysis": "deflate",
            "params": {"grid-moduli": 2, "grid-phases": 2, "truncation": 128},
            "operator": {"op": "sum", "terms": [diag_spec()["operator"], spread]},
        })
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        block = json.loads((out / "report.json").read_text())["error"]
        assert block == {"kind": "unsupported-class", "exitCode": 2,
                         "message": "operator is not permutation-weighted: "
                                    "recognition stops at a Sum of non-spread terms"}

    def test_row_past_the_window_hit_by_two_spreads_is_unsupported(self, tmp_path):
        # the identity spread plus {100, 101, ..} -> {101, 102, ..}: row
        # 101 and column 100 are each hit by both spreads, so the sum is no
        # permutation; the refusal names the first such line, column 100
        def spread(domain, image):
            return {"op": "spread",
                    "domain": {"sequence": "arithmetic", "start": domain, "step": 1},
                    "image": {"sequence": "arithmetic", "start": image, "step": 1}}

        spec = write_spec(tmp_path, "late-double-row.json", {
            "version": 1, "analysis": "deflate",
            "params": {"grid-moduli": 2, "grid-phases": 2, "truncation": 128},
            "operator": {"op": "product",
                         "left": {"op": "sum", "terms": [spread(1, 1), spread(100, 101)]},
                         "right": diag_spec()["operator"]},
        })
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        block = json.loads((out / "report.json").read_text())["error"]
        assert block == {"kind": "unsupported-class", "exitCode": 2,
                         "message": "operator is not permutation-weighted: recognition "
                                    "stops at a Sum of spreads: column 100 is hit by 2 spreads"}

    @pytest.mark.parametrize("analysis, flags", [
        ("schauder-spectrum", ["--csv"]),
        ("deflate", []),
    ])
    def test_partition_that_misses_an_index(self, tmp_path, analysis, flags):
        # both cells are the odd numbers, so they share 1 and no cell holds 2:
        # the partition is decided when the document is read, before any
        # analysis, and the least faulty index is named
        odds = {"sequence": "arithmetic", "start": 1, "step": 2}
        spec = write_spec(tmp_path, "odds-twice.json", {
            "version": 1, "analysis": analysis, "params": dict(SMALL_PARAMS),
            "operator": {"op": "block-direct-sum",
                         "blocks": [diag_spec()["operator"], diag_spec()["operator"]],
                         "partition": [odds, odds]},
        })
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), *flags]) == 1
        block = json.loads((out / "report.json").read_text())["error"]
        assert block == {"kind": "schema-error", "exitCode": 1, "path": "$.operator.partition",
                         "message": "$.operator.partition: cells 0 and 1 share "
                                    "the index 1"}
        assert main(["validate", str(spec)]) == 1

    def test_power_law_overflow_is_unsupported(self, tmp_path):
        # 6 ** 400.0 is past the float range; validate cannot know that
        spec = write_spec(tmp_path, "steep.json", {
            "version": 1, "analysis": "schauder-spectrum", "params": dict(SMALL_PARAMS),
            "operator": {"op": "diagonal", "weights": {
                "rule": "power-law", "scale": 1.0, "exponent": 400.0}}})
        assert main(["validate", str(spec)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        block = json.loads((out / "report.json").read_text())["error"]
        assert block == {"kind": "unsupported-class", "exitCode": 2,
                         "message": "power-law weight at index 6 is out of float "
                                    "range: 6 ** 400.0 overflows"}

    @pytest.mark.parametrize("weights, values", [
        ({"rule": "power-law", "scale": {"fraction": [1, 10]}, "exponent": 0},
         [{"fraction": [1, 10]}]),
        ({"rule": "geometric", "scale": 2, "ratio": 1}, [2]),
        ({"rule": "scaled", "factor": 2, "inner": {
            "rule": "explicit-then", "prefix": [3], "tail": {"rule": "constant", "value": 1}}},
         [6, 2]),
    ], ids=["power-law-exponent-0", "geometric-ratio-1", "scaled-explicit-then"])
    def test_constant_valued_rules_have_finite_spectra(self, tmp_path, weights, values):
        # each member is the rule's own value: the power law's is a Fraction
        spec = write_spec(tmp_path, "const.json", {
            "version": 1, "analysis": "schauder-spectrum", "params": dict(SMALL_PARAMS),
            "operator": {"op": "diagonal", "weights": weights}})
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        members = json.loads((out / "report.json").read_text())["results"]["report"]["members"]
        assert members == {"kind": "finite", "values": values}

    @pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
    def test_output_directory_that_cannot_be_created(self, tmp_path, capsys, out):
        spec = write_spec(tmp_path, "diag.json", diag_spec())
        (tmp_path / "a-file").write_text("")
        assert main(["run", str(spec), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot create output directory {tmp_path / out}: ")

    @pytest.mark.parametrize("error", ERROR_OUTCOMES, ids=lambda e: e.__name__)
    def test_library_error_exit_codes(self, tmp_path, monkeypatch, error):
        code, kind = ERROR_OUTCOMES[error]

        def fail(spec, cfg, truncation):
            raise error("boom")

        monkeypatch.setattr(cli, "_run_analysis", fail)
        spec = write_spec(tmp_path, "diag.json", diag_spec())
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == code
        block = json.loads((out / "report.json").read_text())["error"]
        assert (block["exitCode"], block["kind"]) == (code, kind)
        assert block["message"].endswith("boom")

    def test_foreign_errors_propagate(self, tmp_path, monkeypatch):
        def fail(spec, cfg, truncation):
            raise KeyError("not a library error")

        monkeypatch.setattr(cli, "_run_analysis", fail)
        spec = write_spec(tmp_path, "diag.json", diag_spec())
        with pytest.raises(KeyError):
            main(["run", str(spec), "--out", str(tmp_path / "out")])

    def test_every_library_error_class_has_an_outcome(self):
        classes = {v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, errors.SchauderSpecError)}
        assert classes == set(ERROR_OUTCOMES)


class TestGridConfig:
    def test_no_params_is_the_default_config(self):
        assert cli._run_config({}) == (CertificateGridConfig(),
                                       cli.DEFAULT_TRUNCATION)

    @pytest.mark.parametrize("key, field, value", [
        ("grid-moduli", "moduli", 3),
        ("grid-phases", "phases", 5),
        ("min-modulus", "min_modulus", 0.25),
        ("max-modulus", "max_modulus", 7.5),
        ("bound", "bound", 1e30),
        ("step-cap", "step_cap", 77),
    ])
    def test_each_param_sets_its_field(self, key, field, value):
        assert cli._run_config({key: value, "truncation": 9}) == (
            replace(CertificateGridConfig(), **{field: value}), 9)


def _run_param_defaults() -> dict:
    cfg, truncation = cli._run_config({})
    return {key: truncation if field is None else getattr(cfg, field)
            for key, _kind, field in RUN_PARAMS}


def _stated_default(text: str, name: str):
    """The default that ``text`` states as ``name (default x)`` or ``name (x)``."""
    found = re.search(re.escape(name) + r"\s+\((?:default )?([^)\s]+)", text)
    assert found, f"{name} is not listed with its default"
    stated = found.group(1)
    return None if stated == "null" else float(stated)


class TestRunParams:
    """One table states the run parameters; everything else follows it."""

    def test_run_options_are_the_table_keys(self):
        runp = cli.build_parser()._subparsers._group_actions[0].choices["run"]
        options = {o for a in runp._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == (
            {f"--{key}" for key, _kind, _field in RUN_PARAMS} | {"--out", "--csv"})

    @pytest.mark.parametrize("doc, lead, prefix", [
        ("docs/formats.md", "### Params\n\n", ""),
        ("README.md", "Flags ", "--"),
    ])
    def test_docs_name_every_key_with_its_default(self, doc, lead, prefix):
        # the paragraph after ``lead``
        text = (REPO / doc).read_text()
        text = text[text.index(lead) + len(lead):]
        text = text[:text.index("\n\n")]
        for key, default in _run_param_defaults().items():
            assert _stated_default(text, f"`{prefix}{key}`") == default, key

    def test_epsilon_in_a_document_is_a_schema_error(self, tmp_path):
        doc = cibws_spec()
        doc["params"]["epsilon"] = 0.01
        spec = write_spec(tmp_path, "eps.json", doc)
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 1
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "schema-error"
        assert error["path"] == "$.params.epsilon"

    def test_epsilon_flag_is_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "cibws.json", cibws_spec())
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(spec), "--out", str(tmp_path / "out"),
                  "--epsilon", "0.5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def _bare(text: str) -> str:
    """``text`` without its parenthesized asides."""
    while True:
        bare = re.sub(r"\([^()]*\)", "", text)
        if bare == text:
            return text
        text = bare


def _named(text: str) -> tuple:
    """The first name in backticks in ``text``, and the set of the others.

    Asides in parentheses and whatever follows a dash are left out.
    """
    names = re.findall(r"`([^`]*)`", _bare(text).split("—")[0])
    return names[0], set(names[1:])


def _format_section(lead: str) -> str:
    text = (REPO / "docs" / "formats.md").read_text()
    text = text[text.index(lead) + len(lead):]
    return text[:text.index("\n###")]


def _documented_grammar(family: str) -> dict:
    """Each tag that docs/formats.md lists for ``family``, with its fields."""
    if family in ("rule", "operator"):  # tables: tag, then fields
        lead = {"rule": '### Sequence rules (`"rule"`)', "operator": '### Operators (`"op"`)'}
        items = [" | ".join(row.split(" | ")[:2])
                 for row in _format_section(lead[family]).splitlines()
                 if row.startswith("| `")]
    elif family == "sequence":  # one bullet a tag
        items = _format_section('### Index sequences (`"sequence"`)').split("\n* ")[1:]
    else:  # one paragraph: `tag` or `tag` with `field`, comma-separated
        items = _bare(_format_section('### Permutations (`"permutation"`)')).split(",")
    named = [_named(item) for item in items]
    assert len({tag for tag, _fields in named}) == len(named), named
    return dict(named)


class TestGrammarDocs:
    """docs/formats.md lists the grammar's tags and fields, no more and no fewer."""

    @pytest.mark.parametrize("family", sorted(GRAMMAR))
    def test_each_tag_is_listed_with_its_fields(self, family):
        _tag_key, rows = GRAMMAR[family]
        assert _documented_grammar(family) == {
            tag: {field[0] for field in fields} for tag, (_build, *fields) in rows.items()}


class TestValidate:
    def test_valid_document(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ok.json", cibws_spec())
        assert main(["validate", str(spec)]) == 0

    def test_unknown_variant_tag_with_path(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json", {
            "version": 1,
            "operator": {"op": "product",
                         "left": {"op": "mystery"},
                         "right": {"op": "cibws"}},
            "analysis": "deflate",
        })
        assert main(["validate", str(spec)]) == 1
        outp = capsys.readouterr().out
        assert "$.operator.left.op" in outp
        assert "mystery" in outp

    def test_negative_truncation_names_constraint(self, tmp_path, capsys):
        doc = diag_spec()
        doc["params"]["truncation"] = -5
        spec = write_spec(tmp_path, "bad.json", doc)
        assert main(["validate", str(spec)]) == 1
        outp = capsys.readouterr().out
        assert "$.params.truncation" in outp
        assert ">= 1" in outp

    def test_multiple_diagnostics(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json", {
            "version": 3,
            "operator": {"op": "nope"},
            "analysis": "poke",
        })
        assert main(["validate", str(spec)]) == 1
        outp = capsys.readouterr().out
        assert "$.version" in outp
        assert "$.analysis" in outp
        assert "$.operator.op" in outp

    def test_invalid_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1

    def test_missing_file_io_error_distinct(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestSerde:
    def test_parse_rejects_unknown_param(self):
        doc = diag_spec()
        doc["params"]["zoom"] = 3
        with pytest.raises(SpecFormatError) as err:
            parse_spec_document(doc)
        assert "zoom" in str(err.value)

    def test_fraction_round_trip_is_exact(self):
        from fractions import Fraction

        doc = diag_spec()
        spec = parse_spec_document(doc)
        assert spec.operator.weights.value(7) == Fraction(1, 7)

    def test_complex_scalar(self):
        doc = {
            "version": 1,
            "operator": {"op": "scale", "scalar": {"re": 0.0, "im": 1.0},
                         "inner": {"op": "cibws"}},
            "analysis": "certify",
        }
        spec = parse_spec_document(doc)
        from schauderspec import entry
        assert entry(spec.operator, 2, 1) == 1j

    def test_validate_document_clean(self):
        assert validate_document(cibws_spec()) == []

    @pytest.mark.parametrize("version", [1, 1.0, True])
    def test_version_is_stored_as_the_int_1(self, version):
        # 1.0 and true pass the ``!= 1`` check; they are not kept as given
        doc = dict(cibws_spec(), version=version)
        assert repr(parse_spec_document(doc).version) == "1"


class TestGoldens:
    def _regenerate(self, tmp_path, name, csv=False):
        from pathlib import Path

        golden_dir = Path(__file__).resolve().parent.parent / "docs" / "goldens"
        out = tmp_path / name
        args = ["run", str(golden_dir / f"{name}.json"), "--out", str(out)]
        if csv:
            args.append("--csv")
        assert main(args) == 0
        return golden_dir, out

    def test_cibws_deflate_results_match_golden(self, tmp_path):
        golden_dir, out = self._regenerate(tmp_path, "cibws-deflate", csv=True)
        got = json.loads((out / "report.json").read_text())["results"]
        want = json.loads((golden_dir / "cibws-deflate.results.json").read_text())
        assert got == want
        got_csv = (out / "certificates.csv").read_bytes()
        want_csv = (golden_dir / "cibws-deflate.certificates.csv").read_bytes()
        assert got_csv == want_csv

    def test_diag_spectrum_results_match_golden(self, tmp_path):
        golden_dir, out = self._regenerate(tmp_path, "diag-spectrum")
        got = json.loads((out / "report.json").read_text())["results"]
        want = json.loads((golden_dir / "diag-spectrum.results.json").read_text())
        assert got == want


class MyInt(int):
    def __repr__(self):
        return "MyInt()"


class MyFloat(float):
    def __repr__(self):
        return "MyFloat()"


class MyStr(str):
    pass


class MyDict(dict):
    pass


class MyList(list):
    pass


def stdlib_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def written_text(tmp_path, obj):
    path = tmp_path / "report.json"
    write_report(path, obj)
    return path.read_text()


_texts = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f é€\U0001F600ab')
_floats = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
     1e100, 1e16, 0.1])
_scalars = (
    st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
    | _floats | _texts | st.integers().map(MyInt) | _floats.map(MyFloat)
    | _texts.map(MyStr)
)
# json.dumps sorts the keys, so each dict holds keys of one comparable kind.
_key_kinds = (_texts, st.integers() | st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(MyList),
        st.dictionaries(_texts, children, max_size=5).map(MyDict),
        *(st.dictionaries(keys, children, max_size=5) for keys in _key_kinds),
    )


_trees = st.recursive(_scalars, _containers, max_leaves=40)
_DEEP = {"a": [{"b": [{"c": [{"d": [1.5, None, True, "x\n"]}]}]}, (), {}, []]}


class TestWriteReport:
    @settings(max_examples=200, deadline=None)
    @given(_trees)
    @example(_DEEP)
    @example({1: "int", 2.5: "float"})
    @example({True: 1, False: 0})
    @example({None: []})
    @example([math.nan, -math.inf, math.inf, -0.0, 5e-324, 2**64 + 1])
    # float tokens are memoized per value: zeros compare equal across
    # signs, nan never equals itself, and a subclass takes its own path
    @example([0.0, -0.0, 0.0, -0.0, {"a": -0.0, "b": 0.0}, [-0.0, 0.0]])
    @example([-0.0, 0.0, {"im": -0.0}, {"im": 0.0}, MyFloat(-0.0), MyFloat(0.0)])
    @example([math.nan, math.nan, math.inf, -math.inf, math.inf, -math.inf,
              {"x": math.nan, "y": math.inf, "z": -math.inf}, float("nan")])
    @example([2.5, MyFloat(2.5), 2.5, {"k": MyFloat(2.5), "v": 2.5},
              MyFloat(-0.0), 1e100, MyFloat(1e100)])
    @example([MyFloat(2.5), 2.5, MyFloat(math.inf), math.inf, MyFloat(math.nan)])
    def test_bytes_match_stdlib(self, tmp_path_factory, tree):
        tmp_path = tmp_path_factory.mktemp("w")
        assert written_text(tmp_path, tree) == stdlib_text(tree)

    def test_long_list_streams_in_chunks(self, tmp_path):
        tree = {"rows": [{"i": i, "x": i / 7, "s": f"r{i}"} for i in range(20000)]}
        assert written_text(tmp_path, tree) == stdlib_text(tree)

    @pytest.mark.parametrize("bad", [Fraction(1, 3), 1j, {1, 2}])
    def test_unserializable_raises_type_error(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError, match=f"Object of type {type(bad).__name__} "
                                            "is not JSON serializable"):
            write_report(path, {"rows": [1, 2], "value": bad})
        assert list(tmp_path.iterdir()) == []

    def test_non_scalar_key_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be str"):
            write_report(tmp_path / "report.json", {(1, 2): 3})

    @pytest.mark.parametrize("name, flags, code", [
        ("diag-spectrum", (), 0),
        ("cibws-deflate", ("--csv",), 0),
        ("cibws-deflate", ("--truncation=0",), 1),
        ("../examples/dense-grid-deflate", ("--csv",), 0),
    ])
    def test_cli_report_is_stdlib_encoding(self, tmp_path, name, flags, code):
        from pathlib import Path

        golden_dir = Path(__file__).resolve().parent.parent / "docs" / "goldens"
        out = tmp_path / "out"
        assert main(["run", str(golden_dir / f"{name}.json"), "--out", str(out),
                     *flags]) == code
        text = (out / "report.json").read_text()
        assert stdlib_text(json.loads(text)) == text


# Certificate records with repeated walks: values that compare equal but
# print differently (signed zeros, 1 / 1.0 / True, 1 / Fraction(1)), nan and
# infinities, Fraction and complex details, block tags, constant floors.
_cert_numbers = st.sampled_from(
    [0.0, -0.0, 1, 1.0, True, math.nan, math.inf, -math.inf, 1e100, 2.5, 0])
_detail_values = _cert_numbers | st.sampled_from(
    [Fraction(1, 2), Fraction(1), Fraction(0), complex(1, 0.0), complex(1, -0.0),
     complex(-0.0, 2), 1j, None, "x", "a,b"]) | st.builds(complex, _floats, _floats)
_walks = st.fixed_dictionaries({
    "witness_index": st.sampled_from([1, 1.0, True, 2, 0]),
    "attained_magnitude": _cert_numbers,
    "recurrence_kind": st.sampled_from(["scalar-shift", "block-norm", 'q"uote', "%s", "%%"]),
    "bound": _cert_numbers,
    "regime": st.sampled_from(["forward-orbit", "constant-floor", "back,ward"]),
    "start_index": st.sampled_from([1, 1.0, True]),
    "side": st.sampled_from(["direct", "adjoint"]),
    "covered_region": st.sampled_from(["circle |lambda| = 0.5", "", "{x}\n", "100%", "%s%%"]),
    "details": st.lists(st.tuples(
        st.sampled_from(["log_magnitude", "block", "scaled_unitary",
                         "adjoint_lambda", "{0}", "%", "%s", "%%"]),
        _detail_values), max_size=4).map(tuple),
})
_lambdas = (st.builds(complex, _floats, _floats)
            | st.sampled_from([0.5, -0.0, 2, complex(-0.0, -0.0)]))


@st.composite
def _certificate_lists(draw, lambdas=_lambdas):
    """Certificates over a few walks, each drawn again with a new lambda and,
    where its details hold a complex ``adjoint_lambda``, a new one of those."""
    walks = draw(st.lists(_walks, min_size=1, max_size=3))
    certs = []
    for walk in draw(st.lists(st.sampled_from(walks), min_size=1, max_size=10)):
        details = tuple(
            (k, draw(st.builds(complex, _floats, _floats)))
            if k == "adjoint_lambda" and type(v) is complex else (k, v)
            for k, v in walk["details"])
        certs.append(EigenExclusionCertificate(
            lam=draw(lambdas), **{**walk, "details": details}))
    return certs


def _floor(lam, bound=0.0, block=1, value=0.5):
    # a scaled-unitary block's certificate on its circle
    return EigenExclusionCertificate(
        lam=lam, witness_index=1, attained_magnitude=1.0,
        recurrence_kind="scalar-shift", bound=bound, regime="constant-floor",
        side="direct", covered_region=f"circle |lambda| = {value!r}",
        details=(("block", block), ("scaled_unitary", value)))


# pairs that a key on equal values alone would merge
_ALIASES = [
    _floor(0.5j), _floor(0.5j, bound=-0.0),
    _floor(-0.5j, block=True), _floor(0.5, block=1.0),
    _floor(1j, value=-0.0), _floor(1j, value=0.0),
    _floor(2j), replace(_floor(2j), witness_index=True),
    replace(_floor(2j), side="adjoint",
            details=(("adjoint_lambda", complex(0.0, -0.0)), ("block", 1))),
    replace(_floor(2j), side="adjoint",
            details=(("adjoint_lambda", complex(-0.0, 0.0)), ("block", 1))),
    replace(_floor(2j), details=(("adjoint_lambda", None),)),
    replace(_floor(2j), details=(("adjoint_lambda", 1j),)),
]


def _grid_point(lam, conj=None):
    """A grid point's direct and adjoint certificates as the certifier builds
    them: one walk per side, the adjoint's ``adjoint_lambda`` ``conj`` if
    given, else ``conj(lam)``."""
    walk = dict(witness_index=3, attained_magnitude=2.5e100, recurrence_kind="scalar-shift",
                bound=1e100, regime="backward-orbit", covered_region="circle |lambda| = 0.5")
    tail = (("log_magnitude", 230.5),)
    conj = complex(lam).conjugate() if conj is None else conj
    return [EigenExclusionCertificate(lam=lam, side="direct", details=tail, **walk),
            EigenExclusionCertificate(lam=lam, side="adjoint",
                                      details=(("adjoint_lambda", conj),) + tail, **walk)]


# Grid-shaped lists: direct and adjoint pairs at one lambda with signed zero
# or nan parts (which no lambda text pair may be shared over) or infinite
# ones, a lambda seen twice, and adjoints whose adjoint_lambda is not
# conj(lam) although its parts are, up to sign or bit, those of lam.
_GRID_POINTS = [cert for lam in (
    complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.0, 0.5), complex(0.0, -0.5),
    complex(-0.0, -0.0), complex(math.nan, 0.5), complex(0.5, math.nan),
    complex(math.inf, 0.5), complex(0.5, -math.inf), complex(0.3, 0.4), complex(0.3, 0.4))
    for cert in _grid_point(lam)]
_OFF_CONJUGATES = [cert for lam, conj in (
    (complex(0.3, 0.4), complex(0.3, 0.4)), (complex(0.3, 0.4), complex(-0.3, -0.4)),
    (complex(0.3, 0.4), complex(0.3, -0.4000000000000001)),
    (complex(0.5, 0.0), complex(0.5, 0.0)), (complex(math.nan, 0.5), complex(math.nan, 0.5)),
    (complex(0.3, 0.4), None)) for cert in _grid_point(lam, conj)]


def _json_form(tree):
    """``tree`` with each certificate record replaced by its ``certificate_to_json``."""
    if isinstance(tree, EigenExclusionCertificate):
        return certificate_to_json(tree)
    if isinstance(tree, dict):
        return {k: _json_form(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_json_form(v) for v in tree]
    return tree


def _csv_text(certs) -> str:
    """``certificates.csv`` as plain csv.writer rows of each certificate's JSON form."""
    import csv
    import io

    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["lambda_re", "lambda_im", "side", "kind", "regime",
                     "block", "witness_index", "magnitude", "bound"])
    for c in map(certificate_to_json, certs):
        writer.writerow([repr(c["lambdaRe"]), repr(c["lambdaIm"]), c["side"],
                         c["kind"], c["regime"], c["details"].get("block", 0),
                         c["witnessIndex"], repr(c["magnitude"]),
                         repr(c["bound"])])
    return want.getvalue()


class TestCertificateRecords:
    """Certificate records are written as their ``certificate_to_json``."""

    @settings(max_examples=150, deadline=None)
    @given(_certificate_lists())
    @example(_ALIASES)
    @example([_floor(0.5j, value=Fraction(1, 2)), _floor(0.5j, value=Fraction(1, 2))])
    @example(_GRID_POINTS)
    @example(_OFF_CONJUGATES)
    def test_report_is_stdlib_encoding_of_the_json_form(self, tmp_path_factory, certs):
        tmp_path = tmp_path_factory.mktemp("w")
        # certificates at several indents, among scalars, dicts and other lists
        for tree in (certs, {"a": {"b": certs}, "c": certs[::-1], "d": certs[0]},
                     [1, certs[0], {"x": certs, "y": [certs, 2.5, {"z": certs[-1]}]},
                      [[certs[::-1], "%s"], []], None, certs[-1], {}]):
            assert written_text(tmp_path, tree) == stdlib_text(_json_form(tree))

    @settings(max_examples=150, deadline=None)
    @given(_certificate_lists(_lambdas | st.sampled_from([Fraction(1, 3), 7])))
    @example(_ALIASES)
    @example(_GRID_POINTS)
    @example(_OFF_CONJUGATES)
    def test_csv_rows_are_the_plain_csv_writer_rows(self, tmp_path_factory, certs):
        path = tmp_path_factory.mktemp("w") / "certificates.csv"
        assert cli._write_certificates(path, certs) == "certificates.csv"
        assert path.read_bytes().decode() == _csv_text(certs)

    @settings(max_examples=150, deadline=None)
    @given(_certificate_lists())
    @example(_ALIASES)
    @example([_floor(complex(math.nan, math.inf)), _floor(complex(-math.inf, -0.0)),
              replace(_floor(2j), side="adjoint", details=(
                  ("adjoint_lambda", complex(math.nan, -math.inf)), ("block", 1)))])
    @example(_GRID_POINTS)
    @example(_OFF_CONJUGATES + _GRID_POINTS)
    def test_one_walk_table_serves_both_writers(self, tmp_path_factory, certs):
        # as a run shares it: the CSV reads it first, the report after, and
        # each keeps its own spelling of nan and the infinities
        tmp_path = tmp_path_factory.mktemp("w")
        walks = WalkTable()
        tree = {"a": certs, "b": {"c": certs[::-1]}}
        as_json = [certificate_to_json(c) for c in certs]
        for _ in range(2):
            cli._write_certificates(tmp_path / "certificates.csv", certs, walks)
            write_report(tmp_path / "report.json", tree, walks)
            assert (tmp_path / "certificates.csv").read_bytes().decode() == _csv_text(certs)
            assert (tmp_path / "report.json").read_text() == stdlib_text(
                {"a": as_json, "b": {"c": as_json[::-1]}})
        # texts per lambda whose parts are nonzero and not nan: the repr of its
        # parts, and the report tokens of its parts and of its conjugate's
        # imaginary part
        assert walks.by_lam.keys() == {c.lam for c in certs if type(c.lam) is complex
                                       and c.lam.real and c.lam.imag and c.lam == c.lam}
        for lam, texts in walks.by_lam.items():
            assert texts == (repr(lam.real), repr(lam.imag), json.dumps(lam.real),
                             json.dumps(lam.imag), json.dumps(-lam.imag))

    def test_writers_free_the_walk_table_without_the_cycle_collector(self, tmp_path):
        # a run's table holds a text pair per grid lambda; a long-lived process
        # that left it to the cycle collector would grow by one table per run
        import gc
        import weakref

        walks = WalkTable()
        gone = weakref.ref(walks)
        gc.disable()
        try:
            cli._write_certificates(tmp_path / "certificates.csv", _ALIASES, walks)
            write_report(tmp_path / "report.json", {"c": _ALIASES}, walks)
            del walks
            assert gone() is None
        finally:
            gc.enable()

    def test_grid_report_streams_in_bounded_chunks(self, tmp_path, monkeypatch):
        # each certificate is one string: the writer still hands the report
        # to the file in pieces, never the whole of it at once
        from schauderspec import Diagonal, GeometricRule, deflate

        certs = list(deflate(Diagonal(GeometricRule(1, Fraction(1, 2))),
                             CertificateGridConfig(moduli=50, phases=50)).certificates)
        assert len(certs) == 5000
        chunks, real_open = [], Path.open

        def recording_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            write = fh.write
            fh.write = lambda text: chunks.append(len(text)) or write(text)
            return fh

        monkeypatch.setattr(Path, "open", recording_open)
        text = written_text(tmp_path, {"certificates": certs})
        monkeypatch.undo()
        assert text == stdlib_text({"certificates": _json_form(certs)})
        assert sum(chunks) == len(text) > 2_000_000
        assert len(chunks) >= 4 and max(chunks) < 1_000_000

    def test_long_detail_list_streams_in_chunks(self, tmp_path):
        # the frame's own emit passes the flush threshold
        cert = replace(_floor(1j), details=(("rows", list(range(5000))),))
        certs = [cert, replace(cert, lam=2j), cert]
        assert written_text(tmp_path, {"c": certs}) == stdlib_text(
            {"c": [certificate_to_json(c) for c in certs]})

    def test_unserializable_detail_raises_type_error(self, tmp_path):
        cert = replace(_floor(1j), details=(("block", {1, 2}),))
        with pytest.raises(TypeError, match="Object of type set"):
            write_report(tmp_path / "report.json", [cert, cert])
        assert list(tmp_path.iterdir()) == []


class TestColdStart:
    """The package starts, and runs partial monomial corners, without numpy."""

    def _python(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", *args], env=env,
                              capture_output=True, text=True)

    def test_import_loads_no_numpy(self):
        proc = self._python(
            "import sys, schauderspec, schauderspec.cli; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_golden_at_the_eigensolve_cap_runs_with_numpy_blocked(self, tmp_path):
        args = ["run", str(REPO / "docs" / "goldens" / "cibws-deflate.json"),
                "--truncation", "512", "--csv", "--out"]
        proc = self._python(
            "import sys; sys.modules['numpy'] = None; "
            "from schauderspec.cli import main; sys.exit(main(sys.argv[1:]))",
            *args, str(tmp_path / "blocked"))
        assert proc.returncode == 0, proc.stderr
        assert main(args + [str(tmp_path / "free")]) == 0
        blocked, free = tmp_path / "blocked", tmp_path / "free"

        def results(out):
            return json.loads((out / "report.json").read_text())["results"]

        assert json.dumps(results(blocked)) == json.dumps(results(free))
        for name in ("certificates.csv", "matrix.csv", "eigs.csv"):
            assert (blocked / name).read_bytes() == (free / name).read_bytes()
        assert len((blocked / "eigs.csv").read_text().splitlines()) == 513
