import json

import pytest

from schauderspec import cibws, replay_shift_certificate, truncate_complex
from schauderspec.cli import main
from schauderspec.serde import parse_spec_document, validate_document
from schauderspec.errors import SpecFormatError

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
