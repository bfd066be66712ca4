"""Seeded operator-description documents for the three benchmark workloads.

Every workload is a list of :class:`Doc` entries: a spec file written
into the run's work directory, the extra ``schauderspec run`` flags it
is run with, the exit code it must produce, and, for the two goldens,
the golden name whose frozen ``results`` it must reproduce.  The
program under test only ever sees the generated files.

``deflate-slowdecay`` and ``certify-fastdecay`` are single fixed heavy
documents: their cost is set by the grid, and the seed does not change
them.  ``spec-suite`` is a stratified mix: its composition (one
document per slot below) is fixed, so the shares of exact rules, large
truncations and expected errors are the same for every seed, and the
seed picks each slot's parameters from a few values of similar cost and
shuffles the order.  That keeps the pass cost steady across seeds while
the inputs still differ.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("deflate-slowdecay", "certify-fastdecay", "spec-suite")


@dataclass(frozen=True)
class Doc:
    name: str
    path: Path
    flags: tuple  # extra ``schauderspec run`` flags, e.g. ("--csv",)
    expected_exit: int
    golden: Optional[str] = None  # docs/goldens/<golden>.results.json
    exact: bool = False  # the operator's weight rules are exact rationals
    truncation: int = 64


def frac(p, q):
    return {"fraction": [p, q]}


def power_law(scale, exponent):
    return {"rule": "power-law", "scale": scale, "exponent": exponent}


def geometric(scale, ratio):
    return {"rule": "geometric", "scale": scale, "ratio": ratio}


def diagonal(rule):
    return {"op": "diagonal", "weights": rule}


def perm_unitary(perm):
    return {"op": "permutation-unitary", "of": perm}


def product(left, right):
    return {"op": "product", "left": left, "right": right}


def arithmetic(start, step):
    return {"sequence": "arithmetic", "start": start, "step": step}


SIGMA = {"permutation": "sigma-bilateral"}
CIBWS = {"op": "cibws"}

# The sigma-bilateral unitary written as its two spreads:
# odds -> {3, 5, ...} and evens -> {1, 2, 4, ...}.
SIGMA_SPREADS = {"op": "sum", "terms": [
    {"op": "spread", "domain": arithmetic(1, 2), "image": arithmetic(3, 2)},
    {"op": "spread", "domain": arithmetic(2, 2),
     "image": {"sequence": "explicit-prefix", "prefix": [1],
               "tail": arithmetic(2, 2)}},
]}


def document(operator, analysis, **params):
    return {"version": 1, "operator": operator, "analysis": analysis,
            "params": {k.replace("_", "-"): v for k, v in params.items()}}


def _slowdecay(rng):
    # Float power law 1/n^0.1: the slowest decay the deflate path accepts
    # in reasonable time, so orbit walks run to thousands of steps.
    return [("slowdecay", document(
        diagonal(power_law(1.0, 0.1)), "deflate", grid_moduli=64,
        grid_phases=32, bound=1e100, truncation=512), ("--csv",), 0, False)]


def _fastdecay(rng):
    # Exact geometric weights (1/2)^n behind the composed (untagged)
    # sigma permutation: walks end within ~14 steps, so the fixed cost
    # per certificate and JSON encoding dominate.
    return [("fastdecay", document(
        product(perm_unitary(SIGMA), diagonal(geometric(1, frac(1, 2)))),
        "certify", grid_moduli=128, grid_phases=64, truncation=64),
        (), 0, True)]


def _suite(rng):
    """One document per slot; parameters vary by seed, cost does not."""
    pick = rng.choice
    docs = []

    def add(name, doc, expected=0, exact=False, flags=()):
        docs.append((name, doc, tuple(flags), expected, exact))

    k = pick([1, 2, 3])
    add("diag-power-spectrum", document(
        diagonal(power_law(frac(1, k), pick([1, 2]))), "schauder-spectrum",
        grid_moduli=8, grid_phases=4, truncation=16), exact=True)
    add("diag-geometric-classify", document(
        diagonal(geometric(1, frac(1, pick([2, 3, 4])))), "classify",
        grid_moduli=8, grid_phases=4, truncation=32), exact=True)
    add("three-block-spectrum", document(
        {"op": "block-direct-sum",
         "blocks": [diagonal(power_law(frac(1, pick([1, 2])), 1)),
                    diagonal(geometric(pick([1.0, 0.5]), pick([0.5, 0.25]))),
                    CIBWS],
         "partition": [arithmetic(1, 3), arithmetic(2, 3), arithmetic(3, 3)]},
        "schauder-spectrum", grid_moduli=16, grid_phases=8, truncation=64),
        exact=True)
    add("cibws-classify", document(
        CIBWS, "classify", grid_moduli=16, grid_phases=8, truncation=64),
        exact=True)
    s = pick([frac(1, 2), frac(3, 2), 2])
    add("scaled-cibws-spectrum", document(
        {"op": "scale", "scalar": s, "inner": CIBWS}, "schauder-spectrum",
        grid_moduli=12, grid_phases=8, truncation=32), exact=True)
    add("double-adjoint-cibws-classify", document(
        {"op": "adjoint", "inner": {"op": "adjoint", "inner": CIBWS}},
        "classify", grid_moduli=12, grid_phases=8, truncation=32), exact=True)
    add("adjoint-diag-deflate", document(
        {"op": "adjoint", "inner": diagonal(power_law(frac(1, pick([1, 2])), 1))},
        "deflate", grid_moduli=12, grid_phases=8, truncation=64), exact=True)
    add("adjoint-sigma-certify", document(
        {"op": "adjoint", "inner": product(
            diagonal(geometric(1, frac(1, pick([2, 3])))), perm_unitary(SIGMA))},
        "certify", grid_moduli=12, grid_phases=8, truncation=64), exact=True)
    add("spreads-classify", document(
        product(SIGMA_SPREADS, diagonal(geometric(1, frac(1, pick([2, 3]))))),
        "classify", grid_moduli=12, grid_phases=8, truncation=32), exact=True)
    add("two-block-spectrum", document(
        {"op": "block-direct-sum",
         "blocks": [product(perm_unitary(SIGMA),
                            diagonal(power_law(pick([1.0, 2.0]), 1.0))),
                    diagonal(geometric(1, frac(1, pick([2, 3]))))],
         "partition": [arithmetic(1, 2), arithmetic(2, 2)]},
        "schauder-spectrum", grid_moduli=12, grid_phases=8, truncation=32))
    add("scaled-sigma-deflate", document(
        {"op": "scale", "scalar": pick([2, frac(1, 2)]), "inner": product(
            perm_unitary(SIGMA), diagonal(power_law(frac(1, 1), 1)))},
        "deflate", grid_moduli=12, grid_phases=8, truncation=96), exact=True)
    add("spreads-deflate", document(
        product(SIGMA_SPREADS, diagonal(power_law(
            pick([1.0, 2.0]), pick([0.5, 0.6, 0.7])))),
        "deflate", grid_moduli=8, grid_phases=8, truncation=256))
    add("cibws-deflate-512", document(
        CIBWS, "deflate", grid_moduli=8, grid_phases=4, truncation=512),
        exact=True)
    add("diag-deflate-csv", document(
        diagonal(power_law(frac(1, pick([1, 2, 3])), 1)), "deflate",
        grid_moduli=16, grid_phases=8, truncation=128), exact=True,
        flags=("--csv",))
    add("ztranslate-certify", document(
        product(perm_unitary({"permutation": "z-translation", "step": -1}),
                diagonal(geometric(1, frac(1, pick([2, 3]))))),
        "certify", grid_moduli=16, grid_phases=8, truncation=32), exact=True)
    add("sigma-power-certify-csv", document(
        product(perm_unitary(SIGMA),
                diagonal(power_law(pick([1.0, 2.0]), pick([1.0, 1.5])))),
        "certify", grid_moduli=16, grid_phases=8, truncation=64),
        flags=("--csv",))
    add("sigma-prefix-spectrum", document(
        product(perm_unitary(SIGMA), diagonal(
            {"rule": "explicit-then",
             "prefix": [frac(2, 1), frac(3, 2)],
             "tail": power_law(frac(1, pick([1, 2])), 1)})),
        "schauder-spectrum", grid_moduli=12, grid_phases=8, truncation=16),
        exact=True)
    # Documents the CLI must refuse, one per error class it maps.
    add("unknown-op", document(
        {"op": pick(["mystery", "shift"])}, "schauder-spectrum"), expected=1)
    add("bad-param", document(
        diagonal(power_law(1.0, 1)), "classify",
        grid_moduli=pick([0, -1]), grid_phases=4), expected=1)
    add("constant-deflate", document(
        diagonal({"rule": "constant", "value": pick([1, 2, frac(1, 2)])}),
        "deflate", grid_moduli=4, grid_phases=2), expected=2, exact=True)
    add("diagonal-certify", document(
        diagonal(power_law(1.0, pick([1, 2]))), "certify",
        grid_moduli=4, grid_phases=2), expected=2)
    add("zero-weight-deflate", document(
        diagonal({"rule": "explicit-then", "prefix": [1, 0],
                  "tail": power_law(frac(1, 3), 1)}),
        "deflate", grid_moduli=4, grid_phases=2), expected=3, exact=True)
    add("noncompact-classify", document(
        diagonal({"rule": "constant", "value": pick([1, 3])}), "classify",
        grid_moduli=4, grid_phases=2), expected=3, exact=True)
    return docs


_GENERATORS = {
    "deflate-slowdecay": _slowdecay,
    "certify-fastdecay": _fastdecay,
    "spec-suite": _suite,
}

# The two goldens ride in spec-suite; their results must match byte for byte.
_GOLDENS = (("diag-spectrum", (), True), ("cibws-deflate", ("--csv",), True))


def generate(workload: str, seed: int, outdir: Path, golden_dir: Path) -> list:
    """Write the workload's documents under ``outdir`` and describe them."""
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    entries = _GENERATORS[workload](rng)
    docs = []
    for name, doc, flags, expected, exact in entries:
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        docs.append(Doc(name, path, flags, expected, None, exact,
                        doc["params"].get("truncation", 64)))
    if workload == "spec-suite":
        for name, flags, exact in _GOLDENS:
            path = outdir / f"golden-{name}.json"
            shutil.copyfile(golden_dir / f"{name}.json", path)
            truncation = json.loads(path.read_text())["params"].get(
                "truncation", 64)
            docs.append(Doc(f"golden-{name}", path, flags, 0, name, exact,
                            truncation))
        rng.shuffle(docs)
    return docs


def property_shares(docs: list) -> dict:
    """Shares of the input properties later performance claims depend on."""
    n = len(docs)
    return {
        "documents": n,
        "exact_rule_share": sum(d.exact for d in docs) / n,
        "truncation_ge_256_share": sum(d.truncation >= 256 for d in docs) / n,
        "expected_error_share": sum(d.expected_exit != 0 for d in docs) / n,
    }
