"""Output guard: checks on fanocount's outputs that share no code with it.

Two kinds of reference live here:

* sha256 digests of the exact stdout bytes of each `catalog` and `deep`
  command, pinned from the outputs of the seed commit of this benchmark;
* independent mathematics: the counting-matrix rows and shifts alpha
  printed in the README, and the closed form of the constant term of the
  G(2, n) I-series, re-implemented below with plain integer arithmetic.

Every check function returns a list of failure strings; an empty list
means the output passed.  Tables are passed in as arguments (defaulting
to the pinned ones) so that tests can corrupt a single value and watch
the item fail.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, factorial

# sha256 of the stdout bytes of each command, keyed by item kind.
DIGESTS: dict[str, str] = {
    "verify": "f42b2fa35c0c74e9ba5958c6e9fe69f20955945236406cb9fc74f81b477b5ae1",
    "report-V10": "e5b06c3bcaee7265b61dd100667c47bf0240f2fff4e47c650f1c7fa2626ff450",
    "report-V14": "ad54f6a2429815c39f5d355e934abd597806605e62424365570ac95a2df4007b",
    "iseries-G36": "8eefe25424568e68529a1294d3f058564736422dd56c9c2489750348e3db0a4e",
}

# The catalog table of the README: shift alpha, ambient G(2, n), matrix rows.
README_MODELS: dict[str, dict] = {
    "V10": {
        "alpha": 6,
        "n": 5,
        "rows": ((0, 156, 3600, 33120), (1, 10, 380, 3600), (0, 1, 10, 156), (0, 0, 1, 0)),
    },
    "V14": {
        "alpha": 4,
        "n": 6,
        "rows": ((0, 64, 924, 5936), (1, 5, 140, 924), (0, 1, 5, 64), (0, 0, 1, 0)),
    },
}

# Positions of the five independent entries in the matrix rows.
ENTRY_POSITIONS = {"a01": (0, 1), "a11": (1, 1), "a02": (0, 2), "a12": (1, 2), "a03": (0, 3)}

# `fanocount verify` recomputes 34 rows; the V14 q^3 constant is flagged.
VERIFY_COUNTS = {"ok": 33, "flagged": 1, "mismatch": 0}

CLOSED_FORM_MAX_DEGREE = 12


def g2n_constant_term(n: int, d: int) -> Fraction:
    """Constant term of the degree-d part of the G(2, n) I-series.

        ((-1)^d / 2) / (d!)^n * sum_{m=0}^{d} C(d, m)^n
            * (n (d - 2m) (H_m - H_(d-m)) + 2)

    with H_m the m-th harmonic number.  Harmonic numbers are scaled by d!,
    which makes them integers, so the whole sum is one integer over
    2 d! (d!)^n.
    """
    if d == 0:
        return Fraction(1)
    big = factorial(d)
    # harmonic[m] * d! is an integer for every m <= d
    harmonic = [0]
    for i in range(1, d + 1):
        harmonic.append(harmonic[-1] + big // i)
    total = 0
    for m in range(d + 1):
        total += comb(d, m) ** n * (n * (d - 2 * m) * (harmonic[m] - harmonic[d - m]) + 2 * big)
    return Fraction((-1) ** d * total, 2 * big * factorial(d) ** n)


def discriminant(v: tuple[Fraction, ...]) -> Fraction:
    """The published vanishing locus of the period inversion, in d2..d6."""
    d2, d3, d4, d5, d6 = v
    return -495 * d3 * d5 + 261 * d2 * d3**2 - 312 * d4 * d2**2 + 432 * d4**2 + 56 * d2**4


def check_digest(kind: str, stdout: str, digests: dict[str, str] = DIGESTS) -> list[str]:
    got = hashlib.sha256(stdout.encode()).hexdigest()
    if got != digests[kind]:
        return [f"{kind}: stdout digest {got[:12]} != pinned {digests[kind][:12]}"]
    return []


def check_verify(stdout: str, models: dict = README_MODELS) -> list[str]:
    """`verify --format json`: counts, README entries and closed-form c0."""
    data = json.loads(stdout)
    fails = []
    if data["status"] != 0:
        fails.append(f"verify status {data['status']}")
    counts = {status: 0 for status in VERIFY_COUNTS}
    derived = {}
    for row in data["rows"]:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        derived[row["label"]] = Fraction(row["derived"])
    if counts != VERIFY_COUNTS:
        fails.append(f"verify counts {counts} != {VERIFY_COUNTS}")
    for name, model in models.items():
        for entry, (i, j) in ENTRY_POSITIONS.items():
            label = f"{name}:matrix.{entry}"
            if derived.get(label) != model["rows"][i][j]:
                fails.append(f"{label} = {derived.get(label)}, README {model['rows'][i][j]}")
        if derived.get(f"{name}:alpha") != model["alpha"]:
            fails.append(f"{name}:alpha = {derived.get(f'{name}:alpha')}, README {model['alpha']}")
        for d in range(1, 5):
            label = f"{name}:ambient.c0[{d}]"
            expected = g2n_constant_term(model["n"], d)
            if derived.get(label) != expected:
                fails.append(f"{label} = {derived.get(label)}, closed form {expected}")
    return fails


def check_report(name: str, stdout: str, models: dict = README_MODELS) -> list[str]:
    """`report --format json` of a catalog model at order 13."""
    data = json.loads(stdout)
    model = models[name]
    fails = []
    rows = tuple(tuple(Fraction(x) for x in row) for row in data["matrix"]["rows"])
    if rows != model["rows"]:
        fails.append(f"{name} matrix rows {rows} != README {model['rows']}")
    if Fraction(data["alpha"]) != model["alpha"]:
        fails.append(f"{name} alpha {data['alpha']} != README {model['alpha']}")
    c0 = [Fraction(x) for x in data["ambient_series"]["c0"]]
    if len(c0) != CLOSED_FORM_MAX_DEGREE + 1:
        fails.append(f"{name} ambient c0 has {len(c0)} terms, expected through q^12")
    for d, value in enumerate(c0):
        expected = g2n_constant_term(model["n"], d)
        if value != expected:
            fails.append(f"{name} ambient c0[{d}] = {value}, closed form {expected}")
    return fails
