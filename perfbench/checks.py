"""Output checks applied to every benchmark iteration.

Thresholds are the ones tests/test_acceptance.py asserts, applied to the
artifacts each workload writes.  Values are also matched against reference
artifacts recorded by make_reference.py: the tolerances let a reordered
floating-point sum or a solve stopped at a different iterate (both converge
to well below 1e-10 here) pass, and catch a wrong kernel or quadrature,
which moves values by 1e-6 or more.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import dense_point_keys

REFERENCE = Path(__file__).resolve().parent / "reference"

# artifact -> (rtol, atol) for |got - want| <= atol + rtol |want|.  evaluate.csv
# holds O(0.05) solution values; remainders.csv holds |u - partial sum|,
# which cancels down to rounding noise once below about 1e-12; decay.csv
# holds contour integrals computed directly, so relative error stays small
# however tiny the value.
TOLERANCE = {
    "evaluate.csv": (1e-8, 1e-10),
    "remainders.csv": (1e-6, 1e-12),
    "decay.csv": (1e-6, 0.0),
}


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def read_csv_named(path: Path) -> list[tuple[str, float]]:
    """Rows of a two-column name,value CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(name, float(value)) for name, value in rows]


def match_rows(name: str, got_path: Path, header: list[str],
               want: list[list[float]]) -> list[str]:
    """Differences between an artifact and its reference rows, as messages."""
    if not got_path.exists():
        return [f"{name}: missing"]
    got_header, got = read_csv(got_path)
    if got_header != header or len(got) != len(want):
        return [f"{name}: shape {len(got)}x{got_header} != {len(want)}x{header}"]
    rtol, atol = TOLERANCE[name]
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        for col, g, w in zip(header, g_row, w_row):
            if not abs(g - w) <= atol + rtol * abs(w):
                return [f"{name}: row {i} {col} = {g!r}, reference {w!r}"]
    return []


def match_reference(name: str, out: Path, ref_dir: Path) -> list[str]:
    header, want = read_csv(ref_dir / name)
    return match_rows(name, out / name, header, want)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def check_residuals(out: Path, failures: list[str]) -> None:
    rep = _json(out / "residual_report.json")
    _require(failures, rep["borel_residual"] <= 1e-8,
             f"borel residual {rep['borel_residual']:.3e} > 1e-8")
    _require(failures, rep["physical_residual_max"] <= 1e-6,
             f"physical residual {rep['physical_residual_max']:.3e} > 1e-6")


def check_example_all(cfg: dict, out: Path) -> list[str]:
    failures: list[str] = []
    consts = dict(read_csv_named(out / "constants.csv"))
    _require(failures, abs(consts["D32"] - 1.0 / 3.0) <= 1e-9,
             f"D32 = {consts['D32']!r}, want 1/3")
    _require(failures, consts["k_threshold"] == 13,
             f"k_threshold = {consts['k_threshold']!r}, want 13")
    solve = _json(out / "solve_report.json")
    tol = cfg["tolerances"]["solve_tol"]
    _require(failures, solve["final_update"] < tol,
             f"final_update {solve['final_update']:.3e} >= solve_tol {tol}")
    _require(failures, solve["contraction_probe"] <= 0.55,
             f"contraction_probe {solve['contraction_probe']:.3f} > 0.55")
    check_residuals(out, failures)
    formal = _json(out / "formal_report.json")["residual"]
    _require(failures, formal <= 1e-9, f"formal residual {formal:.3e} > 1e-9")
    for name in ("evaluate.csv", "decay.csv", "remainders.csv"):
        failures += match_reference(name, out, REFERENCE / "example_all")
    return failures


def check_wide_asymptotics(cfg: dict, out: Path) -> list[str]:
    failures: list[str] = []
    fits = _json(out / "fits.json")
    dev = fits["decay"]["relative_deviation"]
    _require(failures, dev <= 0.10, f"decay relative_deviation {dev:.3f} > 0.10")
    _, decay = read_csv(out / "decay.csv")
    used = [row[0] for row in decay]
    decades = math.log10(max(used) / min(used)) if used else 0.0
    _require(failures, decades >= 1.9, f"only {decades:.2f} decades of |eps| used")
    table = fits["gevrey"]["ratio_table"]
    _require(failures, len(table) >= 2 and all(b > a for a, b in zip(table, table[1:])),
             f"ratio table not monotone: {table}")
    for name in ("decay.csv", "remainders.csv"):
        failures += match_reference(name, out, REFERENCE / "wide_asymptotics")
    return failures


def check_dense_points(cfg: dict, out: Path) -> list[str]:
    failures: list[str] = []
    check_residuals(out, failures)
    header, lattice = read_csv(REFERENCE / "dense_points_lattice.csv")
    by_key = {tuple(int(v) for v in row[:3]): row[3:] for row in lattice}
    want = [by_key[key] for key in dense_point_keys(cfg["seed"])]
    failures += match_rows("evaluate.csv", out / "evaluate.csv", header[3:], want)
    return failures


CHECKS = {
    "example_all": check_example_all,
    "wide_asymptotics": check_wide_asymptotics,
    "dense_points": check_dense_points,
}


def check_outputs(workload: str, cfg: dict, out: Path) -> list[str]:
    """Every threshold and reference mismatch of one iteration, as messages."""
    try:
        return CHECKS[workload](cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> dict[str, str]:
    """sha256 of every artifact, for the byte-identity check."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}
