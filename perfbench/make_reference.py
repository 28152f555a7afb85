"""Record the reference artifacts the benchmark's output checks compare against.

    python3 perfbench/make_reference.py      # from the repository root

Writes perfbench/reference/: evaluate.csv, decay.csv and remainders.csv of
`all` on the example config, decay.csv and remainders.csv of `asymptotics`
on the wide config, and dense_points_lattice.csv, the solution at every
(t, z) the dense_points workload can draw (18 t-values by the 81-cell z
lattice).  None of these depend on the seed.  Rerun only when a change is
meant to move the numbers, and say so in the change.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from workloads import LATTICE, WORKLOADS, make_config, t_ladder, z_lattice

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ROOT / ".perfbench_run" / "reference"


def run_verb(verb: str, cfg: dict, out: Path) -> None:
    from qborel.cli import run

    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    if run(verb, path, str(out)) != 0:
        sys.exit(f"{verb} failed while recording references")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)

    for name, verb, files in (
            ("example_all", "all", ("evaluate.csv", "decay.csv", "remainders.csv")),
            ("wide_asymptotics", "asymptotics", ("decay.csv", "remainders.csv"))):
        out = WORK / name
        run_verb(verb, make_config(ROOT, WORKLOADS[name], 0), out)
        (REFERENCE / name).mkdir(exist_ok=True)
        for f in files:
            shutil.copyfile(out / f, REFERENCE / name / f)

    cfg = make_config(ROOT, WORKLOADS["dense_points"], 0)
    ladder = t_ladder(cfg["problem"]["q"], cfg["problem"]["k"])
    keys = [(j, a, b) for j in range(len(ladder))
            for a in range(LATTICE) for b in range(LATTICE)]
    cfg["points"] = [[ladder[j], 0.0, z_lattice(a, b).real, z_lattice(a, b).imag]
                     for j, a, b in keys]
    out = WORK / "dense_points"
    run_verb("evaluate", cfg, out)
    with open(out / "evaluate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(REFERENCE / "dense_points_lattice.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["j_t", "i_re", "i_im"] + rows[0])
        for key, row in zip(keys, rows[1:]):
            w.writerow(list(key) + row)
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
