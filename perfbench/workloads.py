"""The benchmark's workloads: which config each one runs, which verbs, and how
the seed enters the config.  The program sees only the generated config.

* example_all: `all` on configs/example_k13.json as shipped, with the seed in
  the config's `seed` field (it draws the contraction probes).  Dominated by
  writing omega0/omega1.csv and by the coupled solve with its contraction
  estimate.
* wide_asymptotics: `asymptotics` on configs/asymptotics_k13.json, seed in
  the `seed` field only.  Solver- and contour-heavy, writes about 10 KB.
* dense_points: `evaluate` then `residual` on the example equation with 360
  generated points: 18 t-values on the ladder T0 q^(j/k), which the residual's
  dilations by q^(1/k) map onto each other, times 20 seeded z-values.  Many
  points share eps*t, as in a plotting sweep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# dense_points: t ladder T0 q^(j/k), j < N_T, and a z lattice of
# re (i-4)/10 in [-0.4, 0.4] by im (i-4)/20 in [-0.2, 0.2]
T0 = 0.006
N_T = 18
N_Z = 20
LATTICE = 9


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    verbs: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("example_all", "configs/example_k13.json", ("all",),
                 "the worked instance end to end; time goes to omega*.csv "
                 "writing and the coupled solve with its contraction estimate"),
        Workload("wide_asymptotics", "configs/asymptotics_k13.json",
                 ("asymptotics",),
                 "about 43 triangular Borel solves over two sectors plus tail "
                 "and arc contours; little I/O, so solver-core changes show here"),
        Workload("dense_points", "configs/example_k13.json",
                 ("evaluate", "residual"),
                 "360 points sharing 18 values of eps*t; stresses "
                 "LogSolution.component and the theta kernel (Laplace reuse)"),
    )
}


def t_ladder(q: float, k: int) -> list[float]:
    return [T0 * q ** (j / k) for j in range(N_T)]


def z_lattice(i_re: int, i_im: int) -> complex:
    return complex((i_re - LATTICE // 2) / 10.0, (i_im - LATTICE // 2) / 20.0)


def dense_point_keys(seed: int) -> list[tuple[int, int, int]]:
    """(t index, z lattice re index, z lattice im index) of every point."""
    cells = [(a, b) for a in range(LATTICE) for b in range(LATTICE)]
    zs = random.Random(seed).sample(cells, N_Z)
    return [(j, a, b) for j in range(N_T) for (a, b) in zs]


def make_config(root: Path, workload: Workload, seed: int) -> dict:
    """The config this workload runs for this seed."""
    with open(root / workload.config) as fh:
        cfg = json.load(fh)
    cfg["seed"] = seed
    if workload.name == "dense_points":
        ladder = t_ladder(cfg["problem"]["q"], cfg["problem"]["k"])
        cfg["points"] = []
        for j, a, b in dense_point_keys(seed):
            z = z_lattice(a, b)
            cfg["points"].append([ladder[j], 0.0, z.real, z.imag])
    return cfg


def point_stats(cfg: dict) -> dict:
    """Point count and how many distinct eps*t values they share."""
    eps = cfg.get("eps")
    ts = {(p[0], p[1]) for p in cfg.get("points", [])}
    return {"points": len(cfg.get("points", [])), "distinct_eps_t": len(ts),
            "eps": eps}
