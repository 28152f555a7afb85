"""The config schema: each JSON config key is one `SCHEMA` entry, each kind one reader;
`GridSpec`, `ProblemSpec` and `cli.load_config` check the relations between keys."""

import cmath
import contextlib
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

REQUIRED = object()

# the most characters of a refused value that a message echoes
SHOWN_CHARS = 80


def shown(x) -> str:
    """repr(x) for a message, clipped to SHOWN_CHARS characters: a refused
    value can be an integer of hundreds of digits or a long list."""
    text = repr(x)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def as_int(x, key: str) -> int:
    """An int, or a float with an integral value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or (isinstance(x, float) and not x.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {shown(x)}")
    return int(x)


def _finite(x) -> bool:
    """Whether the number x is finite as a float: an int too large for one is not."""
    try:
        return cmath.isfinite(x)
    except OverflowError:
        return False


def as_real(x, key: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not _finite(x):
        raise ConfigError(f"{key} must be finite and real, got {shown(x)}")
    return float(x)


def as_complex(x, key: str) -> complex:
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(as_real(x[0], key), as_real(x[1], key))
    if isinstance(x, bool) or not isinstance(x, (int, float, complex)) or not _finite(x):
        raise ConfigError(f"{key} must be finite, a number or [re, im], got {shown(x)}")
    return complex(x)


def _typed(kind: type, what: str):
    def read(x, key: str):
        if not isinstance(x, kind):
            raise ConfigError(f"{key} must be {what}, got {shown(x)}")
        return x
    return read


as_list, as_mapping = _typed(list, "a list"), _typed(dict, "a mapping")


def as_poly(x, key: str) -> np.ndarray:
    """Complex coefficients, low degree first, not all zero."""
    c = np.asarray([as_complex(v, key) for v in as_list(x, key)], dtype=complex)
    if not c.any():
        raise ConfigError(f"{key} = {shown(x)} is the zero polynomial, which has no degree")
    return c


def as_range(x, key: str) -> tuple[float, float, int]:
    """(lo, hi, n) from [lo, hi, n] with n >= 2."""
    if not isinstance(x, list) or len(x) != 3 or as_int(x[2], f"{key} n") < 2:
        raise ConfigError(f"{key} must be [lo, hi, n] with n >= 2, got {shown(x)}")
    return as_real(x[0], key), as_real(x[1], key), int(x[2])


def as_points(x, key: str) -> list[tuple[complex, complex]]:
    """(t, z) pairs from [re t, im t, re z, im z] rows or [t, z] pairs."""
    rows = [p for p in as_list(x, key) if isinstance(p, list) and len(p) in (2, 4)]
    if len(rows) < len(x):
        raise ConfigError(f"{key}: a point is [re t, im t, re z, im z] or [t, z], got {shown(x)}")
    # [re t, im t, re z, im z] rows of finite ints and floats as one array;
    # any other point, or an int too large for a float, takes the per-value
    # readers, which name what is wrong
    if all(len(p) == 4 for p in rows) and {type(v) for p in rows for v in p} <= {int, float}:
        with contextlib.suppress(OverflowError):
            coords = np.array(rows, dtype=float).reshape(-1, 4)
            if np.isfinite(coords).all():
                return list(map(tuple, coords.view(complex).tolist()))
    return [(as_complex(p[:2] if len(p) == 4 else p[0], key),
             as_complex(p[2:] if len(p) == 4 else p[1], key)) for p in rows]


READERS = {
    "int": as_int, "real": as_real, "complex": as_complex, "poly": as_poly,
    "range": as_range, "points": as_points, "path": _typed(str, "a path"),
    # parsed further by ProblemSpec.from_dict and FourierSymbol.from_dict
    "terms": as_list, "symbols": as_mapping, "symbol": lambda x, key: x,
}


@dataclass(frozen=True)
class Key:
    """A key of the mapping at dotted path `section` ("" at the top); absent
    or null, it takes `default`, which a callable derives from the spec.  The
    bounds act on a number, a complex's modulus and both ends of a range."""

    section: str
    name: str
    kind: str
    default: object = REQUIRED
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    ignored: str = ""                   # why the key is not read, if it is not

    def read(self, mapping: dict, spec=None):
        label = f"{self.section}.{self.name}".lstrip(".")
        x = mapping.get(self.name)
        if x is None and self.default is REQUIRED:
            raise ConfigError(f"{label} is required")
        if x is None:
            return self.default(spec) if callable(self.default) else self.default
        value = READERS[self.kind](x, label)
        ends = [abs(value)] if self.kind == "complex" else \
            value[:2] if self.kind == "range" else [value]
        for op, bound, holds in ((">", self.gt, operator.gt), (">=", self.ge, operator.ge),
                                 ("<", self.lt, operator.lt)):
            if bound is not None and not all(holds(v, bound) for v in ends):
                raise ConfigError(f"{label} = {shown(x)} must be {op} {bound:g}"
                                  + " in modulus" * (self.kind == "complex"))
        return value


SCHEMA = (
    Key("problem", "D", "int", ge=2),
    Key("problem", "k", "int", ge=1),
    Key("problem", "q", "real", gt=1),
    Key("problem", "dD", "int", ge=0),
    *(Key("problem", name, "poly") for name in ("Q", "RD")),
    Key("problem", "terms", "terms", default=()),
    *(Key("problem", name, "real") for name in ("beta", "beta_prime", "alpha")),
    Key("problem", "mu", "real", gt=1),
    Key("problem", "eps0", "real", gt=0, lt=1),
    Key("problem", "varsigma", "real", default=0.1),
    Key("problem.forcing", "CF", "real", default=1.0),
    *(Key("problem.forcing", f"f{h}", "symbols", default={}) for h in (0, 1)),
    *(Key("problem.coeffs", name, "real", default=1.0) for name in ("CB", "CC")),
    *(Key("problem.coeffs", f"b{j}{k}", "symbol", default=None) for j in (0, 1) for k in (0, 1)),
    Key("covering", "zeta", "int", default=2, ge=2),
    Key("covering", "t_radius", "real", default=0.02, gt=0),
    Key("covering", "t_aperture", "real", default=0.1, ge=0),
    Key("covering", "t_direction", "real", default=0.0),
    Key("quadrature", "M", "real", default=lambda spec: 40.0 / spec.beta, gt=0),
    Key("quadrature", "m_nodes", "int", default=241, ge=3),
    Key("quadrature", "Delta", "real", default=0.5, gt=0),
    Key("grid", "T_min", "real", ignored="the Taylor ray serves every |eps t| up to T_max"),
    Key("grid", "T_max", "real", default=None, gt=0),
    Key("grid", "density_factor", "real", default=4.0, gt=0),
    Key("grid", "n_angles", "int", ignored="the arc sums the Taylor series at its own nodes"),
    Key("grid", "ring_octaves", "int", ignored="the disc ring lines are retired"),
    Key("asymptotics", "N_max", "int", default=6, ge=0),
    Key("asymptotics", "eps_gevrey", "range", gt=0,
        default=lambda spec: (0.25 * spec.eps0, 0.9 * spec.eps0, 5)),
    Key("asymptotics", "eps_decay", "range", gt=0,
        default=lambda spec: (0.012 * spec.eps0, 0.9 * spec.eps0, 9)),
    Key("asymptotics", "pair", "int", default=0),
    *(Key("tolerances", name, kind, ignored="every Picard run stops at borel_solver.PICARD_RTOL")
      for name, kind in (("solve_tol", "real"), ("formal_tol", "real"), ("max_iter", "int"))),
    Key("", "eps", "complex", default=lambda spec: complex(0.75 * spec.eps0), gt=0),
    Key("", "points", "points", default=()),
    Key("", "points_csv", "path", default=None),
    Key("", "geometry_m_grid", "range", default=(-50.0, 50.0, 2001)),
    Key("", "seed", "int", ignored="no computation draws random numbers"),
    Key("", "output_dir", "path", default="out"),
)
_READ = {section: [key for key in SCHEMA if key.section == section and not key.ignored]
         for section in {key.section for key in SCHEMA}}


def read_keys(mapping, name: str, spec=None) -> dict:
    """Each read key of section name in its mapping, or its default."""
    mapping = as_mapping(mapping, name or "the configuration")
    return {key.name: key.read(mapping, spec) for key in _READ[name]}


# the fields `FourierSymbol.from_dict` reads of a closed-form symbol (its
# keyword arguments) and of a tabulated one, and those `ProblemSpec.from_dict`
# reads of a term
FIELDS = {"symbol": ("num", "den", "exp_abs", "gauss", "eps_poly"),
          "table": ("m", "values", "eps_poly"),
          "term": ("d", "Delta", "delta", "R", "C")}


def _unread_fields(kind: str, value, path: str) -> list[str]:
    """The path of every field in the value of a key of this kind that its
    parser does not read: in a symbol, each symbol of a `symbols` mapping
    and each term of `terms` and its symbol C."""
    if kind == "symbols":
        return [f for power, sym in value.items()
                for f in _unread_fields("symbol", sym, f"{path}[{power}]")]
    if kind == "terms":
        found = []
        for i, term in enumerate(value):
            found += [f"{path}[{i}].{name}" for name in term if name not in FIELDS["term"]]
            found += _unread_fields("symbol", term.get("C"), f"{path}[{i}].C")
        return found
    if kind == "symbol" and isinstance(value, dict):
        known = FIELDS["table" if "m" in value or "values" in value else "symbol"]
        return [f"{path}.{name}" for name in value if name not in known]
    return []


def ignored_keys(raw: dict, name: str = "") -> list[str]:
    """The dotted path of every key in raw that no read entry names, and of
    every field of a read symbol or term that its parser does not read."""
    found = []
    for key, value in raw.items():
        path = f"{name}.{key}" if name else key
        entry = next((k for k in _READ[name] if k.name == key), None)
        if key and path in _READ and isinstance(value, dict):
            found += ignored_keys(value, path)
        elif entry is None:
            found.append(path)
        else:
            found += _unread_fields(entry.kind, value, path)
    return sorted(found)
