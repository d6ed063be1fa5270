"""Parser for domain spec files (structured key-value text).

Format: optional top-level keys, then one ``[factor]`` section per factor.

    p = 2

    [factor]
    type = weierstrass
    r0 = 1.0
    amplitude = 0.1
    a = 0.5
    b = 3.0
    terms = 20
    N = 4096

    [factor]
    type = polygon
    vertices = 1 1, -1 1, -1 -1, 1 -1

Recognized factor types and their keys:

    disk        area, N, interpolation
    cosine      area, N, interpolation
    polygon     vertices ("x y, x y, ..."), N
    weierstrass r0, amplitude, a, b, terms, N
    hunt        r0, amplitude, a, b, terms, seed, phases, N
    xz          r0, amplitude, a, alpha, beta, terms, N
    samples     values ("r0 r1 ..."), interpolation
    ellipsoid   areas ("a1 a2 ...")

An ``ellipsoid`` section stands for one disk factor per area: the
2-product of those disks is the ellipsoid E(a1, a2, ...). That holds only
at p = 2, so under any other p the section is an error at its line.

Unknown keys are rejected with a line-anchored message; so are values the
library rejects, at the p line or at the factor's section line.
"""

from __future__ import annotations

import numpy as np

from . import geometry2d
from .geometry2d import RadialProfile
from .product import ProductDomain


class SpecFileError(ValueError):
    """Malformed spec file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_TOP_KEYS = {"p"}

_FACTOR_KEYS = {
    "disk": {"area", "n", "interpolation"},
    "cosine": {"area", "n", "interpolation"},
    "polygon": {"vertices", "n"},
    "weierstrass": {"r0", "amplitude", "a", "b", "terms", "n"},
    "hunt": {"r0", "amplitude", "a", "b", "terms", "seed", "phases", "n"},
    "xz": {"r0", "amplitude", "a", "alpha", "beta", "terms", "n"},
    "samples": {"values", "interpolation"},
    "ellipsoid": {"areas"},
}


def _tokenize(text):
    """Yield (line_number, kind, payload) for section headers and pairs."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFileError("unterminated section header", lineno)
            yield lineno, "section", line[1:-1].strip().lower()
        elif "=" in line:
            key, value = line.split("=", 1)
            yield lineno, "pair", (key.strip().lower(), value.strip())
        else:
            raise SpecFileError(f"expected 'key = value', got {line!r}", lineno)


def _floats(value, lineno):
    try:
        return [float(tok) for tok in value.replace(",", " ").split()]
    except ValueError:
        raise SpecFileError(f"expected numbers, got {value!r}", lineno)


def _vertices(value, lineno):
    pairs = [p.strip() for p in value.split(",") if p.strip()]
    verts = []
    for p in pairs:
        parts = p.split()
        if len(parts) != 2:
            raise SpecFileError(f"bad vertex {p!r} (expected 'x y')", lineno)
        try:
            verts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise SpecFileError(f"bad vertex {p!r}", lineno)
    return verts


def _build_factors(entries, section_line, p):
    """The factors of one [factor] section: one, or one per ellipsoid area."""
    keys = {k: (v, ln) for k, (v, ln) in entries.items()}
    if "type" not in keys:
        raise SpecFileError("factor section missing 'type'", section_line)
    ftype, _ = keys.pop("type")
    ftype = ftype.lower()
    allowed = _FACTOR_KEYS.get(ftype)
    if allowed is None:
        raise SpecFileError(f"unknown factor type {ftype!r}", section_line)
    for k, (_, ln) in keys.items():
        if k not in allowed:
            raise SpecFileError(
                f"unknown key {k!r} for factor type {ftype!r}", ln)

    if ftype != "ellipsoid":
        return [_build_profile(ftype, keys)]
    if p != 2.0:
        raise SpecFileError(
            "an ellipsoid factor is the 2-product of its disks and needs "
            f"p = 2, got p = {p:g}", section_line)
    value, ln = keys["areas"]
    areas = _floats(value, ln)
    if not areas:
        raise SpecFileError("'areas' needs at least one value", ln)
    return [geometry2d.disk_profile(a) for a in areas]


def _build_profile(ftype, keys):
    def get(key, cast, default=None):
        if key not in keys:
            return default
        value, ln = keys[key]
        try:
            return cast(value)
        except SpecFileError:
            raise
        except Exception:
            raise SpecFileError(f"bad value for {key!r}: {value!r}", ln)

    n = get("n", int, 4096)
    interp = get("interpolation", str, "linear")
    if ftype == "disk":
        return geometry2d.disk_profile(get("area", float, np.pi), N=n,
                                       interpolation=interp)
    if ftype == "cosine":
        return geometry2d.cosine_profile(get("area", float, np.pi), N=n,
                                         interpolation=interp)
    if ftype == "polygon":
        value, ln = keys["vertices"]
        return geometry2d.polygon_profile(_vertices(value, ln), N=n)
    if ftype == "weierstrass":
        return geometry2d.weierstrass_profile(
            r0=get("r0", float, 1.0), amplitude=get("amplitude", float, 0.1),
            a=get("a", float, 0.5), b=get("b", float, 3.0),
            terms=get("terms", int, 20), N=n)
    if ftype == "hunt":
        phases = None
        if "phases" in keys:
            value, ln = keys["phases"]
            phases = _floats(value, ln)
        return geometry2d.hunt_profile(
            r0=get("r0", float, 1.0), amplitude=get("amplitude", float, 0.1),
            a=get("a", float, 0.5), b=get("b", float, 3.0),
            terms=get("terms", int, 20), phases=phases,
            seed=get("seed", int, 0), N=n)
    if ftype == "xz":
        return geometry2d.xz_profile(
            r0=get("r0", float, 1.0), amplitude=get("amplitude", float, 0.1),
            a=get("a", float, 0.5), alpha=get("alpha", float, 1.2),
            beta=get("beta", float, 1.5), terms=get("terms", int, 12), N=n)
    if ftype == "samples":
        value, ln = keys["values"]
        return RadialProfile(_floats(value, ln), interp)
    raise AssertionError(ftype)


def _anchored(build, line, *args):
    """Call a builder; a ValueError from the library gets ``line``."""
    try:
        return build(*args)
    except SpecFileError:
        raise
    except ValueError as exc:
        raise SpecFileError(str(exc), line) from None


def parse_spec(text):
    """Parse spec text into a ProductDomain."""
    p = 2.0
    p_line = None
    factors = []
    current = None
    current_line = None
    for lineno, kind, payload in _tokenize(text):
        if kind == "section":
            if payload != "factor":
                raise SpecFileError(f"unknown section [{payload}]", lineno)
            if current is not None:
                factors.extend(
                    _anchored(_build_factors, current_line, current,
                              current_line, p))
            current = {}
            current_line = lineno
        else:
            key, value = payload
            if current is None:
                if key not in _TOP_KEYS:
                    raise SpecFileError(f"unknown top-level key {key!r}",
                                        lineno)
                try:
                    p = float(value)
                except ValueError:
                    raise SpecFileError(f"bad value for 'p': {value!r}",
                                        lineno)
                p_line = lineno
            else:
                if key in current:
                    raise SpecFileError(f"duplicate key {key!r}", lineno)
                current[key] = (value, lineno)
    if current is not None:
        factors.extend(_anchored(_build_factors, current_line, current,
                                 current_line, p))
    if not factors:
        raise SpecFileError("spec file declares no factors")
    return _anchored(ProductDomain, p_line, factors, p)


def load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
