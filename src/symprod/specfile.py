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

Each factor type names one builder, and its keys are that builder's
parameters, lowercased (so ``N`` is ``n``), except that ``RadialProfile``'s
``samples`` is ``values``. A parameter without a default is a required key;
the others default to the builder's own defaults, with one exception: specs
default to linear interpolation, although ``cosine_profile`` defaults to
cubic.

    disk        geometry2d.disk_profile
    cosine      geometry2d.cosine_profile
    polygon     geometry2d.polygon_profile (vertices = "x y, x y, ...")
    weierstrass geometry2d.weierstrass_profile
    hunt        geometry2d.hunt_profile
    xz          geometry2d.xz_profile
    samples     geometry2d.RadialProfile (values = "r0 r1 ...")
    ellipsoid   geometry2d.EllipsoidSpec (areas = "a1 a2 ...")

An ``ellipsoid`` section stands for one disk factor per area: the
2-product of those disks is the ellipsoid E(a1, a2, ...). That holds only
at p = 2, so under any other p the section is an error at its line.

Unknown keys and unparsable values are rejected with a line-anchored
message; a missing required key and a value the library rejects are
reported at the factor's section line, or at the p line.
"""

from __future__ import annotations

import inspect

from . import geometry2d
from .geometry2d import EllipsoidSpec, RadialProfile
from .product import ProductDomain


class SpecFileError(ValueError):
    """Malformed spec file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_TOP_KEYS = {"p"}

# Factor type -> the geometry2d builder its section calls.
_BUILDERS = {
    "disk": geometry2d.disk_profile,
    "cosine": geometry2d.cosine_profile,
    "polygon": geometry2d.polygon_profile,
    "weierstrass": geometry2d.weierstrass_profile,
    "hunt": geometry2d.hunt_profile,
    "xz": geometry2d.xz_profile,
    "samples": RadialProfile,
    "ellipsoid": EllipsoidSpec,
}

# Builder parameters whose spec key is not their lowercased name.
_KEY_OF = {"samples": "values"}


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


def _floats(value):
    out = [float(tok) for tok in value.replace(",", " ").split()]
    if not out:
        raise ValueError("expected at least one number")
    return out


def _vertices(value):
    pairs = [p.strip() for p in value.split(",") if p.strip()]
    verts = []
    for p in pairs:
        parts = p.split()
        if len(parts) != 2:
            raise ValueError(f"bad vertex {p!r} (expected 'x y')")
        verts.append((float(parts[0]), float(parts[1])))
    return verts


# How a key's text becomes its value; every other key is one float.
_PARSERS = {"n": int, "terms": int, "seed": int, "interpolation": str,
            "vertices": _vertices, "values": _floats, "phases": _floats,
            "areas": _floats}


def _params(builder):
    """Spec key -> inspect.Parameter, for each parameter of ``builder``."""
    return {_KEY_OF.get(name, name.lower()): par
            for name, par in inspect.signature(builder).parameters.items()}


def _build_factors(entries, section_line, p):
    """The factors of one [factor] section: one, or one per ellipsoid area.

    The section's keys are its builder's parameters, and a parameter
    without a default is a required key.
    """
    keys = dict(entries)
    if "type" not in keys:
        raise SpecFileError("factor section missing 'type'", section_line)
    ftype = keys.pop("type")[0].lower()
    builder = _BUILDERS.get(ftype)
    if builder is None:
        raise SpecFileError(f"unknown factor type {ftype!r}", section_line)
    params = _params(builder)
    kwargs = {}
    for key, (value, ln) in keys.items():
        if key not in params:
            raise SpecFileError(
                f"unknown key {key!r} for factor type {ftype!r}", ln)
        try:
            kwargs[params[key].name] = _PARSERS.get(key, float)(value)
        except ValueError as exc:
            raise SpecFileError(f"bad value for {key!r}: {exc}", ln) from None
    for key, par in params.items():
        if par.default is par.empty and par.name not in kwargs:
            raise SpecFileError(
                f"factor type {ftype!r} needs {key!r}", section_line)
    if "interpolation" in params:
        kwargs.setdefault("interpolation", "linear")

    if ftype != "ellipsoid":
        return [builder(**kwargs)]
    if p != 2.0:
        raise SpecFileError(
            "an ellipsoid factor is the 2-product of its disks and needs "
            f"p = 2, got p = {p:g}", section_line)
    return [geometry2d.disk_profile(a) for a in builder(**kwargs).areas]


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
