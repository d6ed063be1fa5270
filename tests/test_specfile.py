"""Domain spec-file parsing and error anchoring."""

import numpy as np
import pytest

from symprod.geometry2d import RadialProfile
from symprod.product import ellipsoid_level
from symprod import specfile
from symprod.cli import run
from symprod.specfile import SpecFileError, parse_spec

GOOD = """\
p = 2

[factor]
type = weierstrass
amplitude = 0.1
terms = 20

[factor]
type = polygon
vertices = 1 1, -1 1, -1 -1, 1 -1
"""


def test_parse_good_spec():
    domain = parse_spec(GOOD)
    assert len(domain.factors) == 2
    assert domain.p == 2.0
    assert domain.factor_areas[1] == pytest.approx(4.0, rel=1e-5)


def test_parse_ellipsoid_factor():
    """An ellipsoid section is its disks; their 2-product is E(1, 2, 3)."""
    domain = parse_spec("[factor]\ntype = ellipsoid\nareas = 1 2 3\n")
    assert len(domain.factors) == 3
    assert all(isinstance(f, RadialProfile) for f in domain.factors)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    assert np.allclose(domain.gauge(z), np.sqrt(ellipsoid_level([1, 2, 3], z)),
                       rtol=0.0, atol=1e-12)


def test_parse_samples_factor():
    values = " ".join(["1", "1.1"] * 16)
    domain = parse_spec(f"[factor]\ntype = samples\nvalues = {values}\n")
    assert domain.factors[0].radius(0.0) == pytest.approx(1.0)


def test_default_p_is_two():
    assert parse_spec("[factor]\ntype = disk\n").p == 2.0


def test_custom_p():
    assert parse_spec("p = 3.5\n[factor]\ntype = disk\n").p == 3.5


def test_unknown_key_is_line_anchored():
    text = "p = 2\n\n[factor]\ntype = disk\nradius = 3\n"
    with pytest.raises(SpecFileError) as exc:
        parse_spec(text)
    assert exc.value.line == 5
    assert "radius" in str(exc.value)


def test_unknown_factor_type():
    with pytest.raises(SpecFileError, match="unknown factor type"):
        parse_spec("[factor]\ntype = pentagon\n")


def test_unknown_section():
    with pytest.raises(SpecFileError, match=r"unknown section"):
        parse_spec("[domain]\ntype = disk\n")


def test_unknown_top_level_key():
    with pytest.raises(SpecFileError, match="top-level"):
        parse_spec("q = 2\n[factor]\ntype = disk\n")


def test_duplicate_key_rejected():
    text = "[factor]\ntype = disk\narea = 1\narea = 2\n"
    with pytest.raises(SpecFileError, match="duplicate"):
        parse_spec(text)


def test_duplicate_top_level_key_rejected_at_second_line(tmp_path, capsys):
    text = "p = 2\np = 1\n[factor]\ntype = disk\n"
    with pytest.raises(SpecFileError) as info:
        parse_spec(text)
    assert info.value.line == 2
    assert str(info.value) == "line 2: duplicate key 'p'"
    spec = tmp_path / "dup.spec"
    spec.write_text(text)
    assert run(["area", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == "spec error: line 2: duplicate key 'p'\n"


def test_missing_type_rejected():
    with pytest.raises(SpecFileError, match="missing 'type'"):
        parse_spec("[factor]\narea = 1\n")


def test_empty_spec_rejected():
    with pytest.raises(SpecFileError, match="no factors"):
        parse_spec("p = 2\n")


# A cubic spline through these 16 positive samples dips to -0.003.
NON_STAR_CUBIC = ("0.69 0.88 0.73 0.99 1.34 1.41 1.16 0.84 0.85 0.84 1.31 "
                  "0.75 1.28 0.01 1.07 1.47")


def test_bad_value_is_line_anchored():
    text = "[factor]\ntype = disk\narea = big\n"
    with pytest.raises(SpecFileError) as exc:
        parse_spec(text)
    assert exc.value.line == 3


@pytest.mark.parametrize("text, line", [
    ("p = 0.5\n[factor]\ntype = disk\n", 1),
    ("p = 2\n\n[factor]\ntype = polygon\nvertices = 1 1, 2 2, -1 1\n", 3),
    ("[factor]\ntype = disk\n[factor]\ntype = disk\nN = 8\n", 3),
    ("p = 3\n[factor]\ntype = disk\n[factor]\ntype = ellipsoid\n"
     "areas = 1 2\n", 4),
    ("[factor]\ntype = ellipsoid\nareas = \n", 3),
    ("p = nan\n[factor]\ntype = disk\n", 1),
    ("p = inf\n[factor]\ntype = disk\n", 1),
    ("p = 2\n[factor]\ntype = polygon\nn = 64\n", 2),
    ("[factor]\ntype = samples\ninterpolation = cubic\n", 1),
    ("[factor]\ntype = disk\n\n[factor]\ntype = ellipsoid\n", 4),
    ("[factor]\ntype = disk\narea = inf\n", 1),
    ("p = 2\n[factor]\ntype = cosine\narea = -1\n", 2),
    (f"[factor]\ntype = disk\n[factor]\ntype = samples\n"
     f"interpolation = cubic\nvalues = {NON_STAR_CUBIC}\n", 3),
    ("p = 2\n[factor]\ntype = weierstrass\nb = 1e300\n", 2),
], ids=["p-below-one", "non-star-polygon", "too-few-samples", "ellipsoid-p3",
        "ellipsoid-no-areas", "p-nan", "p-inf", "polygon-no-vertices",
        "samples-no-values", "ellipsoid-no-areas-key", "disk-area-inf",
        "cosine-area-negative", "samples-cubic-non-star",
        "weierstrass-b-overflow"])
@pytest.mark.filterwarnings("error")
def test_library_rejected_value_is_line_anchored(text, line):
    """Rejected before any numpy warning: a RuntimeWarning fails the test."""
    with pytest.raises(SpecFileError) as exc:
        parse_spec(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


def test_syntax_error_is_reported_before_a_rejected_value():
    """Factors are built after the whole file is read: the malformed line
    6 is reported, not the negative area of the factor at line 1."""
    text = "[factor]\ntype = disk\narea = -1\n[factor]\ntype = disk\nbad\n"
    with pytest.raises(SpecFileError, match="key = value") as exc:
        parse_spec(text)
    assert exc.value.line == 6


@pytest.mark.parametrize("ftype, key", [
    ("polygon", "vertices"), ("samples", "values"), ("ellipsoid", "areas")])
def test_missing_required_key_is_named(ftype, key):
    with pytest.raises(SpecFileError,
                       match=f"factor type '{ftype}' needs '{key}'"):
        parse_spec(f"[factor]\ntype = {ftype}\n")


def test_factor_keys_are_pinned():
    """The keys each factor type accepts; renaming a builder parameter
    changes the file format and must fail here."""
    keys = {ftype: set(specfile._params(builder))
            for ftype, builder in specfile._BUILDERS.items()}
    assert keys == {
        "disk": {"area", "n", "interpolation"},
        "cosine": {"area", "n", "interpolation"},
        "polygon": {"vertices", "n"},
        "weierstrass": {"r0", "amplitude", "a", "b", "terms", "n"},
        "hunt": {"r0", "amplitude", "a", "b", "terms", "seed", "phases",
                 "n"},
        "xz": {"r0", "amplitude", "a", "alpha", "beta", "terms", "n"},
        "samples": {"values", "interpolation"},
        "ellipsoid": {"areas"},
    }


def test_spec_factors_default_to_linear_interpolation():
    """cosine_profile defaults to cubic; a spec's cosine factor is linear."""
    domain = parse_spec("[factor]\ntype = cosine\n[factor]\ntype = disk\n")
    assert [f.interpolation for f in domain.factors] == ["linear", "linear"]
    text = "[factor]\ntype = cosine\ninterpolation = cubic\n"
    assert parse_spec(text).factors[0].interpolation == "cubic"


def test_comments_and_blank_lines_ignored():
    text = "# heading\np = 2  # inline\n\n[factor]\ntype = disk\n"
    assert len(parse_spec(text).factors) == 1


def test_malformed_line_rejected():
    with pytest.raises(SpecFileError, match="key = value"):
        parse_spec("just some words\n")
