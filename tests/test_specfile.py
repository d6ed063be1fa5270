"""Domain spec-file parsing and error anchoring."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("ftype, extra", [
    ("weierstrass", ""), ("hunt", ""), ("xz", ""), ("cosine", ""),
    ("polygon", "vertices = 1 1, -1 1, -1 -1, 1 -1\n")],
    ids=["weierstrass", "hunt", "xz", "cosine", "polygon"])
def test_zero_nodes_exit_2_with_line(ftype, extra, tmp_path, capsys):
    """n = 0 is rejected before the node angles 2 pi k / n are divided
    out, so it is a spec error and not a ZeroDivisionError."""
    spec = tmp_path / "zero.spec"
    spec.write_text(f"[factor]\ntype = {ftype}\n{extra}n = 0\n")
    assert run(["area", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "spec error: line 1: need at least 16 radius samples, got 0\n")


@pytest.mark.parametrize("ftype, extra", [
    ("disk", ""), ("cosine", ""), ("weierstrass", ""), ("hunt", ""),
    ("xz", ""), ("polygon", "vertices = 1 1, -1 1, -1 -1, 1 -1\n")],
    ids=["disk", "cosine", "weierstrass", "hunt", "xz", "polygon"])
def test_huge_node_count_exit_2_with_line(ftype, extra, tmp_path, capsys):
    """n = 10**14 is refused before numpy is asked for its 728 TiB of node
    angles or radii, by every builder that takes n."""
    spec = tmp_path / "huge.spec"
    spec.write_text(f"[factor]\ntype = {ftype}\n{extra}n = {10 ** 14}\n")
    assert run(["area", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "spec error: line 1: need at most 1048576 radius samples, "
        f"got N = {10 ** 14}\n")


# Values for the spec property: edge cases, lists and a few that parse.
SPEC_VALUES = ["0", "-5", str(10 ** 14), "1e308", "nan", "inf", "", "0.5",
               "2", "64", "1 2 3", "1 1, -1 1, -1 -1, 1 -1", "1 " * 16]


@st.composite
def spec_texts(draw):
    """Spec text from a small grammar: an optional p line, then sections of
    known (or unknown) types and keys, each with a value from SPEC_VALUES."""
    value = st.sampled_from(SPEC_VALUES)
    lines = []
    if draw(st.booleans()):
        lines.append(f"p = {draw(value)}")
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from(["[factor]"] * 2 + ["[bogus]"])))
        ftype = draw(st.sampled_from(sorted(specfile._BUILDERS) + ["bogus"]))
        builder = specfile._BUILDERS.get(ftype)
        keys = sorted(specfile._params(builder)) if builder else []
        if draw(st.booleans()):
            lines.append(f"type = {ftype}")
        for key in draw(st.lists(st.sampled_from(keys + ["type", "bogus"]),
                                 max_size=4)):
            lines.append(f"{key} = {draw(value)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=spec_texts())
@example(text=f"[factor]\ntype = xz\nbeta = {10 ** 14}\n")
def test_spec_is_a_domain_or_a_line_anchored_error(text):
    """Any text of the grammar parses to a ProductDomain, or raises a
    SpecFileError that carries its line, unless no factor is declared.
    The example is an xz term a^-(k^beta) that Python's ** cannot hold."""
    try:
        domain = parse_spec(text)
    except SpecFileError as exc:
        if exc.line is None:
            assert str(exc) == "spec file declares no factors", text
    else:
        assert isinstance(domain, specfile.ProductDomain)


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
