"""The CHECKS table: selftest runs each entry once, and the acceptance suite
runs each entry in exactly one criterion."""

import test_acceptance
from symprod import selftest


def test_run_selftest_prints_one_line_per_check():
    """A quick run prints one line per CHECKS entry, then the summary; its
    boxdim line reports the product and fractal-patch slopes."""
    lines = []
    assert selftest.run_selftest(seed=7, quick=True, out=lines.append) == 0
    n = len(selftest.CHECKS)
    assert len(lines) == n + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"OK ({n}/{n} checks passed)"
    boxdim = [line for line in lines if line.startswith("PASS boxdim: ")]
    assert len(boxdim) == 1
    assert "product_slope=" in boxdim[0] and "fractal_slope=" in boxdim[0]


def test_every_check_has_one_criterion():
    """Each CHECKS entry is named by exactly one test_criterion_*."""
    criteria = [fn for name, fn in vars(test_acceptance).items()
                if name.startswith("test_criterion_")]
    for check, _ in selftest.CHECKS:
        users = [fn.__name__ for fn in criteria
                 if check.__name__ in fn.__code__.co_names]
        assert len(users) == 1, (check.__name__, users)
