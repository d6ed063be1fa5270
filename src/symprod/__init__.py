"""symprod: symplectic products of star-shaped planar domains.

Explicit area-preserving maps from disks onto star-shaped domains, the
2-product gauge machinery, characteristic boundary flows conjugate to
ellipsoid Reeb flows, ellipsoid capacity tables, and box-counting dimension
estimation for fractal boundaries.

The API is the modules (``symprod.geometry2d``, ``diskmap``, ``product``,
``dynamics``, ``capacities``, ``fractal``, ``specfile``, ``selftest`` and
``cli``); the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
