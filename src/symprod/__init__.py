"""symprod: symplectic products of star-shaped planar domains.

Explicit area-preserving maps from disks onto star-shaped domains, the
2-product gauge machinery, characteristic boundary flows conjugate to
ellipsoid Reeb flows, ellipsoid capacity tables, and box-counting dimension
estimation for fractal boundaries.
"""

__version__ = "0.1.0"

from .geometry2d import (
    EllipsoidSpec,
    RadialProfile,
    cosine_profile,
    disk_profile,
    hunt_profile,
    polygon_profile,
    weierstrass_profile,
    xz_profile,
)
from .diskmap import (
    CutoffMapConfig,
    cutoff_disk_map,
    disk_to_domain,
    domain_to_disk,
    product_map,
    sandwich_check,
)
from .product import (
    ProductDomain,
    mc_volume,
)
from .dynamics import (
    FlowPoint,
    char_flow_2d,
    conjugacy_residual,
    is_foliated_by_systoles,
    orbit_period,
    reeb_ellipsoid,
)
from .capacities import (
    CapacityTable,
    boundary_minimal_experiment,
    gh_capacities,
    shrink_profile,
    zoll_check,
)
from .fractal import (
    DimensionEstimate,
    Weierstrass,
    PhaseShiftedWeierstrass,
    box_count,
    estimate_dimension,
    graph_sampler,
    make_fractal,
)
from .specfile import SpecFileError, load_spec, parse_spec
