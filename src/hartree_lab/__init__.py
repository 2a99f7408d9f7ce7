"""Ground states, sector spectra, and semiclassical diagnostics for the
Hartree (Choquard / Schrodinger-Newton) equation in dimensions 3, 4, 5;
the semiclassical layer is imported on its own, as hartree_lab.semiclassical."""

__version__ = "0.1.0"

from .radial_core import (  # noqa: F401
    RadialFunction,
    RadialGrid,
    build_grid,
    integrate_radial,
    sphere_area,
)
from .ground_state import (  # noqa: F401
    GroundState,
    SolverConfig,
    solve_ground_state,
)
from .linearized_spectrum import (  # noqa: F401
    SectorOperator,
    assemble_sector,
    lowest_eigenpairs,
    nondegeneracy_report,
)
