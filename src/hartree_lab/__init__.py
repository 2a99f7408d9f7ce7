"""Ground states, sector spectra, and semiclassical diagnostics for the
Hartree (Choquard / Schrodinger-Newton) equation in dimensions 3, 4, 5."""

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
    rescale_state,
    solve_ground_state,
)
from .linearized_spectrum import (  # noqa: F401
    SectorOperator,
    assemble_sector,
    compute_Wk,
    lowest_eigenpairs,
    nondegeneracy_report,
)
from .newton_potential import (  # noqa: F401
    direct_newton_potential_nd,
    multipole_potential,
    radial_newton_potential,
)
from .semiclassical import (  # noqa: F401
    PotentialField,
    ShellQuadrature,
    predict_concentration,
    shell_quadrature,
    soliton_energy,
    soliton_row,
)
