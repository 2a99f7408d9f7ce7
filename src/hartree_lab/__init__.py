"""Ground states, sector spectra, and semiclassical diagnostics for the
Hartree (Choquard / Schrodinger-Newton) equation in dimensions 3, 4, 5.
The package root re-exports nothing and imports no submodule: import each
one by name, as hartree_lab.ground_state, hartree_lab.linearized_spectrum,
hartree_lab.semiclassical and so on."""

__version__ = "0.1.0"
