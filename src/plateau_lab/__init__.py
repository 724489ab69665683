"""plateau-lab: a desk-scale laboratory for minimal and almost-minimal sets.

Subpackages/modules:

- :mod:`plateau_lab.geometry` — meshes, balls, gauges, exact measures, clipping,
  localized set distances, boundary energy, serialization.
- :mod:`plateau_lab.grids` — dyadic cube complexes, with opposite faces
  identified on chosen axes (a flat torus when all are).
- :mod:`plateau_lab.projection` — radial projections onto grid skeletons with
  per-cube measure ledgers.
- :mod:`plateau_lab.steiner` — multiplicity nets: Kirchhoff audits, objectives,
  full-topology branched-network solver.
- :mod:`plateau_lab.cones` / :mod:`plateau_lab.diagnostics` — reference cone
  catalog, density profiles, blow-ups, cone-slice checks, point classification.
- :mod:`plateau_lab.minimizer` — discrete area minimization over grid face sets.
- :mod:`plateau_lab.cli` — the ``plateau-lab`` command line.
"""

__version__ = "0.1.0"
