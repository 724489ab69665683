"""Geometric core, one submodule per concern: ``core`` (value types, exact
measures), ``clipping``, ``distance``, ``energy`` and ``meshio``
(serialization).  Import from the submodules; the package re-exports nothing.
"""
