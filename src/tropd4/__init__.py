"""Exact pipeline: pseudotriangulations, the rank-4 positive tropical fan,
and matroid subdivisions of the (3,6)-hypersimplex.

The package re-exports nothing: import from its modules, as in
``from tropd4.fan import compute_fan_f36``, so that each import loads only
the modules it needs."""

__version__ = "0.1.0"
