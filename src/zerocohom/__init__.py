"""0-cohomology workbench for finite semigroups with zero.

Cochains live only on tuples whose product is nonzero, so the degree-2
groups classify projective-representation factor sets, Brauer-monoid
components, and partial factor sets of groups; brute-force twins verify
every computation at desk scale.

Importing the package loads none of its modules: names are imported
from the module that defines them (``from zerocohom.cohomology import
cohomology_group``), so a CLI process loads only what its subcommand runs.
"""

__version__ = "0.1.0"

# the nerves a cochain complex can live on (see cohomology.nerve)
VARIANTS = ("zero", "em")
