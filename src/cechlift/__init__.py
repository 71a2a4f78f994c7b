"""Exact Cech lifting obstructions and discrete connective structures.

The library computes, in exact arithmetic on finite simplicial
complexes: Cech cohomology of cover nerves, the degree-2 obstruction to
lifting bundle transition data through a central extension, the full
obstruction sequence of an extension tower (with connecting operators
through the derived quotient sequences), and the discretized
differential geometry of the resulting structures: descent data,
curvature, characteristic forms, and circle-valued surface holonomy.
"""

from .abelian import (
    CIRCLE,
    QQ,
    CircleElement,
    CircleGroup,
    FgAbelianGroup,
    GroupElement,
    Homomorphism,
    RationalGroup,
    ShortExactSequence,
)
from .cochains import (
    Cochain,
    CohomologyClasses,
    GoodnessReport,
    coboundary,
    cohomology_classes,
    cup,
    is_coboundary,
    verify_good_cover,
)
from .complexes import (
    Chain,
    Cover,
    Nerve,
    SimplicialComplex,
    chain_boundary,
    fundamental_cycle,
    nerve,
    product_complex,
    product_cover,
    shuffle_product_chain,
    star_cover,
    validate_complex,
)
from .deligne import (
    DelignePackage,
    DoubleCochain,
    HolonomyTrivialization,
    characteristic_form,
    curvature,
    descent_chain,
    holonomy,
    pair,
)
from .tower import (
    CentralExtension,
    ExtensionTower,
    FiniteGroup,
    Obstruction,
    ObstructionSequence,
    TransitionCocycle,
    bockstein,
    giraud_obstruction,
    lift_transitions,
    tower_obstructions,
)

__version__ = "0.1.0"
