"""Convex state spaces: cones, orthogonal decompositions, entropy, divergences.

The package models compact convex state spaces (simplices, polytopes, balls,
density matrices over the real/complex/quaternion rings, spin factors),
decomposes cone elements into pairwise-orthogonal pure states, compares
decomposition spectra by majorization, computes the decomposition entropy,
and verifies the structural properties tying them together: locality and
sufficiency of Bregman regrets, spectrality of state spaces, the dimension
bound on decomposition length, and strict concavity of entropy on Euclidean
Jordan algebras.
"""

from .cone import (
    AffineFunctional,
    ConeElement,
    State,
    evaluate,
    is_test,
    mix,
)
from .decomposition import OrthogonalDecomposition, Spectrum
from .divergence import (
    Divergence,
    EntropyFit,
    FiniteActionSet,
    Generator,
    TangentActionSet,
    bregman,
    builtin_divergence,
    check_locality,
    check_sufficiency,
    divergence_from_generator,
    divergence_zoo,
    envelope,
    fit_entropy_constant,
    itakura_saito_divergence,
    kl_divergence,
    matrix_negentropy_divergence,
    negentropy_generator,
    regret_action,
    regret_state,
    scaled_divergence,
    squared_euclidean_divergence,
    squared_norm_generator,
)
from .errors import (
    ApexError,
    DecompositionError,
    DomainError,
    InvalidWeightsError,
    NonSpectralSpaceError,
    NotInConeError,
    PreconditionError,
    SpaceMismatchError,
    SpectralConeError,
)
from .geometries import (
    Ball,
    ChannelPair,
    DensityMatrices,
    Face,
    Polytope,
    Simplex,
    SpinFactor,
    decompose,
    enumerate_orthogonal_decompositions,
    mutually_singular,
    orthogonal,
    random_cone_element,
    random_state,
    smallest_face,
    space_from_json,
    unit_square,
)
from .jordan import (
    EigenDecomposition,
    HermitianMatrix,
    ScalarFunction,
    check_concavity,
    directional_derivative,
    eigen_hermitian,
    jordan_product,
    second_trace_derivative,
    trace_derivative,
    von_neumann_entropy,
)
from .spectral import (
    Landscape,
    Ordering,
    SpectralityReport,
    entropy,
    entropy_landscape,
    is_spectral,
    majorizes,
)

__version__ = "0.1.0"
