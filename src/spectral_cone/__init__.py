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
    apex,
    cone_add,
    evaluate,
    is_test,
    mix,
    trace,
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
    burg_generator,
    check_locality,
    check_sufficiency,
    divergence_from_generator,
    divergence_zoo,
    envelope,
    fit_entropy_constant,
    generator_from_coords_value,
    itakura_saito_divergence,
    kl_divergence,
    matrix_negentropy_divergence,
    matrix_negentropy_generator,
    negentropy_generator,
    numeric_gradient,
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
    random_pure_state,
    random_state,
    smallest_face,
    space_from_json,
    unit_square,
)
from .jordan import (
    EigenDecomposition,
    HermitianMatrix,
    ScalarFunction,
    SpinElement,
    apply_function,
    check_concavity,
    directional_derivative,
    eigen_hermitian,
    euclidean_check,
    jordan_product,
    second_trace_derivative,
    spin_product,
    trace_derivative,
    von_neumann_entropy,
)
from .jordan import trace as matrix_trace
from .spectral import (
    Landscape,
    Ordering,
    SpectralityReport,
    entropy,
    entropy_landscape,
    is_spectral,
    majorizes,
    spectral_rank,
    spectrum_of,
)

__version__ = "0.1.0"
