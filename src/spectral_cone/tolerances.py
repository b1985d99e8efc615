"""Every tolerance of the package, one name per rule.

Each verdict the package reports (membership, orthogonality, spectrality,
locality, sufficiency, concavity) turns on one of these values, and each is
written here once.  The modules read them from this table; the only ones a
caller may override are the defaults of ``contains_state(tol)``,
``check_locality(tol)``, ``check_sufficiency(tol)``,
``fit_entropy_constant(tol)`` and ``check_concavity(fd_step, strictness)``.
Relative tolerances are scaled by max(1, the size of the quantity compared).
Polytope geometry tolerances, SAME_STATE_TOL too, apply in the polytope's
frame, where its vertices span an extent in [1/2, 1); decompose scales its
reconstruction bound by the frame's ``coordinate_scale`` for user coordinates.
"""

# States, weights and spectra
MEMBERSHIP_TOL = 1e-9  # slack of the membership test a State and an is_test range must pass
GRID_MEMBERSHIP_TOL = 1e-12  # landscape grid points count as inside only this close to the state set
WEIGHT_TOL = 1e-12  # how far a trace, mixture or spectrum weight may fall below 0, or a mixture sum miss 1
TOTAL_TOL = 1e-9  # relative gap at which two spectra decompose elements of different trace
MAJORIZATION_TOL = 1e-12  # relative slack on the partial sums compared by majorizes
SPECTRUM_GAP_TOL = 1e-8  # two decomposition spectra of one state closer than this in sup norm are one spectrum
SPECTRUM_DIGITS = 9  # is_spectral rounds spectra to this many decimals before merging them

# Geometry
SAME_STATE_TOL = 1e-12  # density or polytope-frame coordinates this close are one state, never orthogonal
DISTINCT_STATE_TOL = 1e-9  # a locality sampler draws s2 again while it is this close to s1
SINGULARITY_TOL = 1e-9  # slack of the face, antipode, support-overlap and clique-residual tests
SUPPORT_TOL = 1e-9  # a simplex weight or eigenvalue cluster mean above this is in the support
WEIGHT_DROP_TOL = 1e-11  # relative weight at or below which a decomposition drops a component
WEIGHT_DIGITS = 12  # polytope decompositions with one support and weights equal to this many decimals are one
COLLINEAR_RTOL = 1e-12  # relative hull rounding slack: of a polygon turn (to |l| + |r|), a point on a facet (to extent)
BALL_CENTER_TOL = 1e-12  # a ball point this close to the centre decomposes along the fixed diameter
CLIQUE_RANK_TOL = 1e-10  # singular-value cut-off of the rank that decides a clique system is determined
PINV_RCOND = 1e-15  # a clique pseudo-inverse inverts singular values above this times the largest (numpy's default)
RECONSTRUCTION_TOL = 1e-9  # relative error within which a decomposition must rebuild its element
WITNESS_FEASIBILITY_TOL = 1e-7  # slack on [0, 1] of a polytope witness on its face, as in HiGHS's feasibility test
COMPLEMENT_MASS_MIN = 1e-6  # a density locality candidate needs more than this trace in the complement of s0

# Matrices and spin factors
HERMITIAN_TOL = 1e-12  # relative defect |A - A*| within which matrix data counts as Hermitian
CLUSTER_RTOL = 1e-9  # eigenvalues closer than this times the spectral radius form one cluster
CLUSTER_RADIUS_FLOOR = 1e-300  # keeps the cluster threshold of an all-zero spectrum positive, so it is one cluster
ZERO_EIGENVALUE_TOL = 1e-12  # eigenvalues at or below this count as 0 in entropies and matrix supports
NEGATIVE_EIGENVALUE_TOL = 1e-9  # relative depth below 0 at which an eigenvalue makes an element non-positive
SPIN_DEGENERATE_TOL = 1e-14  # a spin element (t, v) with |v| at most this has the single eigenvalue t

# Divergences and checkers
INTERIOR_EPS = 1e-12  # barycenter weight of the mixture that keeps gradients and interior divergences finite
KL_ZERO_MASS = 1e-15  # entries of p at or below this carry no mass in sum p ln(p / q)
SUPPORT_LEAK_TOL = 1e-10  # mass of rho outside the support of sigma above which D(rho, sigma) is inf
OPTIMAL_ACTION_TOL = 1e-12  # actions within this of the best payoff are all optimal
LOCALITY_TOL = 1e-8  # largest locality gap check_locality passes by default
SUFFICIENCY_TOL = 1e-9  # largest sufficiency gap check_sufficiency passes by default
REVERSIBILITY_TOL = 1e-9  # psi(phi(s)) must return s within this, or the trial is a precondition violation
ENTROPY_FIT_TOL = 1e-10  # residual within which fit_entropy_constant reports an entropy-generated divergence
CONCAVITY_FD_STEP = 1e-4  # step of the central second difference check_concavity compares against
CONCAVITY_STRICTNESS = 1e-10  # a second derivative must lie below minus this to count as strictly concave
CONCAVITY_FD_RTOL = 1e-5  # relative error within which the second difference must match the derivative
CONCAVITY_REL_FLOOR = 1e-12  # floor of the derivative that divides that relative error
MIDPOINT_SLACK_TOL = 1e-10  # how far the midpoint entropy may fall below the mean of the end points
