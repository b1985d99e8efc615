"""Tests for envelopes, regrets, Bregman divergences and the checkers."""

import math

import numpy as np
import pytest

import spectral_cone as sc
from spectral_cone import divergence as dv
from spectral_cone import geometries as geo

SIMPLEX3 = geo.Simplex(3)
QUBITS = geo.DensityMatrices("complex", 2)
QUTRITS = geo.DensityMatrices("complex", 3)

LN2 = math.log(2.0)


def interior_state(space, rng):
    if isinstance(space, geo.Simplex):
        p = rng.dirichlet(np.ones(space.n)) * 0.9 + 0.1 / space.n
        return sc.State(space, p / np.sum(p))
    raise NotImplementedError


# ---------------------------------------------------------------------------
# envelope and regrets
# ---------------------------------------------------------------------------

def test_envelope_single_action():
    a = sc.AffineFunctional([1.0, 0.0, 0.0], 0.0)
    actions = dv.FiniteActionSet((a,))
    s = sc.State(SIMPLEX3, [0.3, 0.7, 0.0])
    value, best = dv.envelope(actions, s)
    assert value == pytest.approx(0.3) and best is a


def test_envelope_of_tangent_oracle():
    gen = dv.negentropy_generator()
    actions = dv.TangentActionSet(gen)
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    value, best = dv.envelope(actions, s)
    assert value == pytest.approx(gen.value(s))
    assert abs(sc.evaluate(best, s) - gen.value(s)) <= 1e-9


def test_envelope_two_crossing_actions():
    a1 = sc.AffineFunctional([1.0, 0.0, 0.0], 0.0)
    a2 = sc.AffineFunctional([0.0, 1.0, 0.0], 0.0)
    actions = dv.FiniteActionSet((a1, a2))
    assert dv.envelope(actions, sc.State(SIMPLEX3, [0.8, 0.2, 0.0]))[0] == pytest.approx(0.8)
    assert dv.envelope(actions, sc.State(SIMPLEX3, [0.2, 0.8, 0.0]))[0] == pytest.approx(0.8)
    assert dv.envelope(actions, sc.State(SIMPLEX3, [0.5, 0.5, 0.0]))[0] == pytest.approx(0.5)


def test_regret_action_values():
    a1 = sc.AffineFunctional([1.0, 0.0, 0.0], 0.0)
    a2 = sc.AffineFunctional([0.0, 1.0, 0.0], 0.0)
    actions = dv.FiniteActionSet((a1, a2))
    s = sc.State(SIMPLEX3, [0.7, 0.3, 0.0])
    assert dv.regret_action(s, a1, actions) == pytest.approx(0.0)
    assert dv.regret_action(s, a2, actions) == pytest.approx(0.4)


def test_regret_state_zero_on_diagonal():
    gen = dv.negentropy_generator()
    actions = dv.TangentActionSet(gen)
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    assert abs(dv.regret_state(s, s, actions)) <= 1e-12


def test_regret_state_kl_example():
    gen = dv.negentropy_generator()
    actions = dv.TangentActionSet(gen)
    s1 = sc.State(SIMPLEX3, [0.5, 0.5, 0.0])
    s2 = sc.State(SIMPLEX3, [0.25, 0.25, 0.5])
    assert abs(dv.regret_state(s1, s2, actions) - LN2) <= 1e-9


def test_regret_state_squared_norm_is_squared_distance():
    gen = dv.squared_norm_generator()
    actions = dv.TangentActionSet(gen)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        expect = float(np.sum((s1.coords - s2.coords) ** 2))
        assert abs(dv.regret_state(s1, s2, actions) - expect) <= 1e-12


def test_regret_state_minimizes_over_optimal_set():
    # two actions tie at the reference state; the infimum picks the better one
    a1 = sc.AffineFunctional([1.0, 0.0, 0.0], 0.0)
    a2 = sc.AffineFunctional([0.0, 1.0, 0.0], 0.0)
    actions = dv.FiniteActionSet((a1, a2))
    tie = sc.State(SIMPLEX3, [0.5, 0.5, 0.0])
    s1 = sc.State(SIMPLEX3, [0.7, 0.3, 0.0])
    # F(s1) = 0.7; optimal actions for the tie give payoffs 0.7 and 0.3
    assert dv.regret_state(s1, tie, actions) == pytest.approx(0.0)


def test_bregman_zero_on_diagonal():
    for gen in (dv.negentropy_generator(), dv.squared_norm_generator()):
        s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
        assert abs(dv.bregman(gen, s, s)) <= 1e-10


def test_bregman_negentropy_frozen_value():
    gen = dv.negentropy_generator()
    s1 = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    s2 = sc.State(SIMPLEX3, [0.5, 0.5, 0.0])
    assert abs(dv.bregman(gen, s1, s2) - LN2) <= 1e-9


def test_matrix_negentropy_frozen_value():
    div = dv.matrix_negentropy_divergence(QUBITS)
    rho = QUBITS.state_from_matrix(sc.HermitianMatrix("complex", np.diag([1.0, 0.0]).astype(complex)))
    sigma = QUBITS.state_from_matrix(sc.HermitianMatrix("complex", np.diag([0.5, 0.5]).astype(complex)))
    assert abs(div(rho, sigma) - LN2) <= 1e-12
    gen = dv.matrix_negentropy_generator(QUBITS)
    assert abs(dv.bregman(gen, rho, sigma) - LN2) <= 1e-8


def test_bregman_matches_tangent_action_regret():
    rng = np.random.default_rng(1)
    gen = dv.negentropy_generator()
    actions = dv.TangentActionSet(gen)
    for _ in range(25):
        s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        assert abs(dv.bregman(gen, s1, s2) - dv.regret_state(s1, s2, actions)) <= 1e-8


def test_bregman_from_generator_matches_builtin_kl():
    rng = np.random.default_rng(2)
    gen = dv.negentropy_generator()
    kl = dv.kl_divergence()
    for _ in range(25):
        s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        assert abs(dv.bregman(gen, s1, s2) - kl(s1, s2)) <= 1e-8


def test_divergence_nonnegativity_and_identity():
    rng = np.random.default_rng(3)
    zoo = dv.divergence_zoo(SIMPLEX3)
    for div in zoo:
        for _ in range(30):
            s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
            assert div(s1, s2) >= -1e-10
            assert abs(div(s1, s1)) <= 1e-10


def test_kl_infinite_off_support():
    kl = dv.kl_divergence()
    s1 = sc.State(SIMPLEX3, [0.5, 0.5, 0.0])
    s2 = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    assert math.isinf(kl(s1, s2))
    assert kl(s2, s1) == pytest.approx(LN2)  # supp(s2) inside supp(s1)


# ---------------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------------

def test_kl_locality_passes():
    report = dv.check_locality(dv.kl_divergence(), SIMPLEX3, trials=300, tol=1e-8, seed=0)
    assert report["pass"]
    assert report["max_gap"] <= 1e-8
    assert report["reversed_max_gap"] <= 1e-8
    assert not report["vacuous"]


def test_squared_euclidean_locality_fails_with_witness():
    report = dv.check_locality(dv.squared_euclidean_divergence(), SIMPLEX3, trials=300, seed=0)
    assert not report["pass"]
    assert report["max_gap"] >= 1e-3
    assert report["witness"] is not None
    # frozen witness configuration: s0=e1, s1=e2, s2=(0,1/2,1/2), t=1/2
    sq = dv.squared_euclidean_divergence()
    s0 = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    m1 = sc.mix([0.5, 0.5], [s0, sc.State(SIMPLEX3, [0.0, 1.0, 0.0])])
    m2 = sc.mix([0.5, 0.5], [s0, sc.State(SIMPLEX3, [0.0, 0.5, 0.5])])
    assert abs(abs(sq(m1, s0) - sq(m2, s0)) - 0.125) <= 1e-12


def test_itakura_saito_locality_fails_finitely():
    report = dv.check_locality(dv.itakura_saito_divergence(), SIMPLEX3, trials=300, seed=0)
    assert not report["pass"]
    assert 1e-3 <= report["max_gap"] < math.inf


def test_matrix_negentropy_locality_passes():
    for space in (QUBITS, QUTRITS):
        div = dv.matrix_negentropy_divergence(space)
        report = dv.check_locality(div, space, trials=60, tol=1e-7, seed=0)
        assert report["pass"], report
        assert report["reversed_max_gap"] <= 1e-7


def test_reversed_order_mixture_regret_is_log_one_minus_p():
    # regret of the mixture relative to its pure component: ln 1/(1-p)
    kl = dv.kl_divergence()
    s0 = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    s1 = sc.State(SIMPLEX3, [0.0, 1.0, 0.0])
    for p in (0.1, 0.5, 0.9):
        m = sc.mix([1 - p, p], [s0, s1])
        assert abs(kl(s0, m) - math.log(1.0 / (1.0 - p))) <= 1e-12
    assert abs(kl(s0, sc.mix([0.5, 0.5], [s0, s1])) - LN2) <= 1e-12


def test_nan_divergence_fails_locality():
    nan_div = dv.Divergence("nan", "test", lambda s1, s2: math.nan)
    report = dv.check_locality(nan_div, SIMPLEX3, trials=5, seed=0)
    assert report["pass"] is False
    assert report["max_gap"] == math.inf


def test_locality_vacuous_on_small_spaces():
    report = dv.check_locality(dv.kl_divergence(), geo.Simplex(2), trials=20, seed=0)
    assert report["vacuous"] and report["pass"]
    report = dv.check_locality(dv.squared_euclidean_divergence(), geo.Ball(2), trials=20, seed=0)
    assert report["vacuous"] and report["pass"]


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------

def test_kl_sufficiency_passes():
    report = dv.check_sufficiency(dv.kl_divergence(), SIMPLEX3, trials=200, seed=0)
    assert report["pass"]
    assert report["max_gap"] <= 1e-12
    assert report["precondition_violations"] == 0


def test_kl_invariant_under_merge_on_proportional_family():
    # frozen example: alpha = 0.3 family, merging coordinates 2 and 3
    kl = dv.kl_divergence()
    pair = dv._merge_pair(SIMPLEX3, 1, 2, 0.3)
    rows = np.array([[0.2, 0.3 * 0.8, 0.7 * 0.8], [0.5, 0.3 * 0.5, 0.7 * 0.5]])
    np.testing.assert_allclose(pair.psi(pair.phi(rows)), rows, atol=1e-15)
    s1, s2, m1, m2 = (sc.State(SIMPLEX3, r) for r in (*rows, *pair.phi(rows)))
    assert abs(kl(m1, m2) - kl(s1, s2)) <= 1e-12


def test_squared_euclidean_sufficiency_fails_under_merge():
    report = dv.check_sufficiency(dv.squared_euclidean_divergence(), SIMPLEX3, trials=200, seed=0)
    assert not report["pass"]
    assert report["max_gap"] > 1e-6
    assert report["witness"]["channel"].startswith("merge")
    # direct oracle on the frozen family: the merge inflates the distance
    sq = dv.squared_euclidean_divergence()
    pair = dv._merge_pair(SIMPLEX3, 1, 2, 0.3)
    rows = np.array([[0.2, 0.3 * 0.8, 0.7 * 0.8], [0.5, 0.3 * 0.5, 0.7 * 0.5]])
    s1, s2, m1, m2 = (sc.State(SIMPLEX3, r) for r in (*rows, *pair.phi(rows)))
    m_gap = (1.0 - 0.3 ** 2 - 0.7 ** 2) * (0.8 - 0.5) ** 2
    assert abs(sq(m1, m2) - sq(s1, s2) - m_gap) <= 1e-12


def test_matrix_sufficiency_unitary_and_pinching():
    for ring in ("real", "complex"):
        space = geo.DensityMatrices(ring, 3)
        div = dv.matrix_negentropy_divergence(space)
        report = dv.check_sufficiency(div, space, trials=60, seed=1)
        assert report["pass"], report
        assert not report["exploratory"]


def test_quaternion_sufficiency_is_exploratory():
    space = geo.DensityMatrices("quaternion", 2)
    div = dv.matrix_negentropy_divergence(space)
    report = dv.check_sufficiency(div, space, trials=40, seed=1)
    assert report["exploratory"]
    assert report["precondition_violations"] == 0
    assert math.isfinite(report["max_gap"])


def test_sufficiency_precondition_violation_reported():
    # deliberately broken pair: psi does not invert phi on the family
    bad = dv.ChannelPair(
        "broken",
        phi=lambda rows: rows[:, [1, 0, 2]],
        psi=lambda rows: rows,
        sample_family=lambda rng: rng.dirichlet(np.ones(3)),
    )
    report = dv.check_sufficiency(dv.kl_divergence(), SIMPLEX3, channel_suite=[bad], trials=10, seed=2)
    assert report["precondition_violations"] > 0
    assert not report["pass"]


def _simplex_pair(phi=lambda rows: rows, sample=lambda rng: rng.dirichlet(np.ones(3))):
    return dv.ChannelPair("test", phi=phi, psi=lambda rows: rows, sample_family=sample)


@pytest.mark.parametrize("pair", [
    _simplex_pair(sample=lambda rng: rng.dirichlet(np.ones(3)) * 2.0),  # drawn rows off the simplex
    _simplex_pair(phi=lambda rows: rows - 0.5),  # mapped rows off the simplex
    _simplex_pair(sample=lambda rng: rng.dirichlet(np.ones(4))),  # rows of another length
], ids=["drawn", "mapped", "length"])
def test_sufficiency_raises_where_a_state_would_fail(pair):
    with pytest.raises(sc.NotInConeError):
        dv.check_sufficiency(dv.kl_divergence(), SIMPLEX3, channel_suite=[pair], trials=4, seed=0)


def test_sufficiency_tests_membership_once_per_stack(monkeypatch):
    calls = []
    contains = geo.DensityMatrices.contains_state

    def counting(self, coords, tol=1e-9):
        calls.append(np.shape(coords))
        return contains(self, coords, tol)

    monkeypatch.setattr(geo.DensityMatrices, "contains_state", counting)
    dv.check_sufficiency(dv.matrix_negentropy_divergence(QUTRITS), QUTRITS, trials=12, seed=1)
    assert calls == [(12, 2, QUTRITS.coords_len)] * 3  # drawn, mapped, pulled back


def test_nan_divergence_fails_sufficiency():
    nan_div = dv.Divergence("nan", "test", lambda s1, s2: math.nan)
    report = dv.check_sufficiency(nan_div, SIMPLEX3, trials=5, seed=0)
    assert report["pass"] is False
    assert report["max_gap"] == math.inf


# ---------------------------------------------------------------------------
# batched checkers against the per-trial reference loops
# ---------------------------------------------------------------------------

def reference_gap(a, b):
    """|a - b| in the extended reals; equal infinities are 0 and NaN is infinite."""
    if math.isnan(a) or math.isnan(b):
        return math.inf
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b)


def reference_kl(s1, s2):
    p, q = np.asarray(s1.coords), np.asarray(s2.coords)
    mask = p > 1e-15
    if np.any(q[mask] <= 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_squared_euclidean(s1, s2):
    d = np.asarray(s1.coords) - np.asarray(s2.coords)
    return float(np.dot(d, d))


def reference_itakura_saito(s1, s2):
    p, q = np.asarray(s1.coords), np.asarray(s2.coords)
    if float(np.min(p)) <= 0.0 or float(np.min(q)) <= 0.0:
        return math.inf
    ratio = p / q
    return float(np.sum(ratio - np.log(ratio) - 1.0))


REFERENCE_RULES = {
    "kl": reference_kl,
    "squared_euclidean": reference_squared_euclidean,
    "itakura_saito": reference_itakura_saito,
}


def reference_matrix_negentropy(s1, s2):
    """Tr rho (ln rho - ln sigma) per row, through HermitianMatrix and the ring idempotents of sigma."""
    rho, sigma = s1.space.state_matrix(s1), s2.space.state_matrix(s2)
    val = -sc.von_neumann_entropy(rho)
    leak = 0.0
    dec = sc.eigen_hermitian(sigma)
    for t, e in zip(dec.eigenvalues, dec.idempotents):
        mass = sc.jordan.trace_product(rho, e)
        if t > 1e-12:
            val -= math.log(t) * mass
        else:
            leak += mass
    return math.inf if leak > 1e-10 else val


def reference_divergence(div):
    """The divergence with an independent scalar State-level rule (its own for test divergences)."""
    rule = {**REFERENCE_RULES, "matrix_negentropy": reference_matrix_negentropy}.get(div.name, div)
    return dv.Divergence(div.name, "reference", rule, div.requires_interior)


def reference_locality(div, space, trials, t_grid=dv.DEFAULT_T_GRID, tol=1e-8, seed=0):
    """Per-trial loop: one mix, State and scalar divergence call per (trial, t)."""
    rng = np.random.default_rng(seed)
    bary = sc.State(space, space.barycenter_coords())

    def dom(s):
        if div.requires_interior:
            return sc.mix([1.0 - dv.INTERIOR_EPS, dv.INTERIOR_EPS], [s, bary])
        return s

    max_gap = max_gap_reversed = -1.0
    witness = None
    vacuous = True
    for trial in range(trials):
        s0, s1, s2, degenerate = space.orthogonal_triple(rng)
        vacuous = vacuous and degenerate
        for t in t_grid:
            m1 = sc.mix([1.0 - t, t], [s0, s1])
            m2 = sc.mix([1.0 - t, t], [s0, s2])
            a, b = div(dom(m1), dom(s0)), div(dom(m2), dom(s0))
            ar, br = div(dom(s0), dom(m1)), div(dom(s0), dom(m2))
            max_gap_reversed = max(max_gap_reversed, reference_gap(ar, br))
            gap = reference_gap(a, b)
            if gap > max_gap:
                max_gap = gap
                witness = {
                    "trial": trial, "t": float(t),
                    "s0": [float(c) for c in s0.coords],
                    "s1": [float(c) for c in s1.coords],
                    "s2": [float(c) for c in s2.coords],
                    "values": [a, b], "reversed_values": [ar, br],
                }
    passed = max_gap <= tol
    return {
        "check": "locality", "divergence": div.name, "space": space.to_json(),
        "pass": passed, "max_gap": max_gap, "reversed_max_gap": max_gap_reversed,
        "witness": None if passed else witness, "trials": trials, "seed": seed,
        "tolerance": tol, "vacuous": vacuous,
    }


def reference_sufficiency(div, space, trials, tol=1e-9, seed=0):
    """Per-trial loop: one State (one membership test) per row and one scalar divergence call per side."""
    rng = np.random.default_rng(seed)
    suite = dv.builtin_channel_suite(space, rng)
    bary = sc.State(space, space.barycenter_coords())

    def dom(s):
        if div.requires_interior:
            return sc.mix([1.0 - dv.INTERIOR_EPS, dv.INTERIOR_EPS], [s, bary])
        return s

    max_gap = -1.0
    witness = None
    violations = 0
    def state(rows):
        return sc.State(space, rows[0])

    for trial in range(trials):
        pair = suite[trial % len(suite)]
        s1, s2 = sc.State(space, pair.sample_family(rng)), sc.State(space, pair.sample_family(rng))
        bad = False
        for s in (s1, s2):
            back = state(pair.psi(state(pair.phi(s.coords[None])).coords[None]))
            if np.max(np.abs(back.coords - s.coords)) > 1e-9:
                violations += 1
                bad = True
        if bad:
            continue
        base = div(dom(s1), dom(s2))
        mapped = div(dom(state(pair.phi(s1.coords[None]))), dom(state(pair.phi(s2.coords[None]))))
        gap = reference_gap(base, mapped)
        if gap > max_gap:
            max_gap = gap
            witness = {
                "trial": trial, "channel": pair.name,
                "s1": [float(c) for c in s1.coords],
                "s2": [float(c) for c in s2.coords],
                "values": [base, mapped],
            }
    passed = violations == 0 and max_gap <= tol
    return {
        "check": "sufficiency", "divergence": div.name, "space": space.to_json(),
        "pass": passed, "max_gap": max_gap, "witness": None if passed else witness,
        "precondition_violations": violations,
        "exploratory": isinstance(space, geo.DensityMatrices) and space.ring == "quaternion",
        "trials": trials, "seed": seed, "tolerance": tol,
    }


def assert_reports_match(got, want, path="report", atol=0.0):
    """Equal reports, except finite floats may differ by 1e-15 relative or atol absolute."""
    if isinstance(want, float) or isinstance(got, float):
        close = got == want or abs(got - want) <= max(1e-15 * max(abs(got), abs(want)), atol)
        assert close or (math.isnan(got) and math.isnan(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (path, got, want)
        for key in want:
            assert_reports_match(got[key], want[key], f"{path}.{key}", atol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_match(g, w, f"{path}[{i}]", atol)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_array_forms_match_scalar_reference():
    rng = np.random.default_rng(9)
    rows = rng.dirichlet(np.ones(4), size=(6, 5))
    rows[0, :, 0] = 0.0  # off support
    rows[1, :, 1] = 1e-14  # below the support threshold of kl
    rows[2, :, 2] = 1e-5
    rows /= np.sum(rows, axis=-1, keepdims=True)
    space = geo.Simplex(4)
    for name, rule in REFERENCE_RULES.items():
        div = dv.builtin_divergence(name, space)
        for p, q in ((rows, rows[::-1]), (rows[::-1], rows), (rows, rows[:, ::-1])):
            got = div.values(space, p, q)
            assert got.shape == p.shape[:-1]
            want = [[rule(sc.State(space, a), sc.State(space, b)) for a, b in zip(pa, qa)]
                    for pa, qa in zip(p, q)]
            assert got.tolist() == want, name
            assert div(sc.State(space, p[0, 0]), sc.State(space, q[0, 0])) == want[0][0]


NAN_DIVERGENCE = dv.Divergence("nan", "test", lambda s1, s2: math.nan)
VECTOR_CASES = [(name, geo.Simplex(n)) for n in (2, 3, 4)
                for name in ("kl", "squared_euclidean", "itakura_saito")]
# at n = 2 every locality triple is vacuous, so n = 3 carries the locality comparison
MATRIX_CASES = [("matrix_negentropy", geo.DensityMatrices(ring, n))
                for ring, n in (("complex", 2), ("quaternion", 2), ("real", 3), ("complex", 3), ("quaternion", 3))]
CASE_IDS = [f"{name}-{space.kind}{getattr(space, 'n', '')}" for name, space in VECTOR_CASES + MATRIX_CASES]


@pytest.mark.parametrize("name, space", VECTOR_CASES + MATRIX_CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", [0, 7])
def test_batched_checkers_match_reference_loops(name, space, seed):
    """Matrix values may move by 1e-12 against the per-row reference; verdicts never."""
    div = dv.builtin_divergence(name, space)
    matrix = isinstance(space, geo.DensityMatrices)
    trials, atol = (5, 1e-12) if matrix else (40, 0.0)
    assert_reports_match(dv.check_locality(div, space, trials=trials, seed=seed),
                         reference_locality(reference_divergence(div), space, trials, seed=seed), atol=atol)
    assert_reports_match(dv.check_sufficiency(div, space, trials=2 * trials, seed=seed),
                         reference_sufficiency(reference_divergence(div), space, 2 * trials, seed=seed),
                         atol=atol)


@pytest.mark.parametrize("ring", ["real", "complex", "quaternion"])
def test_matrix_negentropy_values_match_reference_rows(ring):
    """Divergence.values on (4, 6) stacks of full-rank, pure and rank-2 states against the row rule."""
    space = geo.DensityMatrices(ring, 3)
    rng = np.random.default_rng(31)
    mixed = [geo.random_state(space, rng) for _ in range(8)]
    pure = [geo.random_pure_state(space, rng) for _ in range(8)]
    rank2 = [sc.mix([0.5, 0.5], pure[i:i + 2]) for i in range(0, 8, 2)]
    rows = np.array([s.coords for s in mixed + pure + rank2 + mixed[:4]])
    p, q = rows.reshape(4, 6, -1), rows[::-1].reshape(4, 6, -1)
    div = dv.builtin_divergence("matrix_negentropy", space)
    for a, b in ((p, q), (q, p), (p, p)):
        got = div.values(space, a, b)
        want = np.array([[reference_matrix_negentropy(sc.State(space, x), sc.State(space, y))
                          for x, y in zip(xa, ya)] for xa, ya in zip(a, b)])
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12
    # full-rank or pure rho against a rank-deficient sigma off its support is inf
    assert 0 < np.count_nonzero(np.isinf(div.values(space, p, q))) < 24
    assert np.max(np.abs(div.values(space, p, p))) <= 1e-12


@pytest.mark.parametrize("space", [geo.Ball(2), geo.unit_square(), SIMPLEX3], ids=["disc", "square", "simplex3"])
def test_batched_locality_matches_reference_loop(space):
    for div in (dv.squared_euclidean_divergence(), NAN_DIVERGENCE):
        assert_reports_match(dv.check_locality(div, space, trials=30, seed=2),
                             reference_locality(reference_divergence(div), space, 30, seed=2))
    assert_reports_match(dv.check_sufficiency(NAN_DIVERGENCE, SIMPLEX3, trials=10, seed=2),
                         reference_sufficiency(NAN_DIVERGENCE, SIMPLEX3, 10, seed=2))


def test_sufficiency_implies_locality_over_zoo():
    for space in (SIMPLEX3, QUBITS):
        for div in dv.divergence_zoo(space):
            suff = dv.check_sufficiency(div, space, trials=80, seed=3)
            if suff["pass"]:
                loc = dv.check_locality(div, space, trials=80, seed=3)
                assert loc["pass"], (div.name, loc)


# ---------------------------------------------------------------------------
# entropy-constant recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_fit_entropy_constant_recovers_scale(c):
    div = dv.scaled_divergence(c, dv.kl_divergence())
    fit = dv.fit_entropy_constant(div, SIMPLEX3, seed=4)
    assert abs(fit.constant - c) <= 1e-8
    assert fit.residual <= 1e-10
    assert fit.entropy_generated


def test_fit_entropy_constant_rejects_nonlocal_divergence():
    with pytest.raises(sc.PreconditionError):
        dv.fit_entropy_constant(dv.squared_euclidean_divergence(), SIMPLEX3, seed=4)


def test_fit_entropy_constant_needs_three_orthogonal_states():
    with pytest.raises(sc.PreconditionError):
        dv.fit_entropy_constant(dv.kl_divergence(), geo.Simplex(2), seed=4)


def test_numeric_gradient_generator_matches_analytic():
    # finite-difference gradient oracle reproduces the KL Bregman divergence
    def negentropy_at(coords):
        p = np.clip(coords, 1e-300, None)
        return float(np.sum(p * np.log(p)))

    gen_fd = dv.generator_from_coords_value("negentropy_fd", negentropy_at)
    gen = dv.negentropy_generator()
    rng = np.random.default_rng(5)
    for _ in range(15):
        s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        assert abs(dv.bregman(gen_fd, s1, s2) - dv.bregman(gen, s1, s2)) <= 1e-8


def test_generators_midpoint_convex():
    rng = np.random.default_rng(6)
    gens = [dv.negentropy_generator(), dv.squared_norm_generator(), dv.burg_generator()]
    for gen in gens:
        for _ in range(30):
            s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
            mid = sc.mix([0.5, 0.5], [s1, s2])
            assert gen.value(mid) <= (gen.value(s1) + gen.value(s2)) / 2 + 1e-9


def test_divergence_provenance_tags():
    assert dv.kl_divergence().provenance == "builtin"
    gen_div = dv.divergence_from_generator(dv.negentropy_generator())
    assert gen_div.provenance == "from_generator"
    act_div = dv.divergence_from_action_set(dv.TangentActionSet(dv.negentropy_generator()))
    assert act_div.provenance == "from_action_set"
    rng = np.random.default_rng(7)
    s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
    kl = dv.kl_divergence()
    assert abs(gen_div(s1, s2) - kl(s1, s2)) <= 1e-8
    assert abs(act_div(s1, s2) - kl(s1, s2)) <= 1e-8
