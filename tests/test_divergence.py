"""Tests for envelopes, regrets, Bregman divergences and the checkers."""

import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_geometries import pure_states
from test_polygons import convex_polygons, vertex_state

import spectral_cone as sc
from spectral_cone import divergence as dv
from spectral_cone import geometries as geo
from spectral_cone import jordan, tolerances

SIMPLEX3 = geo.Simplex(3)
QUBITS = geo.DensityMatrices("complex", 2)
QUTRITS = geo.DensityMatrices("complex", 3)

LN2 = math.log(2.0)


def interior_state(space, rng):
    if isinstance(space, geo.Simplex):
        p = rng.dirichlet(np.ones(space.n)) * 0.9 + 0.1 / space.n
        return sc.State(space, p / np.sum(p))
    raise NotImplementedError


def burg_generator():
    """F(p) = -sum ln p on positive vectors; its Bregman divergence is Itakura-Saito."""

    def value(s):
        p = np.asarray(s.coords)
        return math.inf if float(np.min(p)) <= 0.0 else float(-np.sum(np.log(p)))

    return dv.Generator("burg", value, lambda s: -1.0 / np.asarray(dv.clamp(s).coords))


def matrix_negentropy_generator(space):
    """F(rho) = Tr rho ln rho; its Bregman divergence is the matrix relative entropy."""

    def gradient(s):
        mu, v = np.linalg.eigh(space.forms(dv.clamp(s).coords))
        return space.coords_of((v * (np.log(mu) + 1.0)) @ np.conj(v.T))

    return dv.Generator("matrix_negentropy", lambda s: -sc.von_neumann_entropy(space.state_matrix(s)), gradient)


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



def test_divergences_refuse_states_of_different_spaces():
    simplex, ball = sc.State(geo.Simplex(2), [0.5, 0.5]), sc.State(geo.Ball(2), [0.5, 0.5])
    gen = dv.squared_norm_generator()
    divergences = (dv.kl_divergence(), dv.squared_euclidean_divergence(), dv.divergence_from_generator(gen))
    for a, b in ((simplex, ball), (ball, simplex)):
        for evaluate in [*divergences, lambda s1, s2: dv.bregman(gen, s1, s2),
                         lambda s1, s2: dv.regret_state(s1, s2, dv.TangentActionSet(gen))]:
            with pytest.raises(sc.SpaceMismatchError):
                evaluate(a, b)
    # an equal space built again is the same space
    assert dv.kl_divergence()(simplex, sc.State(geo.Simplex(2), [0.25, 0.75])) > 0.0

def test_matrix_negentropy_frozen_value():
    div = dv.matrix_negentropy_divergence(QUBITS)
    rho = QUBITS.state_from_matrix(sc.HermitianMatrix("complex", np.diag([1.0, 0.0]).astype(complex)))
    sigma = QUBITS.state_from_matrix(sc.HermitianMatrix("complex", np.diag([0.5, 0.5]).astype(complex)))
    assert abs(div(rho, sigma) - LN2) <= 1e-12
    gen = matrix_negentropy_generator(QUBITS)
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


def test_bregman_forms_match_builtin_divergences():
    rng = np.random.default_rng(7)
    pairs = [(burg_generator(), dv.itakura_saito_divergence()),
             (dv.squared_norm_generator(), dv.squared_euclidean_divergence())]
    for _ in range(25):
        s1, s2 = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        for gen, div in pairs:
            assert abs(dv.bregman(gen, s1, s2) - div(s1, s2)) <= 1e-8
    for space in (QUBITS, QUTRITS, geo.DensityMatrices("real", 3)):
        gen, div = matrix_negentropy_generator(space), dv.matrix_negentropy_divergence(space)
        for _ in range(10):
            s1, s2 = (space.state_from_matrix(sc.jordan.random_density_matrix(space.ring, space.n, rng, floor=0.05))
                      for _ in range(2))
            assert abs(dv.bregman(gen, s1, s2) - div(s1, s2)) <= 1e-8


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


KL_PLUS_SQUARED = dv.Divergence("kl+squared_euclidean", "test",
                                array_rule=lambda p, q: dv._kl_values(p, q) + dv._squared_euclidean_values(p, q))


@pytest.mark.parametrize("n", [3, 4])
def test_locality_fails_a_divergence_local_only_where_infinite(n):
    # kl + squared_euclidean is +inf on every mixture-first pair, so that order has gap 0; the reversed
    # order is finite and not local, and the check fails on it with a reversed-order witness
    space = geo.Simplex(n)
    report = dv.check_locality(KL_PLUS_SQUARED, space, trials=50, seed=0)
    assert not report["pass"] and report["max_gap"] == 0.0 and report["reversed_max_gap"] > 0.1
    values = report["witness"]["reversed_values"]
    assert math.isinf(report["witness"]["values"][0]) and abs(values[0] - values[1]) == report["reversed_max_gap"]
    assert not dv.check_sufficiency(KL_PLUS_SQUARED, space, trials=50, seed=0)["pass"]
    assert_reports_match(report, reference_locality(KL_PLUS_SQUARED, space, 50))


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
    pair = geo._merge_pair(1, 2, 0.3)
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
    pair = geo._merge_pair(1, 2, 0.3)
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
    bad = geo.ChannelPair(
        "broken",
        phi=lambda rows: rows[:, [1, 0, 2]],
        psi=lambda rows: rows,
        family=lambda rows: rows,
    )
    report = dv.check_sufficiency(dv.kl_divergence(), SIMPLEX3, channel_suite=[bad], trials=10, seed=2)
    assert report["precondition_violations"] > 0
    assert not report["pass"]


def _simplex_pair(phi=lambda rows: rows, family=lambda rows: rows):
    return geo.ChannelPair("test", phi=phi, psi=lambda rows: rows, family=family)


@pytest.mark.parametrize("pair", [
    _simplex_pair(family=lambda rows: rows * 2.0),  # drawn rows off the simplex
    _simplex_pair(phi=lambda rows: rows - 0.5),  # mapped rows off the simplex
    _simplex_pair(family=lambda rows: np.hstack([rows, rows[:, :1]])),  # rows of another length
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
    assert calls == [(3, 12, 2, QUTRITS.coords_len)]  # drawn, mapped and pulled back, as one stack


def test_locality_raises_where_a_state_would_fail(monkeypatch):
    """A drawn triple row off the simplex raises, though every mixture on the t grid is a state."""
    def off_by_a_little(self, rng, trials):
        s0, s1, s2, vacuous = draw(self, rng, trials)
        s1 = s1 + np.where(s1 > 0.0, 0.0, -1.1e-9)  # beyond the membership tolerance, but not 0.9 times it
        return s0, s1 / np.sum(s1, axis=-1, keepdims=True), s2, vacuous

    draw = geo.Simplex.orthogonal_triples
    monkeypatch.setattr(geo.Simplex, "orthogonal_triples", off_by_a_little)
    with pytest.raises(sc.NotInConeError):
        dv.check_locality(dv.kl_divergence(), SIMPLEX3, trials=4, seed=0)


@pytest.mark.parametrize("space, name", [(SIMPLEX3, "kl"), (SIMPLEX3, "itakura_saito"),
                                         (QUTRITS, "matrix_negentropy")], ids=["kl", "itakura_saito", "complex3"])
def test_checkers_test_membership_per_stack_and_build_no_state(monkeypatch, space, name):
    """One contains_state call per check whatever the trial count and the interior map, and no State at all."""
    memberships, states = [], []
    contains, init = type(space).contains_state, sc.ConeElement.__init__

    def counting_contains(self, coords, tol=1e-9):
        memberships.append(np.shape(coords))
        return contains(self, coords, tol)

    def counting_init(self, *args, **kwargs):
        states.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(type(space), "contains_state", counting_contains)
    monkeypatch.setattr(sc.ConeElement, "__init__", counting_init)
    div = dv.builtin_divergence(name, space)
    for check in (dv.check_locality, dv.check_sufficiency):
        for trials in (4, 40):
            memberships.clear()
            check(div, space, trials=trials, seed=1)
            assert len(memberships) == 1, (check.__name__, trials, memberships)
    assert states == []


def test_state_rule_tests_membership_once_per_values_call(monkeypatch):
    """A rule of two States takes one stacked membership test per argument order of a locality check."""
    calls = []
    contains = geo.Simplex.contains_state

    def counting(self, coords, tol=1e-9):
        calls.append(np.shape(coords))
        return contains(self, coords, tol)

    monkeypatch.setattr(geo.Simplex, "contains_state", counting)
    dv.check_locality(dv.Divergence("f", "test", lambda s1, s2: 0.0), SIMPLEX3, trials=20, seed=1)
    assert len(calls) == 3  # the drawn triples, then one per values call


def reference_values(div, space, p, q):
    """D between the rows of p and q as one State per row, as the values of a State rule were first built."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    rows = zip(p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1]))
    return np.array([div.rule(sc.State(space, a), sc.State(space, b)) for a, b in rows]).reshape(p.shape[:-1])


def outcome(call):
    try:
        return call().tobytes()
    except Exception as exc:  # the type and message of the error, compared as the values are
        return type(exc), str(exc)


STATE_RULES = {
    "from_generator": dv.divergence_from_generator(dv.negentropy_generator()),
    "from_action_set": dv.divergence_from_action_set(dv.TangentActionSet(dv.negentropy_generator())),
    "from_squared_norm": dv.divergence_from_generator(dv.squared_norm_generator()),
    "from_finite_actions": dv.divergence_from_action_set(dv.FiniteActionSet(
        (sc.AffineFunctional([1.0, 0.0, 0.0], 0.0), sc.AffineFunctional([0.0, 2.0, -1.0], 0.5)))),
}


@pytest.mark.parametrize("name", list(STATE_RULES))
def test_state_rule_values_and_errors_match_one_state_per_row(name):
    div, rng = STATE_RULES[name], np.random.default_rng(11)
    p, q = rng.dirichlet(np.ones(3), (4, 5)), rng.dirichlet(np.ones(3), 5)
    edge = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    off = p.copy()
    off[2, 3] = [0.5, 0.6, -0.1]
    cases = [(p, q), (q, p[0]), (edge, edge[::-1]), (edge[0], edge), (p[:0], q[:0]), (off, q), (q, off),
             (p[..., :2], q[..., :2]), (np.full((2, 3), np.nan), edge[:2]), (np.zeros((0, 2)), np.zeros((0, 2)))]
    for a, b in cases:
        assert outcome(lambda: div.values(SIMPLEX3, a, b)) == outcome(lambda: reference_values(div, SIMPLEX3, a, b))


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
        mass = float(np.trace(rho.to_complex() @ e.to_complex()).real) / rho.mult
        if t > 1e-12:
            val -= math.log(t) * mass
        else:
            leak += mass
    return math.inf if leak > 1e-10 else val


def reference_divergence(div):
    """The divergence with an independent scalar State-level rule (its own for test divergences)."""
    rule = {**REFERENCE_RULES, "matrix_negentropy": reference_matrix_negentropy}.get(div.name, div)
    return dv.Divergence(div.name, "reference", rule, div.requires_interior)


def reference_pure_density(ring, raw):
    """Rank-one density matrix of one raw column draw, (n, 1) or (n, 1, 4), normalised by np.linalg.norm."""
    if ring == "quaternion":
        v = raw / math.sqrt(float(np.sum(raw ** 2)))
        outer = sc.quaternion.qmat_mul(v, np.swapaxes(v, 0, 1) * [1.0, -1.0, -1.0, -1.0])
        return sc.jordan.hermitian_part("quaternion", outer)
    v = raw[:, 0] / np.linalg.norm(raw[:, 0])
    return sc.jordan.hermitian_part(ring, np.outer(v, np.conj(v)))


def reference_support(space, coords):
    """Form of the support projection of one row: eigenvalue clusters with mean above SUPPORT_TOL."""
    w, v = np.linalg.eigh(space.forms(coords))
    keep = np.zeros(w.size, dtype=bool)
    for g in sc.jordan.cluster_indices(w):
        keep[g] = np.mean(w[g]) > tolerances.SUPPORT_TOL
    return v[:, keep] @ np.conj(v[:, keep].T)


def reference_complement_state(space, comp, form):
    """A form compressed by the complement projection comp and renormalised, or None at mass <= 1e-6."""
    compressed = space.coords_of(comp @ form @ comp)
    mass = space.traces(compressed)
    return sc.State(space, (1.0 / mass) * compressed) if mass > 1e-6 else None


def reference_density_triple_loop(space, rng):
    """The per-trial loop that DensityMatrices.orthogonal_triples replaced, kept as the reference for its law.

    s0 is a pure state; a complement candidate is a density matrix, replaced
    by a pure state when a uniform draw is below 1/2, drawn again at mass
    <= 1e-6 (MASS_ATTEMPTS draws in all), and s2 is drawn until it differs
    from s1, at most DISTINCT_ATTEMPTS times (the last one is kept).
    """
    ring, n = space.ring, space.n
    s0 = space.state_from_matrix(reference_pure_density(ring, sc.jordan.gaussian_draws(ring, n, rng, cols=1)))
    comp = np.eye(n * space.mult) - reference_support(space, s0.coords)

    def complement_state():
        for _ in range(geo.MASS_ATTEMPTS):
            m = sc.jordan.random_density_matrix(ring, n, rng)
            if rng.uniform() < 0.5:
                m = reference_pure_density(ring, sc.jordan.gaussian_draws(ring, n, rng, cols=1))
            state = reference_complement_state(space, comp, m.to_complex())
            if state is not None:
                return state
        raise RuntimeError("failed to sample a state in the orthogonal complement")

    s1 = complement_state()
    if n < 3:
        return s0, s1, s1, True
    for _ in range(geo.DISTINCT_ATTEMPTS):
        s2 = complement_state()
        if np.max(np.abs(s2.coords - s1.coords)) > 1e-9:
            break
    return s0, s1, s2, False


def reference_polytope_triple_loop(space, rng):
    """The per-trial loop that Polytope.orthogonal_triples replaced, kept as the reference for its law:
    a vertex, then two distinct partners by ``choice`` (its one partner twice if it has one)."""
    i = int(rng.integers(len(space.vertices)))
    partners = np.nonzero(geo._polytope_geometry(space).graph[i])[0]
    if partners.size == 1:
        return i, int(partners[0]), int(partners[0])
    j, k = rng.choice(partners, size=2, replace=False)
    return i, int(j), int(k)


def reference_redraw_equal(s1, s2, draw, retries):
    """s2[t] drawn again (draw(rows), one state per row) while it equals s1[t], DISTINCT_ATTEMPTS draws in all."""
    same = range(len(s1))
    for attempt in range(geo.DISTINCT_ATTEMPTS):
        if attempt:
            for t, state in zip(same, draw(same)):
                s2[t] = state
        same = [t for t in same if np.max(np.abs(s2[t].coords - s1[t].coords)) <= 1e-9]
        retries["same"] += len(same)
        if not same:
            break
    return s2


def reference_orthogonal_triples(space, rng, trials, retries=None):
    """Every locality trial (s0, s1, s2, vacuous), one State per row, each assembled on its own from its
    slice of the stacks the space's sampler draws, in the sampler's order:

    * simplex: the vertices, then for s1 and for s2 the face sizes, the
      uniform keys that order each facet and the exponential gaps;
    * polytope: the vertices, then one uniform key per vertex;
    * ball: the normals of s0;
    * density: the s0 columns, then for s1 and for s2 a density stack, a
      uniform stack and a column stack, again for the rows of mass at most
      1e-6 (MASS_ATTEMPTS draws in all).

    On simplices and density matrices of n >= 3, the s2 rows still equal to
    s1 are drawn again as a stack, at most DISTINCT_ATTEMPTS draws of s2 in
    all.  retries (a Counter) counts the rows drawn again: "mass", a
    complement of mass at most 1e-6, and "same", an s2 equal to s1.
    """
    retries = collections.Counter() if retries is None else retries
    if isinstance(space, geo.Polytope):
        vertices, keys = rng.integers(len(space.vertices), size=trials), rng.random((trials, len(space.vertices)))
        graph, out = geo._polytope_geometry(space).graph, []
        for i, key in zip(vertices.tolist(), keys):
            partners = sorted(np.nonzero(graph[i])[0].tolist(), key=lambda p: key[p])
            s1, s2 = vertex_state(space, partners[0]), vertex_state(space, partners[min(1, len(partners) - 1)])
            out.append((vertex_state(space, i), s1, s2, len(partners) == 1))
        return out
    if isinstance(space, geo.Ball):
        out = []
        for v in rng.standard_normal((trials, space.d)):
            s0 = sc.State(space, v / math.sqrt(float(np.sum(v * v))))
            anti = sc.State(space, -np.asarray(s0.coords))
            out.append((s0, anti, anti, True))
        return out
    if isinstance(space, geo.Simplex):
        return reference_simplex_triples_stream(space, rng, trials, retries)
    ring, n = space.ring, space.n
    s0 = [space.state_from_matrix(reference_pure_density(ring, raw))
          for raw in sc.jordan.gaussian_draws(ring, n, rng, (trials,), cols=1)]
    comps = [np.eye(n * space.mult) - reference_support(space, s.coords) for s in s0]

    def complement_states(rows):
        states, todo = {}, list(rows)
        for _ in range(geo.MASS_ATTEMPTS):
            squares = sc.jordan.gaussian_draws(ring, n, rng, (len(todo),))
            uniforms = rng.uniform(size=len(todo))
            columns = sc.jordan.gaussian_draws(ring, n, rng, (len(todo),), cols=1)
            for t, square, u, column in zip(todo, squares, uniforms, columns):
                form = reference_pure_density(ring, column).to_complex() if u < 0.5 else \
                    sc.jordan.complex_forms(ring, sc.jordan.positive_matrices(ring, square))  # the kernel on one draw
                states[t] = reference_complement_state(space, comps[t], form)
            todo = [t for t in todo if states[t] is None]
            retries["mass"] += len(todo)
            if not todo:
                return [states[t] for t in rows]
        raise RuntimeError("failed to sample a state in the orthogonal complement")

    s1 = complement_states(range(trials))
    if n < 3:
        return [(a, b, b, True) for a, b in zip(s0, s1)]
    s2 = reference_redraw_equal(s1, complement_states(range(trials)), complement_states, retries)
    return [(a, b, c, False) for a, b, c in zip(s0, s1, s2)]


def reference_simplex_triples_stream(space, rng, trials, retries):
    """The simplex rows of ``reference_orthogonal_triples``."""
    n = space.n
    vertices = rng.integers(n, size=trials).tolist()
    if n < 3:
        return [(vertex_state(space, i), vertex_state(space, (i + 1) % n), vertex_state(space, (i + 1) % n), True)
                for i in vertices]

    def face_states(rows):
        sizes = rng.integers(1, n, size=len(rows)).tolist()
        keys = rng.random((len(rows), n - 1))
        gaps = rng.standard_exponential((len(rows), n - 1))
        states = []
        for t, k, key, gap in zip(rows, sizes, keys, gaps):
            rest = [j for j in range(n) if j != vertices[t]]
            kept = np.where(np.arange(n - 1) < k, gap, 0.0)  # the first k gaps, on the first k keys
            weights = kept / np.sum(kept)
            coords = np.zeros(n)
            for position, slot in enumerate(np.argsort(key).tolist()):
                coords[rest[slot]] = weights[position]
            states.append(sc.State(space, coords))
        return states

    s1 = face_states(range(trials))
    s2 = reference_redraw_equal(s1, face_states(range(trials)), face_states, retries)
    return [(vertex_state(space, i), a, b, False) for i, a, b in zip(vertices, s1, s2)]


def reference_family_row(space, pair, rng):
    """One row of a builtin pair's reversible family, drawn on its own."""
    if isinstance(space, geo.Simplex):
        coords = rng.dirichlet(np.ones(space.n)) * 0.98 + 0.02 / space.n
        if pair.name.startswith("merge"):
            coords = pair.psi(coords[None])[0]
        return coords / np.sum(coords)
    coords = space.state_from_matrix(sc.jordan.random_density_matrix(space.ring, space.n, rng, floor=0.05)).coords
    if pair.name == "pinch+rotate":
        side = np.arange(space.n) < space.n // 2
        mask = np.repeat((side[:, None] == side[None, :]).reshape(-1), space.components_per_entry)
        coords = coords * mask
        coords = (1.0 / space.traces(coords)) * coords
    return coords


def reference_locality(div, space, trials, t_grid=dv.DEFAULT_T_GRID, tol=1e-8, seed=0):
    """Per-trial loop over reference_orthogonal_triples: one mix, State and scalar divergence call per (trial, t)."""
    rng = np.random.default_rng(seed)
    bary = sc.State(space, space.barycenter_coords())

    def dom(s):
        if div.requires_interior:
            return sc.mix([1.0 - tolerances.INTERIOR_EPS, tolerances.INTERIOR_EPS], [s, bary])
        return s

    max_gap = max_gap_reversed = -1.0
    witness = reversed_witness = None
    vacuous = True
    for trial, (s0, s1, s2, degenerate) in enumerate(reference_orthogonal_triples(space, rng, trials)):
        vacuous = vacuous and degenerate
        for t in t_grid:
            m1 = sc.mix([1.0 - t, t], [s0, s1])
            m2 = sc.mix([1.0 - t, t], [s0, s2])
            a, b = div(dom(m1), dom(s0)), div(dom(m2), dom(s0))
            ar, br = div(dom(s0), dom(m1)), div(dom(s0), dom(m2))
            case = {
                "trial": trial, "t": float(t),
                "s0": [float(c) for c in s0.coords],
                "s1": [float(c) for c in s1.coords],
                "s2": [float(c) for c in s2.coords],
                "values": [a, b], "reversed_values": [ar, br],
            }
            if reference_gap(ar, br) > max_gap_reversed:
                max_gap_reversed, reversed_witness = reference_gap(ar, br), case
            if reference_gap(a, b) > max_gap:
                max_gap, witness = reference_gap(a, b), case
    # both orders must pass; the witness is the forward one when that order fails
    passed = max_gap <= tol and max_gap_reversed <= tol
    witness = witness if max_gap > tol else reversed_witness
    return {
        "check": "locality", "divergence": div.name, "space": space.to_json(),
        "pass": passed, "max_gap": max_gap, "reversed_max_gap": max_gap_reversed,
        "witness": None if passed else witness, "trials": trials, "seed": seed,
        "tolerance": tol, "vacuous": vacuous,
    }


def reference_sufficiency(div, space, trials, tol=1e-9, seed=0):
    """Per-trial loop: one State (one membership test) per row and one scalar divergence call per side."""
    rng = np.random.default_rng(seed)
    suite = space.channel_suite(rng)
    bary = sc.State(space, space.barycenter_coords())

    def dom(s):
        if div.requires_interior:
            return sc.mix([1.0 - tolerances.INTERIOR_EPS, tolerances.INTERIOR_EPS], [s, bary])
        return s

    max_gap = -1.0
    witness = None
    violations = 0
    def state(rows):
        return sc.State(space, rows[0])

    for trial in range(trials):
        pair = suite[trial % len(suite)]
        s1, s2 = (sc.State(space, reference_family_row(space, pair, rng)) for _ in range(2))
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
    pure = pure_states(space, rng, 8)
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


@pytest.mark.parametrize("name, space", VECTOR_CASES + MATRIX_CASES, ids=CASE_IDS)
def test_array_rules_take_unbroadcast_rows(name, space):
    """A row shared along a broadcast axis gives the bytes of its broadcast copies, in either argument order."""
    div = dv.builtin_divergence(name, space)
    rng = np.random.default_rng(5)
    mixed = np.array([geo.random_state(space, rng).coords for _ in range(12)]).reshape(2, 3, 2, -1)
    pure = mixed[0, :, :1]  # (3, 1, coords_len), shared along the mixing axis as in check_locality
    for p, q in ((mixed, pure), (pure, mixed)):
        got = div.values(space, p, q)
        full = div.values(space, *(np.array(a) for a in np.broadcast_arrays(p, q)))
        assert got.shape == (2, 3, 2) and got.tobytes() == full.tobytes()


def test_matrix_negentropy_eigensolves_each_distinct_matrix_once(monkeypatch):
    """On locality's shapes the shared row is eigensolved once per trial: eigh forward, eigvalsh reversed."""
    solved = collections.Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            solved[_name] += int(np.prod(np.shape(a)[:-2]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    div, trials = dv.builtin_divergence("matrix_negentropy", QUTRITS), 4
    rng = np.random.default_rng(6)
    mixed = np.array([geo.random_state(QUTRITS, rng).coords for _ in range(2 * trials * 10)])
    pure = np.array([geo.random_state(QUTRITS, rng).coords for _ in range(trials)])[:, None]
    mixed = mixed.reshape(2, trials, 10, -1)
    solved.clear()
    div.values(QUTRITS, mixed, pure)
    assert solved == {"eigh": trials, "eigvalsh": 2 * trials * 10}
    solved.clear()
    div.values(QUTRITS, pure, mixed)
    assert solved == {"eigh": 2 * trials * 10, "eigvalsh": trials}


@pytest.mark.parametrize("ring", ["real", "complex", "quaternion"])
def test_one_by_one_density_triples_are_vacuous(ring):
    # the one state has no orthogonal complement: (s0, s0, s0), vacuous, as on Simplex(1)
    space = geo.DensityMatrices(ring, 1)
    s0, s1, s2, vacuous = space.orthogonal_triples(np.random.default_rng(0), 5)
    assert s0.shape == (5, space.coords_len) and np.all(space.contains_state(s0))
    assert s1.tobytes() == s2.tobytes() == s0.tobytes() and vacuous.tolist() == [True] * 5
    assert [a.tolist() for a in geo.Simplex(1).orthogonal_triples(np.random.default_rng(0), 5)] == [
        [[1.0]] * 5, [[1.0]] * 5, [[1.0]] * 5, [True] * 5]


@pytest.mark.parametrize("space", [geo.Ball(2), geo.unit_square(), SIMPLEX3], ids=["disc", "square", "simplex3"])
def test_batched_locality_matches_reference_loop(space):
    for div in (dv.squared_euclidean_divergence(), NAN_DIVERGENCE):
        assert_reports_match(dv.check_locality(div, space, trials=30, seed=2),
                             reference_locality(reference_divergence(div), space, 30, seed=2))
    assert_reports_match(dv.check_sufficiency(NAN_DIVERGENCE, SIMPLEX3, trials=10, seed=2),
                         reference_sufficiency(NAN_DIVERGENCE, SIMPLEX3, 10, seed=2))


# ---------------------------------------------------------------------------
# stacked samplers against the per-row reference samplers
# ---------------------------------------------------------------------------

LOCALITY_SPACES = {
    "simplex2": geo.Simplex(2), "simplex3": SIMPLEX3, "simplex5": geo.Simplex(5), "square": geo.unit_square(),
    "triangle": geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), "disc": geo.Ball(2),
    "spin3": geo.SpinFactor(3),
    **{f"{ring}{n}": geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion") for n in (2, 3)},
}


def assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_triples_match_reference(space, rng, rng_ref, trials, retries=None):
    want = reference_orthogonal_triples(space, rng_ref, trials, retries)
    *stacks, vacuous = space.orthogonal_triples(rng, trials)
    for k, stack in enumerate(stacks):
        assert_bit_equal(stack, [w[k].coords for w in want])
    assert vacuous.tolist() == [w[3] for w in want]
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("space", LOCALITY_SPACES.values(), ids=LOCALITY_SPACES.keys())
@pytest.mark.parametrize("seed", [0, 7])
def test_orthogonal_triples_match_reference_loop(space, seed):
    assert_triples_match_reference(space, np.random.default_rng(seed), np.random.default_rng(seed), 12)


@pytest.mark.parametrize("space, seed, trials, kind", [
    (geo.DensityMatrices("real", 2), 192, 8, "mass"),  # one s1 row has a complement of mass below 1e-6
    (SIMPLEX3, 5, 12, "same"),  # s2 = s1 in 4 trials, then in 2 of them, then in 1
], ids=["mass-real2", "same-simplex3"])
def test_orthogonal_triples_retry_like_the_loop(space, seed, trials, kind):
    retries = collections.Counter()
    assert_triples_match_reference(space, np.random.default_rng(seed), np.random.default_rng(seed),
                                   trials, retries)
    assert retries[kind] > 0


class ScriptedRng:
    """Generator stand-in with fixed draws, for the rejection paths of the locality samplers.

    A column draw is e1 in every row, so s0 is e1 e1* and every pure
    candidate has no mass in its complement; a square draw is the identity,
    the maximally mixed candidate.  The i-th uniform value drawn (counting
    along every stack) is below 0.5, which picks a pure candidate, when
    pure[i] is true (false past its end).  Integer draws are their lowest
    value, key rows increase along the row and exponential gaps are ones, so
    a simplex triple is (e0, e1, e1) at every draw.  The state counts the
    draws and the uniform values, and is read through bit_generator.
    """

    def __init__(self, pure=()):
        self.pure = list(pure)
        self.state = (0, 0)  # (draws, uniform values)
        self.bit_generator = self

    def _draw(self, values=0):
        draws, uniforms = self.state
        self.state = (draws + 1, uniforms + values)
        return uniforms

    def standard_normal(self, shape):
        self._draw()
        n, cols = shape[-2:]
        return np.broadcast_to(np.eye(n)[:, :cols], shape).copy()

    def uniform(self, size):
        count = int(np.prod(size))
        first = self._draw(values=count)
        picked = [i < len(self.pure) and self.pure[i] for i in range(first, first + count)]
        return np.where(picked, 0.0, 0.9).reshape(size)

    def integers(self, low, high=None, size=None):
        self._draw()
        return np.full(size, 0 if high is None else low)

    def random(self, shape):
        self._draw()
        return np.broadcast_to(np.arange(shape[-1], dtype=float), shape)

    def standard_exponential(self, shape):
        self._draw()
        return np.ones(shape)


REAL3 = geo.DensityMatrices("real", 3)
REJECTED_S1 = [True] * (3 * (geo.MASS_ATTEMPTS - 1))  # every s1 row, MASS_ATTEMPTS - 1 times


@pytest.mark.parametrize("space, pure, mass, same", [
    (SIMPLEX3, (), 0, 3 * geo.DISTINCT_ATTEMPTS),
    (REAL3, (), 0, 3 * geo.DISTINCT_ATTEMPTS),
    (REAL3, REJECTED_S1, len(REJECTED_S1), 3 * geo.DISTINCT_ATTEMPTS),
    (REAL3, [False] * 3 + [True, False, True, True], 3, 3 * geo.DISTINCT_ATTEMPTS),
], ids=["simplex3-distinct-cap", "real3-distinct-cap", "real3-s1-mass", "real3-s2-mass"])
def test_orthogonal_triples_follow_scripted_rejections(space, pure, mass, same):
    """s2 = s1 at every try keeps the last s2; rows of rejected mass in s1 and in s2 are drawn again
    (in s2: rows 0 and 2, then row 0 again, each time as a stack of just those rows)."""
    retries = collections.Counter()
    assert_triples_match_reference(space, ScriptedRng(pure), ScriptedRng(pure), 3, retries)
    assert (retries["mass"], retries["same"]) == (mass, same)


@pytest.mark.parametrize("pure", [
    [True, False, False] + [True] * (geo.MASS_ATTEMPTS - 1),  # s1 row 0 at every draw
    [False] * 3 + [False, True, False] + [True] * (geo.MASS_ATTEMPTS - 1),  # s2 row 1 at every draw
], ids=["s1", "s2"])
def test_orthogonal_triples_give_up_like_the_loop(pure):
    with pytest.raises(RuntimeError, match="orthogonal complement"):
        reference_orthogonal_triples(REAL3, ScriptedRng(pure), 3)
    with pytest.raises(RuntimeError, match="orthogonal complement"):
        REAL3.orthogonal_triples(ScriptedRng(pure), 3)


def reference_simplex_triples(space, rng, trials):
    """The per-trial loop that Simplex.orthogonal_triples replaced, kept as the reference for its law.

    Trial by trial: a vertex, then the face size, support (``choice``) and
    Dirichlet weights of s1, then of s2, drawn until s2 differs from s1, at
    most DISTINCT_ATTEMPTS times.
    """
    n = space.n

    def fill_face(row, rest):
        k = int(rng.integers(1, len(rest) + 1))
        support = rng.choice(rest, size=k, replace=False)
        row[:] = 0.0
        row[support] = rng.dirichlet(np.ones(k)) if k > 1 else 1.0

    s0, s1, s2 = np.zeros((3, trials, n))
    for t in range(trials):
        i = int(rng.integers(n))
        rest = [j for j in range(n) if j != i]
        s0[t, i] = 1.0
        fill_face(s1[t], rest)
        for _ in range(geo.DISTINCT_ATTEMPTS):
            fill_face(s2[t], rest)
            if np.max(np.abs(s2[t] - s1[t])) > tolerances.DISTINCT_STATE_TOL:
                break
    return s0, s1, s2, np.zeros(trials, dtype=bool)


class CountingRng:
    """A Generator that counts the draws made through it, by method name."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


SIMPLEX_DRAWS = ("integers", "random", "standard_exponential")


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("trials", [1, 12, 220])
def test_simplex_triples_keep_the_draw_stream(n, trials):
    for seed in range(50):
        assert_triples_match_reference(geo.Simplex(n), np.random.default_rng(seed), np.random.default_rng(seed),
                                       trials)


def test_simplex_triples_retry_on_the_draw_stream():
    """simplex3 at seed 5: s2 = s1 in 4 trials, then in 2 of them, then in 1; one redraw stack each time."""
    rng, rng_ref, retries = CountingRng(5), CountingRng(5), collections.Counter()
    assert_triples_match_reference(SIMPLEX3, rng, rng_ref, 12, retries)
    assert rng.calls == rng_ref.calls
    assert [rng.calls[name] for name in SIMPLEX_DRAWS] == [3 + 3, 2 + 3, 2 + 3]
    assert retries["same"] == 4 + 2 + 1


@pytest.mark.parametrize("n", [3, 6])
def test_simplex_triple_draws_do_not_grow_with_trials(n):
    """One vertex stack, then (sizes, keys, gaps) stacks for s1, for s2 and for each redraw of s2."""
    for trials in (1, 12, 220, 5000):
        rng = CountingRng(3)
        geo.Simplex(n).orthogonal_triples(rng, trials)
        redraws = rng.calls["random"] - 2
        assert 0 <= redraws < geo.DISTINCT_ATTEMPTS
        assert rng.calls == dict(zip(SIMPLEX_DRAWS, [3 + redraws, 2 + redraws, 2 + redraws]))


def assert_same_mean(a, b):
    """The means of two independent samples differ by at most five standard errors of the difference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bound = 5.0 * math.sqrt(np.var(a) / a.size + np.var(b) / b.size)
    assert abs(np.mean(a) - np.mean(b)) <= bound, (np.mean(a), np.mean(b), bound)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_simplex_triples_keep_the_law_of_the_loop(n):
    """The stacked draws against the per-trial loop, 20 000 trials each, within 5 sigma.

    Compared for s0 and, for s1 and for s2: the histogram of face sizes,
    how often each vertex is in the support, and per face size k the mean
    largest weight (the mean weight is 1/k under any law).  The largest of
    k Dirichlet(1) weights has mean H_k / k, which both samplers meet too.
    """
    space, trials = geo.Simplex(n), 20_000
    got = space.orthogonal_triples(np.random.default_rng(11), trials)
    want = reference_simplex_triples(space, np.random.default_rng(12), trials)
    for v in range(n):
        assert_same_mean(got[0][:, v], want[0][:, v])
    for a, b in zip(got[1:3], want[1:3]):
        sizes_a, sizes_b = np.count_nonzero(a, axis=1), np.count_nonzero(b, axis=1)
        for v in range(n):
            assert_same_mean(a[:, v] > 0, b[:, v] > 0)
        for k in range(1, n):
            assert_same_mean(sizes_a == k, sizes_b == k)
            top_a, top_b = np.max(a[sizes_a == k], axis=1), np.max(b[sizes_b == k], axis=1)
            assert_same_mean(top_a, top_b)
            harmonic = sum(1.0 / j for j in range(1, k + 1)) / k
            for top in (top_a, top_b):
                assert abs(np.mean(top) - harmonic) <= 5.0 * np.std(top) / math.sqrt(top.size)


@pytest.mark.parametrize("ring", ["real", "complex", "quaternion"])
def test_density_triples_keep_the_law_of_the_loop(ring):
    """The stacked draws (20 000 trials) against the per-trial loop (1 500), within 5 sigma, on n = 3.

    Compared for s1 and for s2: the purity Tr(s^2) (the squared coordinate norm), the share of pure
    states (a pure candidate stays pure when compressed, a density candidate is almost surely not)
    and the mean of each diagonal entry; for s0, the mean of each diagonal entry.
    """
    space = geo.DensityMatrices(ring, 3)
    got = space.orthogonal_triples(np.random.default_rng(31), 20_000)[:3]
    rng = np.random.default_rng(32)
    loop = [reference_density_triple_loop(space, rng) for _ in range(1_500)]
    want = [np.array([trial[k].coords for trial in loop]) for k in range(3)]
    diagonal = np.arange(3) * 4 * space.components_per_entry  # entry (i, i) starts at (3 i + i) * width
    for k, (a, b) in enumerate(zip(got, want)):
        for column in diagonal:
            assert_same_mean(a[:, column], b[:, column])
        if k:
            purity_a, purity_b = np.sum(a ** 2, axis=1), np.sum(b ** 2, axis=1)
            assert_same_mean(purity_a, purity_b)
            assert_same_mean(purity_a > 1.0 - 1e-9, purity_b > 1.0 - 1e-9)
            assert 0.3 < np.mean(purity_a > 1.0 - 1e-9) < 0.7


POLYTOPES = {
    "square": geo.unit_square(),
    "hexagon": geo.Polytope(((0.0, 0.0), (2.0, -1.0), (4.0, 0.0), (5.0, 2.0), (2.0, 4.0), (-1.0, 2.0))),
}


@pytest.mark.parametrize("space", POLYTOPES.values(), ids=POLYTOPES.keys())
def test_polytope_triples_keep_the_law_of_the_loop(space):
    """The frequency of every (s0, s1, s2) vertex triple, stacked draws against the per-trial loop
    (``choice`` of two partners), 20 000 trials each, within 5 sigma; the irregular hexagon's vertices
    have 3, 4 and 5 orthogonal partners."""
    vertices = space.vertex_array
    rows = space.orthogonal_triples(np.random.default_rng(41), 20_000)[:3]
    got = np.stack([np.argmax(np.all(r[:, None] == vertices[None], axis=-1), axis=1) for r in rows], axis=1)
    rng = np.random.default_rng(42)
    want = np.array([reference_polytope_triple_loop(space, rng) for _ in range(20_000)])
    cells = set(map(tuple, want.tolist())) | set(map(tuple, got.tolist()))
    assert len(cells) == sum(d * (d - 1) for d in np.sum(geo._polytope_geometry(space).graph, axis=1))
    for cell in cells:
        assert_same_mean(np.all(got == cell, axis=1), np.all(want == cell, axis=1))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_simplex_triples_lie_on_the_opposite_facet(n):
    """s0 is a vertex; s1 and s2 vanish there and are probability vectors.

    s2 differs from s1 in every trial, except after DISTINCT_ATTEMPTS draws
    of s2: at n = 3 a vertex s1 is drawn again as s2 eight times running
    with probability 4^-8, once in the 20 000 trials at seed 13.
    """
    rng = CountingRng(13)
    s0, s1, s2, vacuous = geo.Simplex(n).orthogonal_triples(rng, 20_000)
    assert np.all(np.count_nonzero(s0, axis=1) == 1) and np.all(np.max(s0, axis=1) == 1.0)
    for rows in (s1, s2):
        assert np.all(rows[s0 == 1.0] == 0.0) and np.all(rows >= 0.0)
        assert np.max(np.abs(np.sum(rows, axis=1) - 1.0)) <= n * np.finfo(float).eps
    same = np.max(np.abs(s2 - s1), axis=1) <= tolerances.DISTINCT_STATE_TOL
    assert np.count_nonzero(same) == (n == 3)
    assert not np.any(same) or rng.calls["random"] == 1 + geo.DISTINCT_ATTEMPTS
    assert not np.any(vacuous)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["kl", "squared_euclidean", "itakura_saito"])
def test_simplex_locality_verdicts(n, name):
    """Rank 2 passes every divergence, all its triples vacuous; from rank 3 on only kl is local."""
    space = geo.Simplex(n)
    div = dv.builtin_divergence(name, space)
    for seed in range(1, 6):
        report = dv.check_locality(div, space, trials=40, seed=seed)
        assert (report["pass"], report["vacuous"]) == (n == 2 or name == "kl", n == 2)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_checkers_reject_tolerances_that_decide_alone(tol):
    """A NaN, infinite or negative tol would pass or fail every check by itself: ValueError."""
    div = dv.squared_euclidean_divergence()
    with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
        dv.check_locality(div, SIMPLEX3, trials=3, tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
        dv.check_sufficiency(div, SIMPLEX3, trials=3, tol=tol)
    assert dv.check_locality(div, SIMPLEX3, trials=3, tol=0.0)["tolerance"] == 0.0


SUFFICIENCY_SPACES = {
    **{f"simplex{n}": geo.Simplex(n) for n in (2, 3, 5)},
    **{f"{ring}{n}": geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion") for n in (1, 2, 3)},
}


@pytest.mark.parametrize("space", SUFFICIENCY_SPACES.values(), ids=SUFFICIENCY_SPACES.keys())
def test_family_draws_match_reference_rows(space):
    """One base stack mapped by each pair equals the rows its per-row sampler draws, trial by trial."""
    trials = 13
    rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    suite, suite_ref = space.channel_suite(rng), space.channel_suite(rng_ref)
    want = [reference_family_row(space, suite_ref[t % len(suite_ref)], rng_ref)
            for t in range(trials) for _ in range(2)]
    base = space.family_draws(rng, (trials, 2))
    owner = np.repeat(np.arange(trials) % len(suite), 2)
    got = np.empty((2 * trials, space.coords_len))
    for k, pair in enumerate(suite):
        got[owner == k] = pair.family(base.reshape(-1, space.coords_len)[owner == k])
    assert_bit_equal(got, want)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------------------
# mixtures of tested states are states, and stacked evaluations keep their bytes
# ---------------------------------------------------------------------------

MIXING_SPACES = {
    **LOCALITY_SPACES, "simplex4": geo.Simplex(4),
    "cube": geo.Polytope(tuple((a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0))),
}
INTERIOR_SQUARED_EUCLIDEAN = dv.Divergence("squared_euclidean", "test", requires_interior=True,
                                           array_rule=dv.squared_euclidean_divergence().array_rule)
# a failing seed is a complete example, so shrinking (which reruns whole checks for minutes) is skipped
MIXING_PROPERTIES = settings(derandomize=True, database=None, max_examples=12, deadline=None,
                             phases=(Phase.explicit, Phase.generate))


def assert_mixed_rows_are_states(space, seed):
    """Every row that mix_coords returns in locality checks, and in sufficiency checks on spaces with a channel
    suite, passes contains_state at MEMBERSHIP_TOL; the interior divergence runs the rows through the
    epsilon-mixture of ``_interior_map`` too."""
    mixed, mix = [], dv.mix_coords

    def recording(t, a, b):
        mixed.append(mix(t, a, b))
        return mixed[-1]

    with mock.patch.object(dv, "mix_coords", recording):
        for div in (dv.squared_euclidean_divergence(), INTERIOR_SQUARED_EUCLIDEAN):
            dv.check_locality(div, space, trials=8, seed=seed)
            if isinstance(space, (geo.Simplex, geo.DensityMatrices)):
                dv.check_sufficiency(div, space, trials=8, seed=seed)
    assert len(mixed) >= 4  # the locality mixtures of both divergences, and both interior maps of one
    for rows in mixed:
        assert np.all(space.contains_state(rows, tol=tolerances.MEMBERSHIP_TOL))


@pytest.mark.parametrize("space", MIXING_SPACES.values(), ids=MIXING_SPACES.keys())
@MIXING_PROPERTIES
@given(seed=st.integers(0, 2**32 - 1))
def test_property_mixed_rows_are_states(space, seed):
    assert_mixed_rows_are_states(space, seed)


@MIXING_PROPERTIES
@given(verts=convex_polygons(), seed=st.integers(0, 2**32 - 1))
def test_property_mixed_rows_are_states_on_generated_polygons(verts, seed):
    assert_mixed_rows_are_states(geo.Polytope(tuple(map(tuple, verts))), seed)


def reference_matrix_negentropy_rule(space):
    """The matrix_negentropy array rule as it was before it skipped the entropy solve of all-leaking calls."""

    def array_rule(p, q):
        mu, v = np.linalg.eigh(space.forms(q))
        rho = space.forms(p)
        mass = np.real(np.sum(np.conj(v) * (rho @ v), axis=-2)) / space.mult
        supp = mu > tolerances.ZERO_EIGENVALUE_TOL
        cross = np.sum(np.log(np.where(supp, mu, 1.0)) * mass, axis=-1)
        leak = np.sum(np.where(supp, 0.0, mass), axis=-1)
        negentropy = -jordan.spectral_entropies(jordan.ring_eigenvalues(np.linalg.eigvalsh(rho), space.mult))
        return np.where(leak > tolerances.SUPPORT_LEAK_TOL, math.inf, negentropy - cross)

    return array_rule


DENSITY_SPACES = {f"{ring}{n}": geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion")
                  for n in (2, 3)}


@pytest.mark.parametrize("space", DENSITY_SPACES.values(), ids=DENSITY_SPACES.keys())
def test_matrix_negentropy_skips_the_entropy_solve_only_when_every_pair_leaks(monkeypatch, space):
    """The locality stacks, mixture first (every pair leaks) and mixed with the reversed order (some leak),
    give the bytes and shape of the full rule; only the first skips spectral_entropies."""
    s0, s1, s2, _ = space.orthogonal_triples(np.random.default_rng(5), 20)
    mixed = dv.mix_coords(np.asarray(dv.DEFAULT_T_GRID)[:, None], s0[None, :, None], np.stack([s1, s2])[:, :, None])
    pure = s0[:, None]
    some_p, some_q = np.concatenate([mixed[0, :, 2], s0]), np.concatenate([s0, mixed[1, :, 2]])
    rule, reference = dv.matrix_negentropy_divergence(space).array_rule, reference_matrix_negentropy_rule(space)
    every, some = reference(mixed, pure), reference(some_p, some_q)
    assert np.all(np.isinf(every)) and np.any(np.isinf(some)) and np.any(np.isfinite(some))
    solves, entropies = [], jordan.spectral_entropies
    monkeypatch.setattr(jordan, "spectral_entropies", lambda w: solves.append(w.shape) or entropies(w))
    assert_bit_equal(rule(mixed, pure), every)
    assert solves == []
    assert_bit_equal(rule(some_p, some_q), some)
    assert len(solves) == 1


@pytest.mark.parametrize("space", SUFFICIENCY_SPACES.values(), ids=SUFFICIENCY_SPACES.keys())
def test_stacked_sufficiency_values_match_two_calls(space):
    """Every builtin divergence of the space, on the base and image pairs of the kept trials as one stack,
    gives the bytes of one values call for the base pairs and one for the image pairs."""
    rng = np.random.default_rng(6)
    suite = space.channel_suite(rng)
    base = space.family_draws(rng, (len(suite), 9, 2)).reshape(len(suite), -1, space.coords_len)
    drawn = np.concatenate([pair.family(rows) for pair, rows in zip(suite, base)]).reshape(-1, 2, space.coords_len)
    mapped = np.concatenate([pair.phi(rows.reshape(-1, space.coords_len))
                             for pair, rows in zip(suite, np.split(drawn, len(suite)))]).reshape(drawn.shape)
    kept = np.flatnonzero(np.arange(len(drawn)) % 4 != 1)
    for name in dict.fromkeys([*space.divergences, "squared_euclidean"]):
        div = dv.builtin_divergence(name, space)
        dom = dv._interior_map(div, space)
        pairs = dom(np.stack([drawn[kept], mapped[kept]]))
        stacked = div.values(space, pairs[:, :, 0], pairs[:, :, 1])
        assert_bit_equal(stacked, [div.values(space, dom(x[kept, 0]), dom(x[kept, 1])) for x in (drawn, mapped)])


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


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_fit_entropy_constant_rejects_tolerances_that_decide_alone(tol):
    """A NaN tol reported "not entropy-generated" with residual 0; NaN, negative and infinite all raise."""
    with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
        dv.fit_entropy_constant(dv.kl_divergence(), SIMPLEX3, tol=tol)


def reference_fit_entropy_constant(div, space, tol=1e-10, samples=200, seed=0, locality_trials=50):
    """Per-sample loop: two Dirichlet draws, two States and two scalar divergence calls per sample."""
    if not isinstance(space, geo.Simplex) or space.n < 3:
        raise sc.PreconditionError("entropy-constant recovery needs a simplex with n >= 3")
    if locality_trials:
        report = dv.check_locality(div, space, trials=locality_trials, seed=seed + 1)
        if not report["pass"]:
            raise sc.PreconditionError(f"divergence {div.name} is not local (max gap {report['max_gap']:.3e})")
    rng = np.random.default_rng(seed)
    kl = dv.kl_divergence()
    num = 0.0
    den = 0.0
    pairs = []
    for _ in range(samples):
        p = rng.dirichlet(np.ones(space.n)) * 0.98 + 0.02 / space.n
        q = rng.dirichlet(np.ones(space.n)) * 0.98 + 0.02 / space.n
        s1 = sc.State(space, p / np.sum(p))
        s2 = sc.State(space, q / np.sum(q))
        d = div(s1, s2)
        k = kl(s1, s2)
        pairs.append((d, k))
        num += d * k
        den += k * k
    c = num / den
    residual = max(abs(d - c * k) for d, k in pairs)
    if c <= 0.0:
        raise sc.PreconditionError(f"fitted constant {c} is not positive")
    return dv.EntropyFit(float(c), float(residual), bool(residual <= tol))


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fit_entropy_constant_matches_reference_loop(n, c, seed):
    div = dv.scaled_divergence(c, dv.kl_divergence())
    space = geo.Simplex(n)
    assert dv.fit_entropy_constant(div, space, seed=seed) == reference_fit_entropy_constant(div, space, seed=seed)


def test_fit_entropy_constant_rejects_nonlocal_divergence():
    with pytest.raises(sc.PreconditionError):
        dv.fit_entropy_constant(dv.squared_euclidean_divergence(), SIMPLEX3, seed=4)


@pytest.mark.parametrize("samples", [0, -2])
def test_fit_entropy_constant_rejects_sample_count_below_one(samples):
    with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
        dv.fit_entropy_constant(dv.kl_divergence(), SIMPLEX3, samples=samples)


def test_fit_entropy_constant_needs_three_orthogonal_states():
    with pytest.raises(sc.PreconditionError):
        dv.fit_entropy_constant(dv.kl_divergence(), geo.Simplex(2), seed=4)


def test_fit_entropy_constant_says_why_it_refuses_rank_two():
    # on two outcomes itakura_saito and squared_euclidean pass sufficiency as kl does: no constant exists
    for div in (dv.itakura_saito_divergence(), dv.squared_euclidean_divergence()):
        assert dv.check_sufficiency(div, geo.Simplex(2), trials=20, seed=3)["pass"]
    with pytest.raises(sc.PreconditionError, match=r"permutation-invariant divergence satisfies sufficiency, "
                                                   r"so locality does not single out kl"):
        dv.fit_entropy_constant(dv.kl_divergence(), geo.Simplex(2), seed=4)


@pytest.mark.parametrize("make_gen", [dv.negentropy_generator, dv.squared_norm_generator, burg_generator],
                         ids=["negentropy", "squared_norm", "burg"])
def test_generator_gradient_matches_central_differences(make_gen):
    # <grad F(s), u> is the derivative of F along any in-simplex direction u
    gen = make_gen()
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(15):
        s, t = interior_state(SIMPLEX3, rng), interior_state(SIMPLEX3, rng)
        u = t.coords - s.coords
        ahead = gen.value(sc.State(SIMPLEX3, s.coords + h * u))
        behind = gen.value(sc.State(SIMPLEX3, s.coords - h * u))
        assert abs((ahead - behind) / (2 * h) - float(np.dot(gen.gradient(s), u))) <= 1e-6


def test_generators_midpoint_convex():
    rng = np.random.default_rng(6)
    gens = [dv.negentropy_generator(), dv.squared_norm_generator(), burg_generator()]
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
