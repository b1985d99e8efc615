"""Output oracles that do not rely on the code under test.

Spectra and entropies of density matrices come from numpy.linalg.eigvalsh;
simplex, ball and spin-factor answers from their closed forms; polytope
faces from a brute-force facet enumeration over the vertex list.  Landscape
maxima and check verdicts are the values stated in README.md and the
paper's examples, including negative controls.

judge(op, result) returns (status, reason) with status one of
  "ok"         the operation met its documented contract;
  "failed"     it did not: an exception escaped, the exit code or the stderr
               shape was not the documented one;
  "incorrect"  it answered, and the answer is wrong (counted as failed too).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from workloads import landscape_points, quaternion_to_complex

LN2 = math.log(2.0)
TOL = 1e-9
WITNESS_TOL = 1e-6  # LP feasibility tolerance of the witness solver is 1e-7
DROP = 1e-11  # weights at or below DROP * max(1, trace) are not components


class Wrong(Exception):
    """An answer that contradicts the oracle."""


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Wrong(why)


# ---------------------------------------------------------------------------
# Geometry, computed independently
# ---------------------------------------------------------------------------

def space_dim(desc: dict) -> int:
    kind = desc["kind"]
    if kind == "simplex":
        return desc["n"] - 1
    if kind in ("ball", "spin"):
        return desc["d"]
    if kind == "polytope":
        return len(desc["vertices"][0])
    n = desc["n"]
    k = {"real": 1, "complex": 2, "quaternion": 4}[desc["ring"]]
    return n + k * n * (n - 1) // 2 - 1


def density_matrix(desc: dict, coords) -> np.ndarray:
    """Complex matrix (the embedding for quaternions) from row-major coordinates."""
    n, ring = desc["n"], desc["ring"]
    c = np.asarray(coords, dtype=float)
    if ring == "real":
        return c.reshape(n, n).astype(complex)
    if ring == "complex":
        pairs = c.reshape(n, n, 2)
        return pairs[..., 0] + 1j * pairs[..., 1]
    return quaternion_to_complex(c.reshape(n, n, 4))


def density_eigenvalues(desc: dict, coords) -> np.ndarray:
    """Ring eigenvalues, descending (each embedded quaternion pair counted once)."""
    w = np.linalg.eigvalsh(density_matrix(desc, coords))[::-1]
    return w[::2] if desc["ring"] == "quaternion" else w


def closed_form_spectrum(desc: dict, trace: float, coords) -> np.ndarray:
    """Descending decomposition weights for simplex, ball, spin and density spaces."""
    kind = desc["kind"]
    c = np.asarray(coords, dtype=float)
    if kind == "simplex":
        w = trace * c
    elif kind in ("ball", "spin"):
        r = min(float(np.linalg.norm(c)), 1.0)
        w = np.array([trace * (1 + r) / 2, trace * (1 - r) / 2])
    else:
        w = trace * density_eigenvalues(desc, c)
    w = np.sort(w)[::-1]
    return w[w > DROP * max(1.0, trace)]


def entropy_of(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


_FACETS = {}


def facets(vertices) -> list:
    """Facets of a full-dimensional polytope as frozensets of vertex indices."""
    key = json.dumps(vertices)
    if key in _FACETS:
        return _FACETS[key]
    v = np.asarray(vertices, dtype=float)
    nv, m = v.shape
    found = set()
    for idx in itertools.combinations(range(nv), m):
        base = v[list(idx)]
        diffs = base[1:] - base[0]
        _, s, vt = np.linalg.svd(np.vstack([diffs, np.zeros((1, m))]))
        normal = vt[-1]
        if m > 1 and s[m - 2] < 1e-9:
            continue  # the m points do not span a hyperplane
        side = (v - base[0]) @ normal
        on = np.abs(side) <= 1e-9
        if np.all(side <= 1e-9) or np.all(side >= -1e-9):
            found.add(frozenset(np.nonzero(on)[0].tolist()))
    _FACETS[key] = sorted(found, key=sorted)
    return _FACETS[key]


def smallest_face(vertices, i: int, j: int) -> list:
    """Vertex indices of the smallest face containing vertices i and j."""
    face = set(range(len(vertices)))
    for f in facets(vertices):
        if i in f and j in f:
            face &= f
    return sorted(face)


# ---------------------------------------------------------------------------
# Per-operation judges
# ---------------------------------------------------------------------------

def _component_ok(desc: dict, comp: np.ndarray) -> None:
    """Each component must be a pure state of the space."""
    kind = desc["kind"]
    if kind == "simplex":
        _require(abs(np.sum(comp) - 1) <= TOL and np.sum(np.abs(comp) > TOL) == 1,
                 "simplex component is not a vertex")
    elif kind in ("ball", "spin"):
        _require(abs(np.linalg.norm(comp) - 1.0) <= TOL, "ball component is not on the sphere")
    elif kind == "polytope":
        verts = np.asarray(desc["vertices"])
        _require(bool(np.any(np.max(np.abs(verts - comp), axis=1) <= 1e-12)),
                 "polytope component is not a vertex")
    else:
        w = density_eigenvalues(desc, comp)
        expect = np.zeros_like(w)
        expect[0] = 1.0
        _require(float(np.max(np.abs(w - expect))) <= 1e-8, "density component is not rank one")


def judge_decompose(op, payload: dict) -> None:
    e = op.expect
    desc, trace, coords = e["space"], e["trace"], np.asarray(e["coords"])
    weights = np.asarray(payload["weights"], dtype=float)
    comps = np.asarray(payload["components"], dtype=float)
    scale = max(1.0, trace)
    _require(weights.size >= 1 and payload["n"] == weights.size == len(comps), "sizes disagree")
    _require(bool(np.all(weights > 0)), "non-positive weight")
    _require(weights.size <= space_dim(desc) + 1, "dimension bound violated")
    _require(abs(float(np.sum(weights)) - trace) <= TOL * scale, "weights do not sum to the trace")
    recon = weights @ comps
    _require(float(np.max(np.abs(recon - trace * coords))) <= TOL * scale,
             "decomposition does not reconstruct the element")
    _require(np.allclose(payload["spectrum"], np.sort(weights)[::-1], rtol=0, atol=1e-15),
             "spectrum is not the sorted weights")
    for c in comps:
        _component_ok(desc, c)
    if desc["kind"] != "polytope":
        expect = closed_form_spectrum(desc, trace, coords)
        _require(expect.size == weights.size, f"spectrum length {weights.size}, expected {expect.size}")
        _require(float(np.max(np.abs(np.sort(weights)[::-1] - expect))) <= TOL * scale,
                 "spectrum differs from the closed form / eigvalsh")
    pairs = list(itertools.combinations(range(len(comps)), 2))
    witnesses = payload["witnesses"]
    _require(len(witnesses) == len(pairs), "one witness per pair expected")
    for (i, j), w in zip(pairs, witnesses):
        _require(w is not None, "missing orthogonality witness")
        lin, off = np.asarray(w["linear"], dtype=float), float(w["offset"])
        _require(abs(lin @ comps[i] + off) <= WITNESS_TOL and abs(lin @ comps[j] + off - 1) <= WITNESS_TOL,
                 "witness does not map its pair to 0 and 1")
        if desc["kind"] == "polytope":
            verts = np.asarray(desc["vertices"], dtype=float)
            vi = int(np.argmin(np.max(np.abs(verts - comps[i]), axis=1)))
            vj = int(np.argmin(np.max(np.abs(verts - comps[j]), axis=1)))
            vals = verts[smallest_face(desc["vertices"], vi, vj)] @ lin + off
            _require(float(vals.min()) >= -WITNESS_TOL and float(vals.max()) <= 1 + WITNESS_TOL,
                     "witness leaves [0, 1] on the face of its pair")


def judge_entropy(op, value: float) -> None:
    e = op.expect
    desc, trace, coords = e["space"], e["trace"], np.asarray(e["coords"])
    _require(isinstance(value, float) and math.isfinite(value), "entropy is not a finite float")
    if desc["kind"] == "polytope":
        # no closed form: -lam ln lam <= H <= lam ln(dim + 1) - lam ln lam
        base = -trace * math.log(trace)
        top = trace * math.log(space_dim(desc) + 1) + base
        _require(base - TOL <= value <= top + TOL, f"polytope entropy {value} outside [{base}, {top}]")
        return
    expect = entropy_of(closed_form_spectrum(desc, trace, coords))
    _require(abs(value - expect) <= TOL * max(1.0, abs(expect)), f"entropy {value}, expected {expect}")


def judge_check(op, code: int, report: dict) -> None:
    e = op.expect
    _require(report.get("check") == e["check"], "report names the wrong check")
    _require(report.get("pass") is e["pass"], f"verdict {report.get('pass')}, expected {e['pass']}")
    _require(code == (0 if e["pass"] else 2), f"exit code {code} disagrees with the verdict")
    _require(report.get("trials") == e["trials"] and e["trials"] > 0, "report trial count is wrong")
    gap = report.get("max_gap")
    _require(isinstance(gap, (int, float)) and math.isfinite(gap) and gap >= 0.0,
             f"max_gap {gap!r} is not a finite number >= 0")
    if not e["pass"]:
        _require(report.get("witness") is not None, "failing report carries no witness")
    if "witness_coords" in e:
        got = report["witness"]["coords"]
        _require(np.allclose(got, e["witness_coords"], atol=TOL), f"witness at {got}")


def _landscape_values(space: str, x: np.ndarray, y: np.ndarray):
    if space == "disc":
        r = np.minimum(np.hypot(x, y), 1.0)
        w = np.stack([(1 + r) / 2, (1 - r) / 2])
    elif space == "simplex3":
        w = np.stack([x, y, 1.0 - x - y])
    else:
        return None
    w = np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    return terms.sum(axis=0)


EXPECTED_MAXIMA = {
    "square": ([(0.25, 0.5), (0.5, 0.25), (0.5, 0.75), (0.75, 0.5)], 1.5 * LN2),
    "disc": ([(0.0, 0.0)], LN2),
    "simplex3": ([(1 / 3, 1 / 3)], math.log(3.0)),
}


def judge_landscape(op, out: str, err: str) -> None:
    space, grid = op.expect["space"], op.expect["grid"]
    lines = out.splitlines()
    _require(lines[0] == "x,y,entropy", "missing CSV header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _require(len(rows) == landscape_points(space, grid), f"{len(rows)} grid points")
    x, y, h = rows.T
    _require(bool(np.all(np.isfinite(h))) and float(h.min()) >= -TOL and float(h.max()) <= math.log(3) + TOL,
             "entropy outside [0, ln 3]")
    expect = _landscape_values(space, x, y)
    if expect is not None:
        _require(float(np.max(np.abs(h - expect))) <= TOL, "landscape differs from the closed form")
    else:  # square: corners are pure states
        corners = np.isin(x, (0.0, 1.0)) & np.isin(y, (0.0, 1.0))
        _require(int(corners.sum()) == 4 and float(np.max(np.abs(h[corners]))) <= TOL, "corner entropy")
    maxima = json.loads(err)
    points, value = EXPECTED_MAXIMA[space]
    got = sorted((round(m["coords"][0], 6), round(m["coords"][1], 6)) for m in maxima)
    _require(got == sorted((round(a, 6), round(b, 6)) for a, b in points), f"maxima at {got}")
    _require(all(abs(m["entropy"] - value) <= TOL for m in maxima), "maximum entropy value")


def judge(op, result: dict):
    """Classify one operation's outcome; see the module docstring."""
    if result.get("exc"):
        return "failed", "exception escaped: " + result["exc"]
    expect_type = op.expect["type"]
    try:
        if op.kind == "entropy":
            judge_entropy(op, result["value"])
            return "ok", ""
        code, out, err = result["code"], result["out"], result["err"]
        if expect_type == "reject":
            if code != op.expect["code"]:
                return "failed", f"exit code {code}, expected {op.expect['code']}"
            if out or err.count("\n") != 1 or not err.startswith("error: "):
                return "failed", "rejection is not a one-line stderr error"
            return "ok", ""
        if code not in (0, 2):
            return "failed", f"exit code {code}"
        if expect_type == "landscape":
            _require(code == 0, "landscape exit code")
            judge_landscape(op, out, err)
        else:
            _require(err == "", "unexpected stderr")
            payload = json.loads(out)
            if expect_type == "decompose":
                _require(code == 0, "decompose exit code")
                judge_decompose(op, payload)
            else:
                judge_check(op, code, payload)
    except Wrong as exc:
        return "incorrect", str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "incorrect", f"unreadable output: {type(exc).__name__}: {exc}"
    return "ok", ""
