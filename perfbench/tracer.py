"""Span tracer that wraps the program's public functions from outside.

Nothing in src/ is edited: each traced name is replaced, for the duration of
a traced run, in every spectral_cone module that holds it, because a
``from .cone import mix`` binds a second reference that callers in
``divergence`` look up instead of ``cone.mix``.  Spans (name, start, end,
parent, request) are kept in flat arrays in memory and written when the
run ends; numpy is imported only there, so run.py can read the span
names without it.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (metric layer.name, module, attribute path) of every traced entry point;
# contains_state is traced on every geometry class under one name.
TRACED = (
    ("cli.main", "spectral_cone.cli", "main"),
    ("spectral.entropy_landscape", "spectral_cone.spectral", "entropy_landscape"),
    ("spectral.entropy", "spectral_cone.spectral", "entropy"),
    ("spectral.is_spectral", "spectral_cone.spectral", "is_spectral"),
    ("geometries.decompose", "spectral_cone.geometries", "decompose"),
    ("geometries.enumerate_orthogonal_decompositions", "spectral_cone.geometries",
     "enumerate_orthogonal_decompositions"),
    ("geometries.orthogonal", "spectral_cone.geometries", "orthogonal"),
    ("geometries.orthogonality_witness", "spectral_cone.geometries", "orthogonality_witness"),
    ("geometries.contains_state", "spectral_cone.geometries", "Simplex.contains_state"),
    ("geometries.contains_state", "spectral_cone.geometries", "Polytope.contains_state"),
    ("geometries.contains_state", "spectral_cone.geometries", "Ball.contains_state"),
    ("geometries.contains_state", "spectral_cone.geometries", "DensityMatrices.contains_state"),
    ("geometries.space_from_json", "spectral_cone.geometries", "space_from_json"),
    ("geometries.random_state", "spectral_cone.geometries", "random_state"),
    ("scipy.linprog", "spectral_cone.geometries", "linprog"),
    ("scipy.ConvexHull", "spectral_cone.geometries", "ConvexHull"),
    ("cone.ConeElement.init", "spectral_cone.cone", "ConeElement.__init__"),
    ("cone.mix", "spectral_cone.cone", "mix"),
    ("divergence.eval", "spectral_cone.divergence", "Divergence.__call__"),
    ("divergence.check_locality", "spectral_cone.divergence", "check_locality"),
    ("divergence.check_sufficiency", "spectral_cone.divergence", "check_sufficiency"),
    ("jordan.eigenvalues_of", "spectral_cone.jordan", "eigenvalues_of"),
    ("jordan.eigen_hermitian", "spectral_cone.jordan", "eigen_hermitian"),
    ("jordan.rank_one_components", "spectral_cone.jordan", "rank_one_components"),
    ("jordan.second_trace_derivative", "spectral_cone.jordan", "second_trace_derivative"),
    ("jordan.trace_function", "spectral_cone.jordan", "trace_function"),
    ("jordan.von_neumann_entropy", "spectral_cone.jordan", "von_neumann_entropy"),
    ("jordan.check_concavity", "spectral_cone.jordan", "check_concavity"),
    ("jordan.HermitianMatrix.init", "spectral_cone.jordan", "HermitianMatrix.__init__"),
    ("quaternion.to_complex", "spectral_cone.quaternion", "to_complex"),
    ("quaternion.from_complex", "spectral_cone.quaternion", "from_complex"),
    ("quaternion.qmat_mul", "spectral_cone.quaternion", "qmat_mul"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.linprog_feasible = 0
        self._stack = []
        self._undo = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _count_feasible(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.linprog_feasible += bool(res.success)
            return res

        return counted

    def install(self) -> None:
        """Wrap every TRACED entry point wherever spectral_cone holds it."""
        for module in dict.fromkeys(m for _, m, _ in TRACED):
            importlib.import_module(module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spectral_cone" or name.startswith("spectral_cone.")]
        for name, module, path in TRACED:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if name == "scipy.linprog":
                wrapped = self._count_feasible(wrapped)
            if cls:
                self._set(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, **self.arrays())


def self_times(name_id, start, end, parent, n_names: int):
    """Per-name (calls, self seconds) and the total self time of all spans.

    Self time of a span is its duration minus the durations of its direct
    children, so the self times of one call tree sum to its root's duration.
    """
    import numpy as np

    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    own = dur - child
    calls = np.bincount(name_id, minlength=n_names)
    self_s = np.bincount(name_id, weights=own, minlength=n_names)
    return calls, self_s, float(own.sum())
