"""Per-layer tracing from outside the program.

Wraps public functions of ballmaps in every module namespace that binds
them (``criterion`` imports ``ellipsoid_sup_norm`` from ``geometry``, the
package re-exports nearly everything), so nested calls are counted wherever
they come from.  A timed wrapper records calls and self time: its own wall
time minus the wall time of the timed wrappers it called.  A counting
wrapper only counts calls and leaves the time with its caller.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs that get a timed wrapper; "LFMap" is the
# constructor.  Metric names are "<module>.<function>.calls" and ".self_ms".
TIMED = (
    ("criterion", "check"),
    ("criterion", "row_criterion"),
    ("criterion", "oracle_is_selfmap"),
    ("criterion", "krein_check"),
    ("criterion", "classify_fixed_point"),
    ("criterion", "monte_carlo_sup"),
    ("geometry", "image_ellipsoid"),
    ("geometry", "ellipsoid_sup_norm"),
    ("linalg", "svd"),
    ("linalg", "inverse"),
    ("lfm", "LFMap"),
    ("lfm", "from_associated_matrix"),
    ("lfm", "compose"),
    ("lfm", "invert"),
    ("lfm", "evaluate"),
    ("bruhat", "bruhat_factorize"),
    ("bruhat", "factors_to_maps"),
    ("bruhat", "compose_factor_maps"),
    ("quadric", "pullback_map"),
    ("cli", "load_mapfile"),
    ("cli", "serialize"),
)

# Internal steps counted without timing: secular-equation evaluations of the
# sup-norm solve, and origin-orbit runs of the classifier with how many of
# them converged.
COUNTED = (
    ("geometry", "_secular_sum"),
    ("criterion", "_origin_orbit"),
)

# Self time of these functions is also split by the kind of map in the op.
SPLIT = {"criterion.classify_fixed_point": ("interior", "parabolic", "hyperbolic")}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[tuple[str, str | None], float] = {}
        self.converged = 0
        self.kind: str | None = None
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                key = (name, self.kind)
                self_s[key] = self_s.get(key, 0.0) + own

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)
        orbit = name == "criterion._origin_orbit"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if orbit and out[0]:
                self.converged += 1
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target in every loaded ballmaps module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "ballmaps" or k.startswith("ballmaps.")]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, attr in table:
                home = sys.modules.get("ballmaps." + mod_name)
                if home is None:
                    continue
                name = f"{mod_name}.{attr}"
                original = getattr(home, attr)
                if isinstance(original, type):
                    # A class keeps its identity (isinstance checks); wrap its
                    # constructor instead.
                    self._patch(original, "__init__", make(name, original.__init__))
                    continue
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int, ops_by_kind: dict[str, int]) -> dict[str, float]:
        """Per-operation calls and self milliseconds for every target."""
        out = {}
        for mod_name, attr in TIMED:
            name = f"{mod_name}.{attr}"
            total = sum(v for (k, _), v in self.self_s.items() if k == name)
            out[f"{name}.calls"] = self.calls.get(name, 0) / ops
            out[f"{name}.self_ms"] = 1e3 * total / ops
            for kind in SPLIT.get(name, ()):
                count = ops_by_kind.get(kind, 0)
                spent = self.self_s.get((name, kind), 0.0)
                out[f"{name}.self_ms.{kind}"] = 1e3 * spent / count if count else 0.0
        for mod_name, attr in COUNTED:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = self.calls.get(name, 0) / ops
        orbits = self.calls.get("criterion._origin_orbit", 0)
        out["criterion._origin_orbit.converged_share"] = self.converged / orbits if orbits else 0.0
        return out

