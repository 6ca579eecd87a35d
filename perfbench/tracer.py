"""Call spans around the public functions of each fanning_lab module.

The wrappers are installed from outside the package, under every name the
package looks a function up by: the module attribute, which is also the
module global that same-module calls resolve (`metrics.energy_jet` inside
`spray_data`), and the class attribute for the `OrbitData` methods.  No
module of the package binds these functions with `from ... import`, so
that covers every call.  Wrappers pass arguments and return values through
unchanged.

Spans stay in memory as (name, start, end, parent index, job id) and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import weakref
from collections import Counter, defaultdict

# layer (module) -> public functions whose spans are recorded
LAYERS = {
    "cli": ["run_config"],
    "jacobi": ["transport", "jacobi_frame", "flag_curvature",
               "riemann_oracle", "OrbitData.state", "OrbitData.frame_data"],
    "numkit": ["rk4_step", "rk_integrate", "fiber_hessian",
               "fornberg_weights"],
    "metrics": ["spray_data", "energy_jet", "fundamental_tensor",
                "legendre_inverse", "omega_matrix"],
    "fanning": ["invariants", "pq_coefficients", "fundamental_endomorphism",
                "horizontal_data"],
    "reduction": ["submersion_curvature", "coisotropic_setup",
                  "reduce_curve", "oneill_endomorphism"],
    "deformations": ["projective_curvature_rhs", "projective_deform",
                     "katok_metric"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# derived per-layer metrics: name -> unit
DERIVED = {
    "jacobi.transport.read_frac": "ratio",
    "jacobi.OrbitData.state.offgrid_calls": "count",
    "metrics.spray_data.calls_per_row": "calls/row",
    "numkit.rk4_step.calls_per_row": "calls/row",
    "fanning.block_solves_per_invariants": "solves/call",
}
_BLOCK_SOLVES = ("fanning.pq_coefficients", "fanning.fundamental_endomorphism",
                 "fanning.horizontal_data")


class Tracer:
    """Records spans while installed; `job` tags the spans of one job."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []
        self._stack = []
        self.spans = []
        self.job = ""
        # id(orbit) -> (serial, weak ref); per serial, the nodes read
        self._orbits = {}
        self._reads = []
        self.states_stored = 0
        self.offgrid = 0

    # -- installation --------------------------------------------------
    def install(self):
        for mod, fns in LAYERS.items():
            module = self._modules[mod]
            for fn in fns:
                owner, attr = module, fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(module, cls)
                orig = getattr(owner, attr)
                self._saved.append((owner, attr, orig))
                # the orbit bookkeeping stays outside the timed span
                span = self._wrap(f"{mod}.{fn}", orig)
                setattr(owner, attr, self._counted(f"{mod}.{fn}", span))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
        return traced

    def _serial(self, orbit):
        serial, ref = self._orbits.get(id(orbit), (None, None))
        if ref is None or ref() is not orbit:
            serial = len(self._reads)
            self._reads.append(set())
            self._orbits[id(orbit)] = (serial, weakref.ref(orbit))
            self.states_stored += len(orbit.states)
        return serial

    def _counted(self, name, fn):
        """Count distinct stored states read, and off-grid re-integrations."""
        if name == "jacobi.transport":
            @functools.wraps(fn)
            def transport(*args, **kwargs):
                orbit = fn(*args, **kwargs)
                self._serial(orbit)
                return orbit
            return transport
        if name == "jacobi.OrbitData.state":
            @functools.wraps(fn)
            def state(orbit, t):
                out = fn(orbit, t)
                serial = self._serial(orbit)
                ts = orbit.ts
                dt = ts[1] - ts[0] if len(ts) > 1 else 1.0
                idx = min(max(int(round((t - ts[0]) / dt)), 0), len(ts) - 1)
                if out is orbit.states[idx]:
                    self._reads[serial].add(idx)
                else:
                    self.offgrid += 1
                return out
            return state
        return fn

    # -- results -------------------------------------------------------
    def summary(self, rows: int, time_scale: float = 1.0) -> dict:
        """Per-layer counts and self times of the recorded spans.

        Self times are multiplied by time_scale (see calibrate.py).
        """
        calls = Counter()
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[k]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name] * time_scale
        reads = sum(len(v) for v in self._reads)
        out["jacobi.transport.read_frac"] = (
            reads / self.states_stored if self.states_stored else 0.0)
        out["jacobi.OrbitData.state.offgrid_calls"] = self.offgrid
        out["metrics.spray_data.calls_per_row"] = \
            calls["metrics.spray_data"] / rows
        out["numkit.rk4_step.calls_per_row"] = calls["numkit.rk4_step"] / rows
        inv = calls["fanning.invariants"]
        out["fanning.block_solves_per_invariants"] = (
            sum(calls[n] for n in _BLOCK_SOLVES) / inv if inv else 0.0)
        return out


def write_spans(path, tracers) -> None:
    """Write the spans of several tracers as one gzipped JSON-lines file.

    Each line is [name, start, end, parent line or -1, job id].
    """
    offset = 0
    with gzip.open(path, "wt") as fh:
        for tracer in tracers:
            for name, t0, t1, parent, job in tracer.spans:
                up = parent + offset if parent >= 0 else -1
                fh.write(json.dumps([name, t0, t1, up, job]) + "\n")
            offset += len(tracer.spans)
