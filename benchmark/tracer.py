"""Outside-in tracer: spans at the package's layer boundaries, with no code
inside the package.

``Tracer.install`` replaces layer entry points with timing wrappers and
``Tracer.remove`` puts every original back.  A module-level function is
replaced in every package module that binds it (``integrate_interval`` is
bound separately in quadrature, operators, spaces and bounds); methods are
replaced on their class.  Spans are aggregated per label when they close:
calls, inclusive time, self time (duration minus the time of child spans)
and calls that raised.  Integrand callables handed to the quadrature
engines are wrapped too; their evaluations and points are added to the
enclosing engine's label rather than stored per call, since the bundled
campaign makes millions of them.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

import rough_hausdorff as rh
from rough_hausdorff import bounds, cli, exprs, extremals, functions, harness, operators, quadrature, spaces, weights

QUADRATURE = ("integrate_interval", "integrate_halfline", "integrate_sphere", "integrate_region")
INTEGRAND = "integrand"

# (module defining the function, name, label); ``reentrant`` False means a
# call made from inside the same layer is not a new span (an engine calling
# an engine, c1_signed calling c1, lq_norm calling chunk_lq_norm).
FUNCTIONS = (
    [(quadrature, name, "quadrature." + name, False) for name in QUADRATURE]
    + [(spaces, name, None, False) for name in (
        "lq_norm", "chunk_lq_norm", "central_morrey_norm", "herz_norm", "morrey_herz_norm",
        "two_weight_morrey_norm", "two_weight_herz_norm", "two_weight_morrey_herz_norm")]
    + [(bounds, name, "bounds.constant", False) for name in (
        "c1", "c1_signed", "c2", "c3", "c3_signed", "c4", "c5")]
    + [(bounds, "herz_lower_integral", "bounds.lower_integral", False),
       (bounds, "lower_bound_factor", "bounds.lower_factor", False)]
    + [(extremals, name, "extremals.family", True) for name in (
        "morrey_extremal", "herz_extremal", "morrey_herz_extremal")]
    + [(operators, name, "operators." + name, True) for name in (
        "hardy_apply", "adjoint_hardy_apply", "lipschitz_pointwise_bound")]
    + [(weights, "ball_mass", "weights.ball_mass", True),
       (weights, "annulus_mass", "weights.annulus_mass", True),
       (functions, "omega_norm", "functions.omega_norm", True),
       (exprs, "compile_expression", "exprs.compile", True),
       (cli, "main", "cli.main", True),
       (harness, "run_case", None, True),
       (harness, "check_upper", "harness.check_upper", True),
       (harness, "check_lower", "harness.check_lower", True)]
)

METHODS = (
    (operators.HausdorffOperator, "radial_apply", "operators.radial_apply"),
    (operators.HausdorffOperator, "apply", None),
    (operators.HausdorffOperator, "image", "operators.image"),
    (operators.HausdorffOperator, "sphere_factor", "operators.sphere_factor"),
    (operators.CommutatorOperator, "apply", "operators.nested_apply"),
    (operators.CommutatorOperator, "apply_expanded", "operators.apply_expanded"),
    (operators.CommutatorOperator, "image", "operators.commutator_image"),
    (weights.Weight, "__post_init__", "weights.construct"),
)


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) else 1


class Tracer:
    def __init__(self):
        # label -> [calls, inclusive s, self s, raised]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # quadrature label -> [integrand evaluations, points]
        self.evals = defaultdict(lambda: [0, 0])
        self.divergent_constants = 0
        self.spans = 0
        self._stack = [["root", 0.0, 0.0]]  # frames: [label, start, child time]
        self._patches = []
        self._images = weakref.WeakSet()  # operator outputs, to tell image norms from source norms
        self.missing = set()  # entry points not found, so not traced

    # -- span bookkeeping -------------------------------------------------

    def _layer_of_parent(self) -> str:
        return self._stack[-1][0].split(".", 1)[0]

    def _call(self, label, fn, args, kwargs):
        stack = self._stack
        frame = [label, time.perf_counter(), 0.0]
        stack.append(frame)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            dur = time.perf_counter() - frame[1]
            stack.pop()
            stack[-1][2] += dur
            st = self.stats[label]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if not ok:
                st[3] += 1
            self.spans += 1

    def _wrap(self, fn, label, layer, reentrant=True, on_result=None, traced=None):
        """Span around ``traced`` (default ``fn``) named ``label``, a string or a
        function of (args, kwargs) giving one; a non-reentrant call from
        inside ``layer`` runs ``fn`` untraced."""
        tracer = self
        traced = traced or fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and tracer._layer_of_parent() == layer:
                return fn(*args, **kwargs)
            name = label if isinstance(label, str) else label(args, kwargs)
            out = tracer._call(name, traced, args, kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _integrand(self, g, owner: str):
        tracer = self
        counts = self.evals[owner]

        def wrapped(x, *args, **kwargs):
            counts[0] += 1
            counts[1] += _points(x)
            return tracer._call(INTEGRAND, g, (x,) + args, kwargs)

        return wrapped

    # -- per-layer wrappers -------------------------------------------------

    def _quadrature(self, fn, label):
        """Engine entry point with its integrand argument wrapped."""
        tracer = self
        name = fn.__name__
        slot = 1 if name in ("integrate_sphere", "integrate_region") else 0
        key = "f" if name in ("integrate_halfline", "integrate_region") else "g"

        def traced(*args, **kwargs):
            if len(args) > slot:
                args = list(args)
                args[slot] = tracer._wrap_integrand(name, args[slot], label)
            elif key in kwargs:
                kwargs[key] = tracer._wrap_integrand(name, kwargs[key], label)
            return fn(*args, **kwargs)

        return self._wrap(fn, label, "quadrature", reentrant=False, traced=traced)

    def _wrap_integrand(self, name, g, label):
        if name == "integrate_halfline":  # a RadialIntegrand: wrap its eval
            return quadrature.RadialIntegrand(self._integrand(g.eval, label),
                                              g.exponent_at_zero, g.exponent_at_infinity)
        return self._integrand(g, label)

    def _norm_label(self, args, kwargs):
        f = args[0] if args else kwargs.get("f")
        return "spaces.image_norm" if f in self._images else "spaces.source_norm"

    def _remember_image(self, out):
        self._images.add(out)

    def _count_divergent(self, out):
        if getattr(out, "divergent", False):
            self.divergent_constants += 1

    # -- install / remove ------------------------------------------------------

    def _replace(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == rh.__name__ or key.startswith(rh.__name__ + "."))]
        for home, name, label, reentrant in FUNCTIONS:
            original = getattr(home, name, None)
            if original is None:
                self.missing.add(f"{home.__name__}.{name}")
                continue
            layer = home.__name__.rsplit(".", 1)[-1]
            if home is quadrature:
                wrapper = self._quadrature(original, label)
            elif home is spaces:
                wrapper = self._wrap(original, self._norm_label, layer, reentrant)
            elif home is harness and name == "run_case":
                wrapper = self._wrap(original, lambda a, k: f"harness.case:{(a[0] if a else k['case']).id}", layer)
            elif label == "bounds.constant":
                wrapper = self._wrap(original, label, layer, reentrant, self._count_divergent)
            else:
                wrapper = self._wrap(original, label, layer, reentrant)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for cls, name, label in METHODS:
            original = cls.__dict__.get(name)
            if original is None:
                self.missing.add(f"{cls.__name__}.{name}")
                continue
            if label is None:  # HausdorffOperator.apply: the nested path runs for general inputs
                label = lambda a, k: ("operators.apply" if (a[1] if len(a) > 1 else k["f"]).separable
                                      else "operators.nested_apply")
            on_result = self._remember_image if name == "image" else None
            layer = cls.__module__.rsplit(".", 1)[-1]
            self._replace(cls, name, self._wrap(original, label, layer, True, on_result))
        return self

    def remove(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting ---------------------------------------------------------------

    def metrics(self, case_ids, round_s: float) -> dict:
        st = self.stats

        def of(prefix, field):
            return sum(v[field] for k, v in st.items() if k.startswith(prefix))

        quad_calls = of("quadrature.", 0)
        evals = sum(v[0] for v in self.evals.values())
        points = sum(v[1] for v in self.evals.values())
        radial_calls = st["operators.radial_apply"][0]
        images = st["operators.image"][0]
        m = {
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.integrand_evals": (evals, "count"),
            "quadrature.integrand_points": (points, "count"),
            "quadrature.points_per_eval": (points / evals if evals else 0.0, "points"),
            "quadrature.self_s": (of("quadrature.", 2), "s"),
            "quadrature.integrand_s": (st[INTEGRAND][2], "s"),
            "quadrature.errors": (of("quadrature.", 3), "count"),
            "operators.radial_apply_calls": (radial_calls, "count"),
            "operators.radial_apply_us": (st["operators.radial_apply"][1] / radial_calls * 1e6 if radial_calls else 0.0, "us"),
            "operators.image_calls": (images, "count"),
            "operators.radial_apply_per_image": (radial_calls / images if images else 0.0, "ratio"),
            "operators.self_s": (of("operators.", 2), "s"),
            "operators.nested_apply_calls": (st["operators.nested_apply"][0], "count"),
            "operators.nested_apply_s": (st["operators.nested_apply"][1], "s"),
            "spaces.norm_calls": (of("spaces.", 0), "count"),
            "spaces.self_s": (of("spaces.", 2), "s"),
            "spaces.source_norm_s": (st["spaces.source_norm"][1], "s"),
            "spaces.image_norm_s": (st["spaces.image_norm"][1], "s"),
            "weights.ball_mass_calls": (st["weights.ball_mass"][0], "count"),
            "weights.self_s": (of("weights.", 2), "s"),
            "bounds.constant_calls": (st["bounds.constant"][0], "count"),
            "bounds.constant_s": (st["bounds.constant"][1], "s"),
            "bounds.divergent_count": (self.divergent_constants, "count"),
            "extremals.family_calls": (st["extremals.family"][0], "count"),
            "extremals.family_s": (st["extremals.family"][1], "s"),
            "cli.self_s": (st["cli.main"][2], "s"),
            "exprs.compile_calls": (st["exprs.compile"][0], "count"),
            "exprs.compile_s": (st["exprs.compile"][1], "s"),
            "functions.omega_norm_calls": (st["functions.omega_norm"][0], "count"),
            "functions.omega_norm_s": (st["functions.omega_norm"][1], "s"),
            "harness.check_upper_s": (st["harness.check_upper"][1], "s"),
            "harness.check_lower_s": (st["harness.check_lower"][1], "s"),
        }
        for cid in case_ids:
            m[f"harness.case_s.{cid}"] = (st[f"harness.case:{cid}"][1], "s")
        # traced median round time: against the untraced wall_s it gives the tracing overhead
        m["trace.round_s"] = (round_s, "s")
        m["trace.spans"] = (self.spans, "count")
        return m
