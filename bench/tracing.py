"""Tracing from outside the program: wrap nlcavity's public functions in the
module namespaces that call them, record spans and counters in memory, and
turn them into per-layer metrics when the run ends.

Nothing under src/ is changed. A function imported by name into another
module (`from .fock import coherent_state` in cli) is patched at every such
lookup site; the sites are listed below and checked before patching, so a
rename or a new import fails the traced run loudly instead of silently
zeroing a layer metric.

Layer metric -> end-to-end metric it should move, and on which workload:

  cli.self_s, cli.write_s, cli.values_formatted, cli.bytes_written
      -> op_p50_s on cat-figure (formatting and writing ~90k values per
         qfunc); about 0 on large-field, which calls the library directly.
  phasespace.q_function_s, .overlap_terms, .overlap_terms_per_s,
  phasespace.cat_diagnostics_s, .cat_fit_evals
      -> op_p50_s and ops_per_s on cat-figure; a faster Q kernel must not
         slow the wide-grid, large-cutoff ops of large-field.
  search.two_atom_s, .two_atom_self_s, .two_atom_grid_points,
  search.polish_evals, .seeds, .solutions_per_seed
      -> op_p90_s and peak_rss_mb on gate-search; no effect elsewhere.
  search.qudit_s, .pattern_error_calls, .pattern_error_s, .qudit_hit_rate,
  search.ns_candidates_s
      -> op_p50_s and ops_per_s on gate-search, whose median lands on the
         exhausting qudit-theta requests (p90 lands on the two-atom ones).
  fock.expm_s, .expm_calls, .expm_dim3, .displacement_s, .coherent_state_s,
  atomfield.joint_evolution_s, .joint_dim3, .upsilon_factors_calls,
  universality.residual_scaling_s, .displaced_generator_s,
  universality.series_generator_s
      -> ops_per_s on large-field only.
  labparams.calls, labparams.s
      -> expected negligible everywhere; recorded so no layer goes unmeasured.
  trace.overhead_s
      -> traced minus untraced wall time of the same operations.

Every time and count is a mean per traced operation; overlap_terms_per_s,
qudit_hit_rate and solutions_per_seed are ratios over the whole run.
"""

import functools
import inspect
import json
import time

import numpy as np

# Functions that get a span: "<home module>.<name>" -> the other modules
# that look the function up under the same name.
SPANS = {
    "cli.main": (),
    "cli.write_csv": (),
    "cli.write_json": (),
    "fock.coherent_state": ("cli", "nlcavity"),
    "fock.displacement": ("universality", "nlcavity"),
    "fock.expm_antihermitian": ("atomfield", "universality", "nlcavity"),
    "atomfield.joint_evolution": ("nlcavity",),
    "search.ns_tau_candidates": ("nlcavity",),
    "search.two_atom_search": ("nlcavity",),
    "search.qudit_theta_search": ("nlcavity",),
    "phasespace.q_function": ("nlcavity",),
    "phasespace.cat_diagnostics": ("nlcavity",),
    "universality.residual_scaling": ("cli", "nlcavity"),
    "universality.displaced_generator": ("nlcavity",),
    "universality.series_generator": ("nlcavity",),
}

# scipy's optimizer, patched in search only: the same function object also
# serves the cat fit in phasespace.
FOREIGN_SPANS = ("search.minimize",)

# Hot calls are counted, not spanned: name -> (other lookup sites, timed).
COUNTERS = {
    "cli.fmt": ((), False),
    "search.pattern_error": (("nlcavity",), True),
    "search.two_atom_amplitudes": (("nlcavity",), False),
    "atomfield.upsilon_factors": ((), False),
    "fock.fidelity": (("phasespace", "nlcavity"), False),
    "labparams.kappa": (("nlcavity",), True),
    "labparams.interaction_time": (("nlcavity",), True),
}


def _two_atom_grid_points(a):
    step = a["step"]
    (lo1, hi1), (lo2, hi2) = a["tau1_range"], a["tau2_range"]
    return int(np.arange(lo1, hi1 + step / 2.0, step).size
               * np.arange(lo2, hi2 + step / 2.0, step).size)


# Work computed from a call's bound arguments, and facts read off its result.
_ARG_ATTRS = {
    "fock.expm_antihermitian": lambda a: {"dim3": (a["K"].cutoff + 1) ** 3},
    "atomfield.joint_evolution": lambda a: {"dim3": (2 * (a["cutoff"] + 1)) ** 3},
    "search.two_atom_search": lambda a: {"grid_points": _two_atom_grid_points(a)},
    "phasespace.q_function": lambda a: {
        "overlap_terms": a["resolution"] ** 2 * (a["state_raw"].cutoff + 1)},
}
_RESULT_ATTRS = {
    "search.two_atom_search": lambda r: {"solutions": len(r)},
    "search.qudit_theta_search": lambda r: {"hit": 1},
    "search.minimize": lambda r: {"nfev": int(r.nfev)},
}

PER_LAYER = (
    ("cli.self_s", "s/op"),
    ("cli.write_s", "s/op"),
    ("cli.values_formatted", "count/op"),
    ("cli.bytes_written", "bytes/op"),
    ("phasespace.q_function_s", "s/op"),
    ("phasespace.overlap_terms", "count/op"),
    ("phasespace.overlap_terms_per_s", "1/s"),
    ("phasespace.cat_diagnostics_s", "s/op"),
    ("phasespace.cat_fit_evals", "count/op"),
    ("search.two_atom_s", "s/op"),
    ("search.two_atom_self_s", "s/op"),
    ("search.two_atom_grid_points", "count/op"),
    ("search.polish_evals", "count/op"),
    ("search.seeds", "count/op"),
    ("search.solutions_per_seed", "ratio"),
    ("search.qudit_s", "s/op"),
    ("search.pattern_error_calls", "count/op"),
    ("search.pattern_error_s", "s/op"),
    ("search.qudit_hit_rate", "ratio"),
    ("search.ns_candidates_s", "s/op"),
    ("fock.expm_s", "s/op"),
    ("fock.expm_calls", "count/op"),
    ("fock.expm_dim3", "count/op"),
    ("fock.displacement_s", "s/op"),
    ("fock.coherent_state_s", "s/op"),
    ("atomfield.joint_evolution_s", "s/op"),
    ("atomfield.joint_dim3", "count/op"),
    ("atomfield.upsilon_factors_calls", "count/op"),
    ("universality.residual_scaling_s", "s/op"),
    ("universality.displaced_generator_s", "s/op"),
    ("universality.series_generator_s", "s/op"),
    ("labparams.calls", "count/op"),
    ("labparams.s", "s/op"),
    ("trace.overhead_s", "s/op"),
)


class CoverageError(RuntimeError):
    """A wrapped name is gone, or is looked up somewhere not listed."""


class Tracer:
    """Spans and counters of one run, kept in memory.

    `modules` maps short names ("nlcavity", "cli", "fock", ...) to the
    imported modules. Construction checks coverage and prepares the
    wrappers; install() and uninstall() swap them in and out."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, parent index, op id, start, end, attrs]
        self.counts = {}  # name -> [calls, seconds]
        self.op = None
        self._stack = []
        self._patches = []
        for key, sites in SPANS.items():
            self._add(key, sites, self._span_wrapper)
        for key in FOREIGN_SPANS:
            home, name = key.split(".")
            fn = self._get(key)
            self._patches.append((self.modules[home], name, fn, self._span_wrapper(key, fn)))
        for key, (sites, timed) in COUNTERS.items():
            self.counts[key] = [0, 0.0]
            make = self._timed_counter if timed else self._counter
            self._add(key, sites, make)

    def _get(self, key):
        home, name = key.split(".")
        fn = getattr(self.modules[home], name, None)
        if not callable(fn):
            raise CoverageError(f"traced name {key} no longer exists")
        return fn

    def _add(self, key, sites, make):
        home, name = key.split(".")
        fn = self._get(key)
        expected = {(home, name)} | {(site, name) for site in sites}
        found = {
            (short, attr)
            for short, mod in self.modules.items()
            for attr, value in vars(mod).items()
            if value is fn
        }
        if found != expected:
            raise CoverageError(
                f"{key} is looked up at {sorted(found)}, expected {sorted(expected)}; "
                "update the lookup sites in bench/tracing.py")
        wrapper = make(key, fn)
        for short, attr in sorted(expected):
            self._patches.append((self.modules[short], attr, fn, wrapper))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _span_wrapper(self, key, fn):
        signature = inspect.signature(fn)
        arg_attrs = _ARG_ATTRS.get(key)
        result_attrs = _RESULT_ATTRS.get(key)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if arg_attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = arg_attrs(bound.arguments)
            record = [key, stack[-1] if stack else -1, self.op, 0.0, 0.0, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[4] = time.perf_counter()
                attrs["error"] = type(exc).__name__
                raise
            else:
                record[4] = time.perf_counter()
                if result_attrs is not None:
                    attrs.update(result_attrs(result))
                return result
            finally:
                stack.pop()

        return wrapper

    def _counter(self, key, fn):
        count = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_counter(self, key, fn):
        count = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                count[0] += 1
                count[1] += time.perf_counter() - start

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def layer_metrics(trace, n_ops, overhead_s, bytes_written):
    """Per-layer metrics from a dumped trace, as {name: value}."""
    spans, counts = trace["spans"], trace["counts"]
    child = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def total(name, field=None):
        return sum(
            (end - start) if field is None else attrs.get(field, 0)
            for span_name, _, _, start, end, attrs in spans if span_name == name)

    def self_time(name):
        return sum(end - start - child[i]
                   for i, (span_name, _, _, start, end, _) in enumerate(spans)
                   if span_name == name)

    def calls(name):
        return sum(1 for span in spans if span[0] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    two_atom = {i for i, span in enumerate(spans) if span[0] == "search.two_atom_search"}
    polish = [span for span in spans if span[0] == "search.minimize" and span[1] in two_atom]
    q_s = total("phasespace.q_function")
    totals = {
        "cli.self_s": self_time("cli.main"),
        "cli.write_s": total("cli.write_csv") + total("cli.write_json"),
        "cli.values_formatted": counts["cli.fmt"][0],
        "cli.bytes_written": bytes_written,
        "phasespace.q_function_s": q_s,
        "phasespace.overlap_terms": total("phasespace.q_function", "overlap_terms"),
        "phasespace.cat_diagnostics_s": total("phasespace.cat_diagnostics"),
        "phasespace.cat_fit_evals": counts["fock.fidelity"][0],
        "search.two_atom_s": total("search.two_atom_search"),
        "search.two_atom_self_s": self_time("search.two_atom_search"),
        "search.two_atom_grid_points": total("search.two_atom_search", "grid_points"),
        "search.polish_evals": sum(span[5].get("nfev", 0) for span in polish),
        "search.seeds": len(polish),
        "search.qudit_s": total("search.qudit_theta_search"),
        "search.pattern_error_calls": counts["search.pattern_error"][0],
        "search.pattern_error_s": counts["search.pattern_error"][1],
        "search.ns_candidates_s": total("search.ns_tau_candidates"),
        "fock.expm_s": total("fock.expm_antihermitian"),
        "fock.expm_calls": calls("fock.expm_antihermitian"),
        "fock.expm_dim3": total("fock.expm_antihermitian", "dim3"),
        "fock.displacement_s": total("fock.displacement"),
        "fock.coherent_state_s": total("fock.coherent_state"),
        "atomfield.joint_evolution_s": total("atomfield.joint_evolution"),
        "atomfield.joint_dim3": total("atomfield.joint_evolution", "dim3"),
        "atomfield.upsilon_factors_calls": counts["atomfield.upsilon_factors"][0],
        "universality.residual_scaling_s": total("universality.residual_scaling"),
        "universality.displaced_generator_s": total("universality.displaced_generator"),
        "universality.series_generator_s": total("universality.series_generator"),
        "labparams.calls": counts["labparams.kappa"][0] + counts["labparams.interaction_time"][0],
        "labparams.s": counts["labparams.kappa"][1] + counts["labparams.interaction_time"][1],
        "trace.overhead_s": overhead_s,
    }
    out = {name: ratio(value, n_ops) for name, value in totals.items()}
    out["phasespace.overlap_terms_per_s"] = ratio(totals["phasespace.overlap_terms"], q_s)
    out["search.solutions_per_seed"] = ratio(
        total("search.two_atom_search", "solutions"), len(polish))
    out["search.qudit_hit_rate"] = ratio(
        total("search.qudit_theta_search", "hit"), calls("search.qudit_theta_search"))
    return out
