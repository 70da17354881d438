"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into an endless sequence of operations; the
client runs them in order, one at a time (closed loop, one client), until
the run's time is up. The program only ever sees the generated arguments.

Input sizes are drawn from additive-recurrence (Weyl) sequences with a
seeded start, so any prefix of a run covers its size range evenly. Runs of
different seeds and lengths then see the same mix of cheap and costly
operations, and their medians agree, while every seed still gives
different inputs.

Why these workloads:

cat-figure   CLI `qfunc --out` on the README grid -15:15:301 followed by
             `cat-diagnose`, for |alpha| in [8, 12] with a random phase and
             theta a multiple of pi. Nearly all work is the phasespace
             overlap kernel (many grid points, small cutoff) and the CLI
             formatting and writing of ~90k values into CSV and JSON.
             search and dense fock operators do no work.
gate-search  CLI search requests: `ns-search --max-tau`, `ns-search
             --two-atom` on windows the size of the default one (5.9 M grid
             points), and `qudit-theta` that either hits late in the theta
             family or exhausts it (exit 2). Each ns-search request ends
             with `params` converting the times it found to lab seconds.
             Nearly all work is in search; the two-atom grid also sets the
             process's peak memory. Output is small and phasespace does no
             work.
large-field  Library calls on big Fock spaces: `residual_scaling` (dense
             eigh up to dimension ~680), `joint_evolution` +
             `conditional_block` at cutoff 200-400, and coherent_state +
             q_function + cat_diagnostics at |alpha| in [20, 40] on a coarse
             100x100 grid reaching |beta|^2/2 > 745. phasespace is used the
             other way round from cat-figure (few points, large cutoff), and
             fock/atomfield dense operators do most of the work. |alpha| is
             kept <= 40: the default cutoff grows as |alpha|^2 and the
             overlap kernel allocates grid-row x cutoff complex values.
"""

import itertools
import math
import random

WORKLOADS = ("cat-figure", "gate-search", "large-field")

# Irrational steps for the Weyl sequences, one per drawn dimension.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))

# qudit-theta requests whose first hit in the family
# theta_l = (2l+1) pi / sqrt(2) comes late, as (n_max, tolerance, l of the
# first hit). Sorted by l, i.e. by cost.
QUDIT_LATE_HITS = (
    (4, 0.002, 6676),
    (5, 0.02, 7410),
    (3, 0.001, 8745),
    (6, 0.1, 12371),
    (7, 0.1, 12371),
    (8, 0.1, 12371),
    (9, 0.15, 12371),
    (3, 0.0005, 12487),
    (5, 0.016, 14952),
    (10, 0.28, 20104),
    (5, 0.012, 20763),
    (10, 0.2, 28923),
    (12, 0.45, 41395),
)

# The family has no member within 0.01 for n_max >= 10: the search scans
# all ~45k members, then a dense fallback, and exits 2.
QUDIT_EXHAUST_N = (10, 20)
QUDIT_EXHAUST_TOL = 0.01


class _Weyl:
    """u_k = frac(u_0 + k a), with u_0 drawn from the seed."""

    def __init__(self, rng, step):
        self.start = rng.random()
        self.step = step

    def __call__(self, k):
        return (self.start + k * self.step) % 1.0


def _weyls(rng, count):
    return [_Weyl(rng, step) for step in _STEPS[:count]]


def _alpha(r, phase):
    return complex(r * math.cos(phase), r * math.sin(phase))


def _complex_arg(z):
    return f"{z.real:.9f}{z.imag:+.9f}j"


def cat_figure(seed):
    rng = random.Random(seed)
    size, phase = _weyls(rng, 2)
    for k in itertools.count():
        r = 8.0 + 4.0 * size(k)
        alpha_arg = _complex_arg(_alpha(r, 2.0 * math.pi * phase(k)))
        alpha = complex(alpha_arg)
        theta = math.pi * (round(r) + rng.choice((-1, 0, 1)))
        common = ["--alpha", alpha_arg, "--theta", repr(theta)]
        yield {
            "round": k,
            "kind": "figure",
            "steps": [
                ["qfunc", *common, "--grid=-15:15:301", "--out", "{out}"],
                ["cat-diagnose", *common],
            ],
            "alpha": [alpha.real, alpha.imag],
            "theta": theta,
        }


def _freq(mhz):
    return f"2pi*{mhz:.6f}MHz"


def _params_argv(rng):
    g, omega = rng.uniform(3.0, 6.0), rng.uniform(20.0, 40.0)
    # Delta above Omega keeps the dispersive formula in its validity regime.
    delta = omega * rng.uniform(1.2, 2.0)
    return ["params", "--g", _freq(g), "--omega", _freq(omega),
            "--delta", _freq(delta), "--format", "json"]


def gate_search(seed):
    """One round: ns-search followed by params for its best time; a late-hit
    and an exhausting qudit-theta request; two two-atom searches, each
    followed by params for both of its times. Sorted by cost that is one
    cheap request, two qudit-theta and two two-atom ones, so the median
    lands on the exhausting qudit-theta requests and p90 on the two-atom
    searches, never on a boundary between kinds."""
    rng = random.Random(seed)
    max_tau, a1, b1, a2, b2, hit, ex = _weyls(rng, 7)
    for r in itertools.count():
        tau_max = 250.0 + 4750.0 * max_tau(r)
        yield {"round": r, "kind": "ns-search", "max_tau": tau_max,
               "steps": [["ns-search", "--max-tau", repr(tau_max), "--out", "{out}",
                          "--format", "json"], _params_argv(rng)],
               "tau_from": [None, ["table1.json", "tau"]]}
        n_hit, tol_hit, _ = QUDIT_LATE_HITS[int(hit(r) * len(QUDIT_LATE_HITS))]
        lo, hi = QUDIT_EXHAUST_N
        n_ex = lo + int(ex(r) * (hi - lo + 1))
        for n_max, tol in ((n_hit, tol_hit), (n_ex, QUDIT_EXHAUST_TOL)):
            yield {"kind": "qudit", "n_max": n_max, "tolerance": tol,
                   "steps": [["qudit-theta", "--n-max", str(n_max), "--tolerance",
                              repr(tol), "--format", "json"]]}
        for wa, wb in ((a1, b1), (a2, b2)):
            a, b = round(1.0 + 39.0 * wa(r), 2), round(1.0 + 150.0 * wb(r), 2)
            yield {"kind": "two-atom", "window": [[a, a + 59.0], [b, b + 249.0]],
                   "steps": [["ns-search", "--two-atom", "--tau1-range", f"{a!r}:{a + 59.0!r}",
                              "--tau2-range", f"{b!r}:{b + 249.0!r}", "--out", "{out}",
                              "--format", "json"], _params_argv(rng), _params_argv(rng)],
                   "tau_from": [None, ["two_atom.json", "tau1"], ["two_atom.json", "tau2"]]}


def large_field(seed):
    """One round: a residual_scaling call over three |alpha| (one from each
    of three disjoint bands of [4, 20]), a joint evolution, and a
    wide-grid Q-function with cat diagnostics. Round 0 takes the top of
    every size range, so each run reaches the workload's peak memory
    whatever its length."""
    rng = random.Random(seed)
    sizes = _weyls(rng, 5)
    tau, phase = _weyls(rng, 2)
    for r in itertools.count():
        lo, mid, hi, cut, size = (1.0,) * 5 if r == 0 else (u(r) for u in sizes)
        yield {"round": r, "kind": "residual",
               "alphas": [4.0 + 4.0 * lo, 10.0 + 4.0 * mid, 16.0 + 4.0 * hi]}
        yield {"kind": "joint", "cutoff": 200 + round(200 * cut),
               "tau": 1.0 + 19.0 * tau(r)}
        radius = 20.0 + 20.0 * size
        alpha = _alpha(radius, 2.0 * math.pi * phase(r))
        yield {"kind": "phase", "alpha": [alpha.real, alpha.imag],
               "theta": math.pi * round(radius), "half_width": radius + 8.0,
               "resolution": 100}


GENERATORS = {"cat-figure": cat_figure, "gate-search": gate_search,
              "large-field": large_field}


def operations(workload, seed):
    """Endless, seed-determined operation specs for one workload, each with
    a unique id and the index of the round it belongs to. A run stops only
    between rounds, so every run has the same mix of operation kinds."""
    round_ = 0
    for i, op in enumerate(GENERATORS[workload](seed)):
        round_ = op.setdefault("round", round_)
        op.setdefault("id", f"{i:05d}-{op['kind']}")
        yield op
