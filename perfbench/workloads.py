"""The benchmark's workloads: seeded inputs, one fixed unit of work each, and
the checks that decide whether the unit's outputs are right.

Each workload is a closed loop with one client: the next item starts when
the previous one has returned.  Inputs come from the workload seed alone,
and the library receives only the generated inputs.  Every library call
goes through a module attribute (``harness.sweep_modulations``, never a
name imported into this file), so the traced run's wrappers see it.

Constructors generate every input, members included, so the set-up time
covers input generation.  Costs below were measured on a 2-CPU x86-64
machine (Python 3.11, numpy 2.4, scipy 1.17); ``nominal_unit_s`` sizes how
many units one run repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import sys
import time
import traceback
from typing import Callable, List, Optional

import numpy as np

from curveflow import cli, curves, fixtures, gridfn, harness, kernel, operators

from spans import domination_sigmas

FAMILY_SEED_RANGE = 2**31


class Tally:
    """Latency and outcome of every item and check attempted in a run."""

    def __init__(self):
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0

    def item(self, label: str, fn: Callable, check: Callable, reraise: bool = False):
        """Time fn(); then, outside the timed interval, check its output.

        check returns a list of problems; any problem, or an exception from
        fn or check, fails the item.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.latencies.append(time.perf_counter() - t0)
            self.failed += 1
            print(f"FAILED {label}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            if reraise:
                raise
            return None
        self.latencies.append(time.perf_counter() - t0)
        self._judge(label, lambda: check(out))
        return out

    def check(self, label: str, fn: Callable[[], List[str]]) -> None:
        """An untimed check: fn returns a list of problems."""
        self.attempted += 1
        self._judge(label, fn)

    def _judge(self, label: str, fn: Callable[[], List[str]]) -> None:
        try:
            problems = fn()
        except Exception:
            problems = ["raised"]
            traceback.print_exc(file=sys.stderr)
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def _finite(name: str, values) -> List[str]:
    arr = np.asarray(values)
    return [] if np.all(np.isfinite(arr)) else [f"{name} has non-finite entries"]


def _family_seed(rng) -> int:
    return int(rng.integers(FAMILY_SEED_RANGE))


# ---------------------------------------------------------------------------
# the classical-limit oracle, carried by every workload


ORACLE_POINTS = (1.5, 2.0, 5.0)
ORACLE_GATE = 1e-2  # acceptance 3, coarse level


def oracle_error() -> float:
    """Largest |T 1_(-1,1)(x) - ln((x+1)/(x-1))| at x = 1.5, 2, 5.

    With u = 0 the modulated transform is the truncated Hilbert transform,
    whose value on an indicator has this closed form.  Grid, step and
    quadrature are acceptance 3's coarse level; edge samples carry 1/2.
    """
    step = 1e-2
    xs = -2.0 + step * np.arange(801)
    vals = np.where(np.abs(xs) < 1.0, 1.0, 0.0)
    vals[np.isclose(np.abs(xs), 1.0)] = 0.5
    f = gridfn.GridFunction1D(-2.0, step, vals)
    out = operators.carleson_apply(
        f, gridfn.ModulationField.constant(0.0), curves.builtin_curve("power", 2.0),
        operators.PVConfig(step, 8.0, step),
    )
    return max(
        abs(out.values[int(round((x + 2.0) / step))].real - math.log((x + 1.0) / (x - 1.0)))
        for x in ORACLE_POINTS
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    item = ""
    nominal_unit_s = 1.0
    min_units = 1

    @classmethod
    def units(cls, seconds: float) -> int:
        """Whole units per run: about `seconds` of work on the sizing machine."""
        return max(round(seconds / cls.nominal_unit_s), cls.min_units)

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def certify(self) -> dict:
        """check_conditions on every curve the workload integrates along."""
        return {c.label: curves.check_conditions(c).all_pass for c in self.curves}

    def prepare(self, tally: Tally) -> None:
        """Untimed work before the units: run-level checks and references."""

    def run_unit(self, tally: Tally) -> None:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError


def _certified(cert: dict, label: str) -> List[str]:
    return [] if cert.get(label) else [f"curve {label} fails check_conditions"]


class Sweep(Workload):
    """Modulation sweep of carleson_apply on the parabola (acceptance 10)."""

    name = "sweep"
    why = ("kernel assembly is 99.9% of this path and 5 of every 6 kernel "
           "builds repeat, so plan reuse and |u|-independent kernels show here")
    item = "one carleson_apply on one family member"
    nominal_unit_s = 45.0

    GRID = (-10.0, 10.0, 2001)
    MEMBERS = 3
    P_VALUES = (4.0 / 3.0, 2.0, 4.0)
    CONTRAST_P = 2.0
    # log10 |u| rungs per modulation; a modulation with r rungs has r - 1
    # breakpoints.  The 2e7-node budget binds on the parabola above about
    # 1.94e5, so the first modulation carries one capped group in every
    # seed.  Item latencies then fall in blocks of like items whose order is
    # the same for every seed: 9 light flat-curve items, 27 light parabola
    # items at about 60 ms (the median lands inside these; a 10^3.5 rung
    # keeps them assembly-bound rather than overhead-bound), 6 flat items
    # of the two dear modulations, 9 parabola items at 10^4.5 (the tail
    # lands inside these) and 9 capped parabola items.
    LADDER = ((5.35, -6.0, 0.0), (4.5, -3.0, 2.0), (3.5, -5.0, -1.0, 1.0),
              (3.5, -4.0, -2.0), (3.5, 2.0))
    # below the cap kernel cost grows linearly with |u|: jitter of +-1.2%
    # varies the inputs without varying the cost
    JITTER_DEX = 0.005
    MIN_GAP = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parabola = curves.builtin_curve("power", 2.0)
        self.line = curves.builtin_curve("power", 1.0)
        self.curves = [self.parabola, self.line]
        self.cfg = operators.PVConfig(1e-2, 8.0, 1e-2)
        self.family = harness.TestFunctionFamily(
            "gaussians", self.MEMBERS, _family_seed(self.rng), self.GRID)
        self.members = self.family.members()
        self.modulations = [self._modulation(r) for r in self.LADDER]
        self.cert = self.certify()
        self.dispersions = {}

    def _modulation(self, rungs) -> gridfn.ModulationField:
        nb = len(rungs) - 1
        lo, hi = -8.0, 8.0 - (nb - 1) * self.MIN_GAP
        bps = np.sort(self.rng.uniform(lo, hi, size=nb)) + self.MIN_GAP * np.arange(nb)
        dex = np.asarray(rungs)[self.rng.permutation(len(rungs))]
        dex = dex + self.rng.uniform(-self.JITTER_DEX, self.JITTER_DEX, size=dex.size)
        signs = self.rng.choice([-1.0, 1.0], size=dex.size)
        return gridfn.ModulationField.piecewise(bps.tolist(), (signs * 10.0 ** dex).tolist())

    def prepare(self, tally):
        # the flat line fails condition (iii) by design: it is the ungated
        # contrast, so only the parabola's certificate is checked
        tally.check("certify parabola", lambda: _certified(self.cert, self.parabola.label))

    def _builder(self, curve, tally):
        cfg = self.cfg

        def build(u):
            def op(g):
                return tally.item(
                    "carleson_apply",
                    lambda: operators.carleson_apply(g, u, curve, cfg),
                    lambda out: _finite("carleson_apply output", out.values),
                    reraise=True,
                )
            return op

        return build

    def _sweep(self, curve, p, tally) -> List[str]:
        rep = harness.sweep_modulations(
            self._builder(curve, tally), self.modulations, self.family, p)
        self.dispersions[f"{curve.label} p={p:.4g}"] = rep.aggregate["dispersion"]
        return _finite("norms", rep.aggregate["norms"])

    def run_unit(self, tally):
        runs = [(self.parabola, p) for p in self.P_VALUES]
        runs.append((self.line, self.CONTRAST_P))
        for curve, p in runs:
            # an item that raises stops its sweep; the sweep then fails too
            tally.check(f"sweep {curve.label} p={p:.4g}", lambda: self._sweep(curve, p, tally))

    def _levels(self):
        xs = self.members[0].xs()
        return [np.unique(u.eval(xs)) for u in self.modulations]

    def properties(self):
        levels = self._levels()
        groups = sum(lv.size for lv in levels)
        builds = groups * self.MEMBERS * (len(self.P_VALUES) + 1)
        distinct = 2 * groups  # one per (curve, u value) at fixed cfg and step
        return {
            "grid_points": self.GRID[2],
            "members": self.MEMBERS,
            "p_values": [round(p, 6) for p in self.P_VALUES],
            "contrast": f"power:1 at p={self.CONTRAST_P}",
            "pv_config": [self.cfg.epsilon, self.cfg.radius, self.cfg.substep],
            "u_ladder_log10": [list(r) for r in self.LADDER],
            "u_levels": [[float(v) for v in lv] for lv in levels],
            "breakpoints": [len(r) - 1 for r in self.LADDER],
            "kernel_builds_per_unit": builds,
            "distinct_kernels_per_unit": distinct,
            "repeated_kernel_share": 1.0 - distinct / builds,
            "dispersions": self.dispersions,
        }


class Domination(Workload):
    """Pointwise domination by shifted maximal averages (acceptance 12)."""

    name = "domination"
    why = ("the row-wise shifted maximal takes nearly all the time and almost "
           "every sigma is distinct, with no 1D modulated assembly")
    item = "one (member, k) domination evaluation"
    nominal_unit_s = 3.7
    # item cost falls with k; with 6 units both the median and the tail
    # (rank 20 of 30) sit inside a block of 6 like items
    min_units = 6

    GRID = ((-40.0, 40.0, 161), (-524.25, 524.25, 700))
    L = -1
    K = tuple(range(0, 5))
    TAUS = tuple(range(-8, 9))
    # acceptance 12 runs 2 members at m_cap 1024 (160 s); one member at
    # m_cap 2 keeps the same per-call work in a unit of a few seconds
    M_CAP = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parabola = curves.builtin_curve("power", 2.0)
        self.curves = [self.parabola]
        self.u = gridfn.ModulationField.constant(1.0)
        self.family = harness.TestFunctionFamily(
            "gaussians", 1, _family_seed(self.rng), self.GRID)
        self.members = self.family.members()
        self.cert = self.certify()

    def prepare(self, tally):
        tally.check("certify parabola", lambda: _certified(self.cert, self.parabola.label))

    def _check(self, rep) -> List[str]:
        problems = []
        if not rep.verdicts.get("zero_unbounded_points"):
            problems.append("zero_unbounded_points verdict fails")
        problems += _finite("ratios", [r["ratio"] for r in rep.per_sample])
        return problems

    def run_unit(self, tally):
        for k in self.K:
            tally.item(
                f"domination k={k}",
                lambda: harness.domination_experiment(
                    self.parabola, self.u, self.family, [k], self.L, self.TAUS,
                    m_cap=self.M_CAP),
                self._check,
            )

    def properties(self):
        sig = []
        for k in self.K:
            geom = harness.covering_geometry(self.parabola, 1.0, self.L, k, 0)
            sig += domination_sigmas(self.parabola, geom, self.TAUS, self.M_CAP)
        return {
            "grid": [list(a) for a in self.GRID],
            "members": 1,
            "l": self.L,
            "k": list(self.K),
            "tau": [self.TAUS[0], self.TAUS[-1]],
            "u": 1.0,
            "m_cap": self.M_CAP,
            "sigma_evals_per_unit": len(sig),
            "distinct_sigma_per_unit": len(set(sig)),
            "distinct_sigma_share": len(set(sig)) / len(sig),
        }


class WideGrid(Workload):
    """Long grids with small kernels: per-sample passes, FFTs and file I/O."""

    name = "wide-grid"
    why = ("per-sample passes, FFTs and file I/O dominate, not assembly; "
           "merging 1D into rows and O(n) input checks would cost here first")
    item = ("one call on a long grid: a decay fit, the aligned maximal norm, "
            "the CLI growth probe or a grid-file round trip")
    nominal_unit_s = 3.8
    # 7 items per unit: the median lands inside the block of CLI probes and
    # CSV round trips and, from 5 units on, the tail (10 items above it)
    # inside the block of decay fits.  Kernel samples and curve checks are
    # run and checked in every unit but are not items: at a few ms each
    # they would put the median on calls whose latency swings most with
    # the machine's cache state.
    min_units = 5

    DECAY_GRID = (-600.0, 600.0, 120001)
    DECAY_FITS = 3
    DECAY_MEMBERS = 3
    K_MAX = 8
    GROWTH_GRID = [-8.0, 8.0, 16385]
    GROWTH_MEMBERS = 4
    SIGMAS = [0.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
    KERNEL_K = tuple(range(2, 8))
    BUILTINS = (("power", 1.5), ("power", 2.0), ("power", 3.0), ("t2log", None),
                ("int_power_log", 2.0))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.parabola = curves.builtin_curve("power", 2.0)
        self.curves = [self.parabola]
        self.builtins = [curves.builtin_curve(f, a) for f, a in self.BUILTINS]
        self.u = gridfn.ModulationField.constant(1.0)
        # three fits of acceptance 8's shape (the frozen slope gate applies
        # to a 3-member family, not to one member), each on its own family
        self.decay_families = [
            harness.TestFunctionFamily(
                "modulated_gaussians", self.DECAY_MEMBERS, _family_seed(rng), self.DECAY_GRID)
            for _ in range(self.DECAY_FITS)]
        members = [fam.members() for fam in self.decay_families]
        self.wide_member = members[0][int(rng.integers(self.DECAY_MEMBERS))]
        self.growth_family = harness.TestFunctionFamily(
            "indicators", self.GROWTH_MEMBERS, _family_seed(rng), tuple(self.GROWTH_GRID))
        self.growth_family.members()
        self.samples = []
        for k in self.KERNEL_K:
            # acceptance 6's rows: deep plateau, a moderate separation, and
            # one |s| > 4 row that must integrate to exactly zero.  The
            # quadrature step depends on |s|, so the seed draws only signs.
            for s in (2.0 ** (-2 * k - 1), 0.5, 4.5):
                sign = rng.choice([-1.0, 1.0])
                self.samples.append(kernel.PhaseParams(
                    k=k, n_x=0, n_z=0, u_x=1.0, u_z=1.0, s=float(sign * s),
                    curve=self.parabola))
        self.config_path = workdir / "shift-growth.json"
        self.config_path.write_text(json.dumps({
            "sigmas": self.SIGMAS,
            "family": {"generator": "indicators", "count": self.GROWTH_MEMBERS,
                       "seed": self.growth_family.seed, "grid": self.GROWTH_GRID},
            "p": 2.0,
            "b_max": "fixtures:shift_growth_b_max",
        }))
        self.cert = self.certify()
        self.aligned_norm: Optional[float] = None
        self.slope_gate: Optional[float] = None

    def prepare(self, tally):
        tally.check("certify parabola", lambda: _certified(self.cert, self.parabola.label))
        # thresholds are read, never written
        self.slope_gate = float(fixtures.load_fixtures()["sk_decay_slope_max"])

    def _check_decay(self, fit) -> List[str]:
        problems = _finite("decay log2 ratios", fit.log2_ratios + (fit.slope,))
        if not fit.slope <= self.slope_gate:
            problems.append(f"decay slope {fit.slope} above frozen {self.slope_gate}")
        return problems

    def _growth_cli(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["shift-growth", "--config", str(self.config_path)])
        return code, buf.getvalue()

    def _check_growth(self, out) -> List[str]:
        code, text = out
        if code != 0:
            return [f"shift-growth exited {code}: {text.strip()[-200:]}"]
        norms = json.loads(text.splitlines()[0])["aggregate"]["norms"]
        problems = _finite("growth norms", norms)
        if norms[0] != self.aligned_norm:
            problems.append(f"sigma=0 norm {norms[0]!r} != aligned maximal {self.aligned_norm!r}")
        return problems

    @staticmethod
    def _check_kernel(sample, rep) -> List[str]:
        lhs = rep.samples[0].lhs
        problems = _finite("kernel modulus", [lhs, rep.c_hat])
        if abs(sample.s) > 4 and lhs != 0.0:
            problems.append(f"|s| = {abs(sample.s):.3f} > 4 row is {lhs!r}, not 0")
        return problems

    def _round_trip(self, path):
        gridfn.write_grid_function(str(path), self.wide_member)
        return gridfn.read_grid_function(str(path))

    def _check_round_trip(self, g) -> List[str]:
        m = self.wide_member
        same = (isinstance(g, gridfn.GridFunction1D) and g.origin == m.origin
                and g.step == m.step and np.array_equal(g.values, m.values))
        return [] if same else ["grid-file round trip is not bit-exact"]

    def run_unit(self, tally):
        for fam in self.decay_families:
            tally.item("decay_experiment",
                       lambda: harness.decay_experiment(self.parabola, self.u, fam, self.K_MAX),
                       self._check_decay)
        # the sigma = 0 rung of the growth probe must equal this exactly
        self.aligned_norm = tally.item(
            "aligned maximal norm",
            lambda: harness.estimate_operator_norm(
                lambda g: operators.hl_maximal(g, "aligned"), self.growth_family, 2.0),
            lambda norm: _finite("aligned maximal norm", [norm]))
        tally.item("cli shift-growth", self._growth_cli, self._check_growth)
        for p in self.samples:
            tally.check(f"verify_kernel_bound k={p.k} s={p.s:.4g}",
                        lambda: self._check_kernel(p, kernel.verify_kernel_bound(self.parabola, [p])))
        for c in self.builtins:
            tally.check(f"check_conditions {c.label}",
                        lambda: [] if curves.check_conditions(c).all_pass
                        else [f"{c.label} not certified"])
        for suffix in ("bin", "csv"):
            tally.item(f"round trip .{suffix}",
                       lambda: self._round_trip(self.workdir / f"wide.{suffix}"),
                       self._check_round_trip)

    def properties(self):
        return {
            "decay_grid_points": self.DECAY_GRID[2],
            "decay_fits": self.DECAY_FITS,
            "decay_members": self.DECAY_MEMBERS,
            "k_max": self.K_MAX,
            "growth_grid_points": self.GROWTH_GRID[2],
            "growth_members": self.GROWTH_MEMBERS,
            "sigmas": self.SIGMAS,
            "kernel_samples": [[p.k, p.s] for p in self.samples],
            "builtin_curves": [c.label for c in self.builtins],
            "round_trip_points": self.wide_member.n,
        }


WORKLOADS = {w.name: w for w in (Sweep, Domination, WideGrid)}
