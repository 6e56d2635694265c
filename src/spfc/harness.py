"""Experiment harness: the manufactured solution and its convergence
studies, pattern formation runs with nucleation sites, and the aggregated
property-check battery behind the ``verify`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .grid import Grid, sum_product
from .model import ModelParams, Scheme, StepOperator, grad_sq, gradient, p_laplacian_hat
from .psd import TOL, SolveStats, psd_solve
from .spectral import Field, norm_h2_hat, norm_l2
from .stepper import EnergyRecord, SimState, initial_state, run, segment_steps

__all__ = [
    "ConvergenceRow",
    "PatternConfig",
    "CheckResult",
    "VerifyReport",
    "random_init",
    "order_fit",
    "exact_field",
    "temporal_source",
    "spatial_source",
    "spatial_convergence_study",
    "temporal_convergence_study",
    "pattern_experiment",
    "verify_suite",
    "CLAIMS",
    "DEFAULT_SNAPSHOT_TIMES",
]

DEFAULT_SNAPSHOT_TIMES = (1.0, 10.0, 20.0, 40.0, 100.0, 200.0)
SEED = 7  # every random sample a claim draws starts from this seed

# the manufactured-solution studies: the spatial study's fixed step, the
# temporal study's step counts and the final time of both
CONV_DT, CONV_STEPS, CONV_T = 1e-4, tuple(range(100, 900, 100)), 0.16


class Claim(NamedTuple):
    """A shipped claim's bound and its problem size (``None`` where the
    problem has one size)."""

    tol: float
    size: object = None


# Every claim of ``spfc verify``, the conv subcommands and the acceptance
# suite, stated once.  A size ``(count, ns)`` draws ``count`` samples on each
# grid size in ``ns``.
CLAIMS = {
    "sbp_identities": Claim(1e-10, (100, (16, 32))),
    "interpolation_inequalities": Claim(1e-12, (500, (16, 32))),
    "parseval_identity": Claim(1e-12),
    "gradient_consistency": Claim(1e-5, 50),  # instances per scheme
    "psd_multistart_uniqueness": Claim(1e-8, 256),  # grid size
    "constant_fixed_point": Claim(1e-12),
    "psd_mesh_independence": Claim(3, (64, 128, 256)),  # iteration spread
    "mass_conservation": Claim(1e-11, 30),  # absolute drift; smoke-run steps
    "modified_energy_dissipation": Claim(1e-9),  # relative uptick per step
    "spatial_accuracy": Claim(1e-6, tuple(range(6, 22, 2))),  # error ratio
    "spectral_saturation": Claim(1e-9),  # error floor of the spatial study
    "temporal_order": Claim(0.2, 128),  # |order - 2|; grid size
    "dt_agreement": Claim(0.01),  # relative spread of the energy curves
    "psd_objective_monotone": Claim(1e-12),  # relative uptick per iteration
    "psd_contraction": Claim(0.95),  # residual ratio after iteration 3
    "h2_bound": Claim(1.5),  # max H2 over the early max
}


@dataclass
class ConvergenceRow:
    """One study point: resolution (grid size or step count), step size, the
    final-time L2 error and the ``l2(0, T; H3)`` seminorm error accumulated
    over the steps (temporal study; 0 in the spatial one)."""

    resolution: int
    dt: float
    error_l2: float
    error_h3_seminorm: float = 0.0


@dataclass(frozen=True)
class PatternConfig:
    """Pattern-formation experiment setup on ``(0, L)^2``.

    ``sites`` are nucleation impulses ``(x, y, magnitude)``; each adds its
    magnitude at the single nearest grid node (``site_profile="node"``) or as
    a periodic Gaussian bump of width ``2 h`` (``"gaussian"``).  ``reg_a``
    defaults to the stability threshold ``epsilon^2 / 16``.  An invalid
    setup cannot be constructed; each ``ValueError`` names the offending
    field first.
    """

    length: float = 100.0
    n: int = 256
    epsilon: float = 0.5
    reg_a: Optional[float] = None
    seed: int = 0
    amplitude: float = 0.05
    sites: tuple[tuple[float, float, float], ...] = ()
    dt_schedule: tuple[tuple[float, float], ...] = ((0.05, 100.0),)
    scheme: Scheme = Scheme.BDF2_ES_1
    site_profile: str = "node"

    def __post_init__(self) -> None:
        self.grid()
        self.params()
        try:
            segment_steps(self.dt_schedule)
        except ValueError as exc:
            raise ValueError(f"dt_schedule: {exc}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        for x, y, _ in self.sites:
            if not (0.0 <= x < self.length and 0.0 <= y < self.length):
                raise ValueError(f"sites: ({x}, {y}) lies outside (0, {self.length})^2")
        if self.site_profile not in ("node", "gaussian"):
            raise ValueError(f"site_profile must be node or gaussian, got {self.site_profile!r}")

    def grid(self) -> Grid:
        return Grid(dim=2, n=self.n, length=self.length)

    def params(self) -> ModelParams:
        reg_a = self.epsilon**2 / 16.0 if self.reg_a is None else self.reg_a
        return ModelParams(epsilon=self.epsilon, reg_a=reg_a, scheme=self.scheme)


def random_init(cfg: PatternConfig, grid: Grid) -> Field:
    """Seeded uniform noise ``amplitude * (2 r - 1)`` plus nucleation sites.

    The PCG64 stream fills the array row-major over the ``(i, j)`` grid
    indices, so a fixed seed reproduces the field bitwise on any platform.
    """
    rng = np.random.default_rng(cfg.seed)
    values = cfg.amplitude * (2.0 * rng.random(grid.shape) - 1.0)
    h = grid.spacing
    for x, y, mag in cfg.sites:
        if cfg.site_profile == "node":
            i = int(round(x / h)) % grid.n
            j = int(round(y / h)) % grid.n
            values[i, j] += mag
        else:
            gx, gy = grid.coords()
            dx = np.abs(gx - x)
            dy = np.abs(gy - y)
            dx = np.minimum(dx, grid.length - dx)
            dy = np.minimum(dy, grid.length - dy)
            width = 2.0 * h
            values += mag * np.exp(-(dx**2 + dy**2) / (2.0 * width**2))
    return Field(grid, values)


def order_fit(errors: Sequence[float], dts: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    if len(errors) != len(dts) or len(errors) < 2:
        raise ValueError("need two equal-length samples at least")
    if any(e <= 0 for e in errors) or any(d <= 0 for d in dts):
        raise ValueError("errors and step sizes must be positive")
    return float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errors)), 1)[0])


# ----------------------------------------------------------------------
# manufactured solution ``profile(x, y) cos t`` on the unit square, with
# ``profile = sin(2 pi x) cos(2 pi y) / (2 pi)``, and its studies
# ----------------------------------------------------------------------
_LAM1 = 8.0 * np.pi**2  # eigenvalue of -lap on the profile


@lru_cache(maxsize=32)
def _mms_basis(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The profile and ``lap(-div(|grad profile|^2 grad profile))`` at the
    nodes of a unit-square grid (the latter worked out with product formulas)."""
    if grid.dim != 2 or abs(grid.length - 1.0) > 1e-14:
        raise ValueError("manufactured solution is defined on the unit square")
    x, y = grid.coords()
    X, Y = 2.0 * np.pi * x, 2.0 * np.pi * y
    s11 = np.sin(X) * np.cos(Y)
    s33 = np.sin(3.0 * X) * np.cos(3.0 * Y)
    s31 = np.sin(3.0 * X) * np.cos(Y)
    s13 = np.sin(X) * np.cos(3.0 * Y)
    lap_p_nl = -4.0 * np.pi**3 * (5.0 * s11 + 27.0 * s33 + 5.0 * s31 - 5.0 * s13)
    return s11 / (2.0 * np.pi), lap_p_nl


def exact_field(grid: Grid, t: float) -> Field:
    """The manufactured solution sampled at the grid nodes."""
    return Field(grid, float(np.cos(t)) * _mms_basis(grid)[0])


def temporal_source(grid: Grid, t: float, params: ModelParams) -> Field:
    """Continuum residual ``d/dt phi_e - lap mu(phi_e)``, analytically: with
    it as source the sampled exact solution solves the continuum system, so
    the temporal error remains."""
    profile, lap_p_nl = _mms_basis(grid)
    c = float(np.cos(t))
    mu_lin = params.energy_symbol(_LAM1)
    values = float(-np.sin(t)) * profile - c**3 * lap_p_nl + _LAM1 * mu_lin * c * profile
    return Field(grid, values)


def spatial_source(grid: Grid, t_new: float, dt: float, params: ModelParams) -> Field:
    """Source that makes the sampled exact solution satisfy the BDF2 time
    discretization exactly (spatial operators stay continuum), so the spatial
    error remains."""
    profile, lap_p_nl = _mms_basis(grid)
    c1, c0, cm = (float(np.cos(t)) for t in (t_new, t_new - dt, t_new - 2.0 * dt))
    stencil = (1.5 * c1 - 2.0 * c0 + 0.5 * cm) / dt
    concave = params.concave_symbol(_LAM1)
    lin = (params.energy_symbol(_LAM1) + concave) * c1 - concave * (2.0 * c0 - cm)
    lin += params.reg_a * dt * _LAM1 * (c1 - c0)
    values = stencil * profile - c1**3 * lap_p_nl + _LAM1 * lin * profile
    return Field(grid, values)


def _manufactured_run(
    grid: Grid, params: ModelParams, dt: float, n_steps: int, temporal: bool
) -> tuple[float, float]:
    """March the forced problem from the exact ``phi(0)`` and ``phi(-dt)``,
    with :func:`temporal_source` (solver tol 1e-11) or :func:`spatial_source`
    (tol 1e-12), and return the final L2 error and, for the temporal study,
    the ``l2(0, T; H3)`` seminorm error against :func:`exact_field`."""
    tol = 1e-11 if temporal else 1e-12
    phi_curr, phi_prev = exact_field(grid, 0.0), exact_field(grid, -dt)
    h3_acc = 0.0
    for k in range(n_steps):
        t_new = (k + 1) * dt
        if temporal:
            src = temporal_source(grid, t_new, params)
        else:
            src = spatial_source(grid, t_new, dt, params)
        op = StepOperator(phi_curr, phi_prev, dt, params, src)
        # tol goes third and positionally: benchmarks/run.py wraps this binding
        # as (phi_guess, op, f=None, cfg=None) and forwards all four in order
        phi_new, _ = psd_solve(None, op, tol)
        phi_prev, phi_curr = phi_curr, phi_new
        if temporal:
            err_hat = grid.rfft(phi_curr.values - exact_field(grid, t_new).values)
            h3_acc += dt * grid.spectral_norm2_sq(err_hat, grid.lam**3)
    exact = exact_field(grid, n_steps * dt)
    err = norm_l2(Field(grid, phi_curr.values - exact.values))
    return err, math.sqrt(h3_acc)


def spatial_convergence_study(
    n_list: Sequence[int], dt_fixed: float, params: ModelParams, t_final: float
) -> list[ConvergenceRow]:
    """Fixed small dt, sweep the grid size; the source absorbs the temporal
    discretization error so the remaining error is spatial."""
    n_steps = int(round(t_final / dt_fixed))
    rows = []
    for n in n_list:
        grid = Grid(dim=2, n=n, length=1.0)
        err, h3 = _manufactured_run(grid, params, dt_fixed, n_steps, temporal=False)
        rows.append(ConvergenceRow(resolution=n, dt=dt_fixed, error_l2=err, error_h3_seminorm=h3))
    return rows


def temporal_convergence_study(
    nk_list: Sequence[int], n_fixed: int, params: ModelParams, t_final: float
) -> tuple[list[ConvergenceRow], float]:
    """Fixed spatial resolution, sweep the step count; the analytically
    sampled source leaves the temporal error.  Returns rows and the fitted
    log-log order of the L2 error."""
    grid = Grid(dim=2, n=n_fixed, length=1.0)
    rows = []
    for nk in nk_list:
        dt = t_final / nk
        err, h3 = _manufactured_run(grid, params, dt, nk, temporal=True)
        rows.append(ConvergenceRow(resolution=nk, dt=dt, error_l2=err, error_h3_seminorm=h3))
    order = order_fit([r.error_l2 for r in rows], [r.dt for r in rows])
    return rows, order


# ----------------------------------------------------------------------
# pattern experiments
# ----------------------------------------------------------------------
def pattern_experiment(
    cfg: PatternConfig,
    energy_sink: Optional[Callable[[EnergyRecord], None]] = None,
    snapshot_sink: Optional[Callable[[SimState], None]] = None,
    snapshot_times: Sequence[float] = DEFAULT_SNAPSHOT_TIMES,
    tol: float = TOL,
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> SimState:
    """Run the seeded pattern-formation problem through its dt schedule and
    return its final state (:func:`spfc.stepper.run`, every solve to the
    floor ``tol``).  Snapshot times after the schedule's end are dropped, so
    the default times suit any schedule; one before the start raises, as in
    ``run``."""
    return run(
        list(cfg.dt_schedule),
        initial_state(random_init(cfg, cfg.grid())),
        cfg.params(),
        tol=tol,
        energy_sink=energy_sink,
        snapshot_sink=snapshot_sink,
        snapshot_times=[t for t in snapshot_times if t <= cfg.dt_schedule[-1][1] + 1e-9],
        stats_sink=stats_sink,
    )


# ----------------------------------------------------------------------
# verification battery
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class VerifyReport:
    entries: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format(self) -> str:
        lines = [
            f"{'PASS' if e.passed else 'FAIL'}  {e.name:<34} margin {e.margin:9.3g}  {e.detail}"
            for e in self.entries
        ]
        return "\n".join(lines + ["ALL CHECKS PASSED" if self.all_passed else "CHECKS FAILED"])


def _dot(grid: Grid, a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """``<a, b>`` of two vector fields given by their physical components."""
    return grid.cell_volume * sum(sum_product(x, y) for x, y in zip(a, b))


def sbp_identity_defects(
    grid: Grid, n_pairs: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Worst relative defect of the three summation-by-parts identities over
    random field pairs, on the solver's kernels: each identity pairs a power
    of the symbol ``-lam`` by Parseval (:meth:`Grid.spectral_dot`) on one
    side, and on the other gradients from :func:`spfc.model.gradient`
    (identities 1 and 3) or Laplacians transformed back (identity 2) on the
    grid.

    The first identity is normalized by ``||f||_2 ||g||_H2`` (commensurate
    with its terms); the higher-order identities by the magnitude of their
    own two sides, which keeps "relative" meaningful for the 4th- and
    6th-order operators.
    """
    worst, lam = [0.0, 0.0, 0.0], grid.lam
    for _ in range(n_pairs):
        f_hat = grid.rfft(rng.standard_normal(grid.shape))
        g_hat = grid.rfft(rng.standard_normal(grid.shape))
        lap_f_hat, lap_g_hat = -lam * f_hat, -lam * g_hat
        t1a = grid.spectral_dot(f_hat, lap_g_hat)
        t1b = _dot(grid, gradient(grid, f_hat), gradient(grid, g_hat))
        scale = math.sqrt(grid.spectral_norm2_sq(f_hat)) * norm_h2_hat(grid, g_hat)
        worst[0] = max(worst[0], abs(t1a + t1b) / scale)
        t2a = grid.spectral_dot(f_hat, lap_g_hat, -lam)
        t2b = grid.cell_volume * sum_product(grid.irfft(lap_f_hat), grid.irfft(lap_g_hat))
        worst[1] = max(worst[1], abs(t2a - t2b) / (abs(t2a) + abs(t2b)))
        t3a = grid.spectral_dot(f_hat, lap_g_hat, lam**2)
        t3b = _dot(grid, gradient(grid, lap_f_hat), gradient(grid, lap_g_hat))
        worst[2] = max(worst[2], abs(t3a + t3b) / (abs(t3a) + abs(t3b)))
    return tuple(worst)


def lemma_inequality_defects(
    grid: Grid, n_fields: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Worst relative excess of the two interpolation inequalities
    ``||grad f|| <= ||f||^(2/3) ||grad lap f||^(1/3)`` and
    ``||lap f|| <= ||f||^(1/3) ||grad lap f||^(2/3)`` over random mean-zero
    fields (0 means satisfied with room), with the gradient norms from
    :func:`spfc.model.gradient` and the others by Parseval."""
    worst = [0.0, 0.0]
    for _ in range(n_fields):
        v = rng.standard_normal(grid.shape)
        v -= v.mean()
        f_hat = grid.rfft(v)
        nf = math.sqrt(grid.spectral_norm2_sq(f_hat))
        ng = math.sqrt(grid.cell_volume * sum_product(grad_sq(gradient(grid, f_hat))))
        nl = math.sqrt(grid.spectral_norm2_sq(f_hat, grid.lam**2))
        ngl = math.sqrt(grid.cell_volume * sum_product(grad_sq(gradient(grid, grid.lam * f_hat))))
        if ngl == 0.0:
            continue
        worst[0] = max(worst[0], ng / (nf ** (2.0 / 3.0) * ngl ** (1.0 / 3.0)) - 1.0)
        worst[1] = max(worst[1], nl / (nf ** (1.0 / 3.0) * ngl ** (2.0 / 3.0)) - 1.0)
    return tuple(worst)


def gradient_consistency_defect(
    grid: Grid, params: ModelParams, rng: np.random.Generator, n_cases: int
) -> float:
    """Worst relative mismatch between the directional derivative
    ``<N(phi) - f, d>`` (:meth:`StepOperator.nonlinear_hat` and ``rhs_hat``)
    and a centered difference of :meth:`StepOperator.objective_value`, step
    ``h = 1e-5``."""
    worst, h = 0.0, 1e-5
    for _ in range(n_cases):
        base = 0.3 * rng.standard_normal(grid.shape)
        phi_k = Field(grid, base + 0.05 * rng.standard_normal(grid.shape))
        phi_km1 = Field(grid, phi_k.values + _mean_zero(0.05 * rng.standard_normal(grid.shape)))
        dt = 0.05
        op = StepOperator(phi_k, phi_km1, dt, params)
        f_hat = op.rhs_hat
        phi_hat = grid.rfft(phi_k.values + _mean_zero(0.1 * rng.standard_normal(grid.shape)))
        d_hat = grid.rfft(_mean_zero(rng.standard_normal(grid.shape)))
        d_hat /= math.sqrt(grid.spectral_norm2_sq(d_hat))
        n_hat = op.nonlinear_hat(phi_hat, p_laplacian_hat(grid, gradient(grid, phi_hat)))
        pairing = grid.spectral_dot(n_hat - f_hat, d_hat)
        fp, fm = (
            op.objective_value(p_hat, gradient(grid, p_hat), f_hat)
            for p_hat in (phi_hat + h * d_hat, phi_hat - h * d_hat)
        )
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(fd - pairing) / max(abs(pairing), 1e-300))
    return worst


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - values.mean()


def acceptance_pattern(n: int, dt: float, t_end: float) -> PatternConfig:
    """The acceptance pattern problem: seeded noise plus one site at the centre."""
    return PatternConfig(n=n, seed=SEED, sites=((50.0, 50.0, 10.0),), dt_schedule=((dt, t_end),))


def sbp_defects(pairs: int, ns: Sequence[int]) -> dict:
    """Criterion 1: :func:`sbp_identity_defects` keyed by ``(dim, n)``, one stream."""
    rng, grids = np.random.default_rng(SEED), [(dim, n) for dim in (2, 3) for n in ns]
    return {(d, n): sbp_identity_defects(Grid(d, n, 1.0), pairs, rng) for d, n in grids}


def inequality_excess(fields: int, ns: Sequence[int]) -> tuple[float, float]:
    """Criterion 8: :func:`lemma_inequality_defects` worst over ``ns``, one stream."""
    rng = np.random.default_rng(SEED)
    per_grid = [lemma_inequality_defects(Grid(dim=2, n=n, length=1.0), fields, rng) for n in ns]
    return tuple(map(max, zip(*per_grid)))


def gradient_mismatch(cases: int) -> dict:
    """Criterion 10: :func:`gradient_consistency_defect` per scheme, one stream."""
    rng, grid = np.random.default_rng(SEED), Grid(dim=2, n=8, length=1.0)
    params = [ModelParams(epsilon=0.3, reg_a=0.25, scheme=s) for s in Scheme]
    return {p.scheme: gradient_consistency_defect(grid, p, rng, cases) for p in params}


def mesh_iteration_counts(ns: Sequence[int]) -> dict:
    """Criterion 7c: PSD iterations of one smooth first step, keyed by grid size."""
    tau, counts = 2.0 * np.pi / 100.0, {}
    for n in ns:
        grid = Grid(dim=2, n=n, length=100.0)
        x, y = grid.coords()
        phi0 = Field(grid, 0.05 * (np.cos(3 * tau * x) * np.cos(2 * tau * y) + np.sin(5 * tau * y)))
        op = StepOperator(phi0, phi0, 0.05, ModelParams(epsilon=0.5, reg_a=0.015625))
        counts[n] = psd_solve(None, op, 1e-9)[1].iterations
    return counts


def multistart_gap(n: int) -> float:
    """Criterion 7d: the gap between step 11's solutions from its own start
    and from a seeded perturbation of it (the operator carries no spectra)."""
    dt = 0.05
    cfg = acceptance_pattern(n, dt, 10 * dt)
    state = pattern_experiment(cfg, snapshot_times=())
    grid = state.phi_curr.grid
    op = StepOperator(state.phi_curr, state.phi_prev, dt, cfg.params())
    noise = _mean_zero(0.1 * np.random.default_rng(SEED + 1).standard_normal(grid.shape))
    sol_a, sol_b = (
        psd_solve(start, op, 1e-9)[0]
        for start in (None, Field(grid, state.phi_curr.values + noise))
    )
    return norm_l2(Field(grid, sol_a.values - sol_b.values))


def verify_suite() -> VerifyReport:
    """Run the property battery at the sizes of :data:`CLAIMS` and return a
    pass/fail report.  The checks shared with acceptance criteria 1, 7c, 7d,
    8 and 10 run the criterion's problem, size and seed through the function
    the criterion calls."""
    size = {name: claim.size for name, claim in CLAIMS.items()}
    report = VerifyReport()

    def check(claim: str, measured: float, detail: str, name: Optional[str] = None) -> None:
        tol = CLAIMS[claim].tol
        passed = measured <= tol
        margin = tol / measured if measured > 0 else float("inf")
        report.entries.append(CheckResult(name or claim, passed, margin, detail))

    for (dim, n), d in sbp_defects(*size["sbp_identities"]).items():
        detail = f"defects {d[0]:.2e} / {d[1]:.2e} / {d[2]:.2e}"
        check("sbp_identities", max(d), detail, f"sbp_identities_{dim}d_n{n}")

    fields, ns = size["interpolation_inequalities"]
    exc = inequality_excess(fields, ns)
    detail = f"worst excess {exc[0]:.2e} / {exc[1]:.2e} over {fields * len(ns)} fields"
    check("interpolation_inequalities", max(exc), detail)

    grid = Grid(dim=2, n=16, length=1.0)
    f = Field(grid, np.random.default_rng(SEED).standard_normal(grid.shape))
    defect = abs(grid.spectral_norm2_sq(grid.rfft(f.values)) - norm_l2(f) ** 2) / norm_l2(f) ** 2
    check("parseval_identity", defect, f"relative defect {defect:.2e}")

    cases = size["gradient_consistency"]
    for scheme, worst in gradient_mismatch(cases).items():
        detail = f"worst relative mismatch {worst:.2e} over {cases} cases"
        check("gradient_consistency", worst, detail, f"gradient_consistency_{scheme.value}")

    n = size["psd_multistart_uniqueness"]
    gap = multistart_gap(n)
    check("psd_multistart_uniqueness", gap, f"solution gap {gap:.2e} between two starts at N={n}")

    c = Field(grid, np.full(grid.shape, 0.37))  # a fixed point of both schemes
    ops = [StepOperator(c, c, 0.1, ModelParams(0.5, 0.015625, s)) for s in Scheme]
    sols = [psd_solve(None, op, 1e-12)[0] for op in ops]
    worst = max(float(np.max(np.abs(sol.values - 0.37))) for sol in sols)
    check("constant_fixed_point", worst, f"worst drift {worst:.2e}")

    counts = mesh_iteration_counts(size["psd_mesh_independence"])
    spread_it = max(counts.values()) - min(counts.values())
    check("psd_mesh_independence", spread_it, f"iterations {counts} across resolutions")

    # mass and dissipation on a short run of the acceptance pattern problem
    steps = size["mass_conservation"]
    records: list[EnergyRecord] = []
    smoke = acceptance_pattern(32, 0.05, 0.05 * steps)
    pattern_experiment(smoke, records.append)
    drift = max(abs(r.mass - records[0].mass) for r in records)
    emods = [r.E_mod for r in records]
    growth = max(0.0, *((b - a) / max(abs(a), 1e-300) for a, b in zip(emods, emods[1:])))
    detail = f"mean drift {drift:.2e} over {steps} steps"
    check("mass_conservation", drift, detail, "mass_conservation_smoke")
    detail = f"worst relative uptick {growth:.2e} over {steps} steps"
    check("modified_energy_dissipation", growth, detail, "modified_energy_dissipation_smoke")
    return report
