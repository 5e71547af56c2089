"""Surface-shape optimization of the penalized achievable-rate objective.

The objective for a pair of surface shapes (y_t, y_r) is

    f = log2 det(I + H H^H / sigma^2) + beta * min(tr(H H^H) - psi, 0)

where H is the block channel of the chosen waveform, sigma^2 the noise
variance, and psi a floor on the total channel power serving as the
sensing constraint.  The waveform's unitary transform changes neither
term, so H is the time-domain channel with the waveform's prefix phase,
evaluated from the scenario's ``ChannelFactors`` record, built once per
ascent: only the rank-one spatial factors depend on the shapes, and each
element's y coordinate enters one row (receive) or one column (transmit)
of each path's factor.  The gradient is therefore computed by an adjoint:
one dense numpy solve gives

    A = (I + H H^H / sigma^2)^-1 H / (sigma^2 ln 2)  [+ beta * H while the
                                                      floor is violated]

and each partial df/dy_b = 2 Re <A, dH/dy_b> reduces, per path, to a
length-d_s dot product with the d_s x d_s contraction of A's N x N
blocks against that path's monomial time response: A gathered at the
path's N (row, column) positions and weighted by its ramp.  Ascent uses
simultaneous projected updates with an Armijo backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelFactors, ChannelScenario
from .geometry import project_surface, random_surface, validate_surface
from .waveforms import waveform_factors

__all__ = [
    "OptimizerConfig",
    "OptimizerResult",
    "achievable_rate",
    "channel_power",
    "sensing_slack",
    "penalized_objective",
    "objective_gradient",
    "optimize",
]

LOG2 = np.log(2.0)

# Line search: the first trial step (in wavelengths of the transmit array),
# its shrink factor per backtrack, the Armijo sufficient-increase fraction,
# and the backtrack budget.  The ascent stops once an accepted projected
# step is shorter than MIN_STEP_NORM (meters).
INITIAL_STEP_WAVELENGTHS = 1e-3
BACKTRACK_FACTOR = 0.5
SUFFICIENT_INCREASE = 1e-4
MAX_BACKTRACKS = 30
MIN_STEP_NORM = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Ascent parameters.

    ``noise_var`` is the sigma^2 of the objective and has no default: the
    scenario carries no noise, so each ascent states the SNR point it
    serves.  ``psi=None`` resolves to ``psi_fraction`` times the channel
    power of the flat-surface baseline.
    """

    noise_var: float
    beta: float = 2.0
    psi: float | None = None
    psi_fraction: float = 0.8
    max_iters: int = 100

    def __post_init__(self):
        if not self.noise_var > 0.0:       # NaN included
            raise ValueError("noise variance must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.psi is not None and self.psi < 0.0:
            raise ValueError("psi must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class OptimizerResult:
    tx_surface: np.ndarray
    rx_surface: np.ndarray
    objective_trace: np.ndarray   # accepted objective values, initial point first
    rate_trace: np.ndarray
    slack_trace: np.ndarray
    iterations_run: int
    stop_reason: str
    psi: float                    # resolved sensing threshold


def achievable_rate(h_bar, noise_var: float) -> float:
    """log2 det(I + H H^H / sigma^2), in bits per channel use.

    Evaluated through a Cholesky factorization of the Hermitian
    positive-definite matrix I + H H^H / sigma^2.
    """
    h = np.asarray(h_bar, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"channel matrix must be square, got {h.shape}")
    if noise_var <= 0.0:
        raise ValueError("noise variance must be positive")
    m = np.eye(h.shape[0]) + h @ h.conj().T / noise_var
    chol = np.linalg.cholesky(m)
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))


def channel_power(h_bar) -> float:
    """tr(H H^H), the squared Frobenius norm of the block channel."""
    h = np.asarray(h_bar)
    return float(np.real(np.vdot(h, h)))


def sensing_slack(h_bar, psi: float) -> float:
    """Clamped constraint violation min(tr(H H^H) - psi, 0); nonpositive."""
    if psi < 0.0:
        raise ValueError("psi must be nonnegative")
    return min(channel_power(h_bar) - psi, 0.0)


def penalized_objective(h_bar, noise_var: float, beta: float, psi: float):
    """Return (objective, rate, slack) at one channel matrix."""
    rate = achievable_rate(h_bar, noise_var)
    slack = sensing_slack(h_bar, psi)
    return rate + beta * slack, rate, slack


def _adjoint_gradient(factors: ChannelFactors, tx_surface, rx_surface, h,
                      noise_var: float, penalty: float) -> np.ndarray:
    """Objective gradient at channel ``h`` (transmit elements first).

    ``penalty`` is beta while the power floor is violated, else 0.
    """
    sc = factors.scenario
    n, d = sc.block_length, sc.num_streams
    gram = np.eye(h.shape[0]) + h @ h.conj().T / noise_var
    adj = np.linalg.solve(gram, h) / (noise_var * LOG2)
    if penalty:
        adj += penalty * h
    # sens[p, v, u] = <A_vu, T_p>, so that <A, dH> is the sum over p, v, u
    # of sens[p, v, u] * dS_p[v, u] for a change dS_p of path p's
    # stream-reduced spatial factor; T_p is nonzero only at (k, columns[p, k])
    gathered = adj.reshape(d, n, d, n)[:, np.arange(n), :, factors.columns]
    sens = np.einsum("pkvu,pk->pvu", gathered.conj(), factors.ramps)
    a_t, a_r = factors.steering(tx_surface, rx_surface)
    # dH/dy_b has one nonzero spatial column (transmit element b) or row
    # (receive element b) per path; elements past d_s never enter H.
    n_t = sc.tx_geometry.num_elements
    grad = np.zeros(n_t + sc.rx_geometry.num_elements)
    grad[:d] = 2.0 * np.real(
        ((factors.slope_tx * a_t).conj() * np.einsum("vp,pvu->up", a_r, sens))
        @ factors.weights)
    grad[n_t:n_t + d] = 2.0 * np.real(
        ((factors.slope_rx * a_r) * np.einsum("pvu,up->vp", sens, a_t.conj()))
        @ factors.weights)
    return grad


def objective_gradient(spec, scenario: ChannelScenario, tx_surface, rx_surface,
                       noise_var: float, beta: float, psi: float) -> np.ndarray:
    """Gradient of the penalized objective with respect to every element's
    y coordinate: the N_t transmit partials, then the N_r receive ones.

    The penalty term contributes only while the power floor is violated
    (the clamped penalty is flat once satisfied, so its subgradient
    vanishes there).
    """
    if noise_var <= 0.0:
        raise ValueError("noise variance must be positive")
    factors = waveform_factors(spec, scenario)
    h = factors.matrix(tx_surface, rx_surface)
    penalty = beta if sensing_slack(h, psi) < 0.0 else 0.0
    return _adjoint_gradient(factors, tx_surface, rx_surface, h, noise_var, penalty)


def optimize(scenario: ChannelScenario, spec, config: OptimizerConfig,
             init_tx=None, init_rx=None, rng=None) -> OptimizerResult:
    """Projected gradient ascent on both surface shapes.

    Each iteration computes the full gradient for the transmit and
    receive shapes from one linear solve, takes a simultaneous step,
    projects onto the morphing box, and accepts the step through an Armijo
    condition on the objective (measured against the projected
    displacement, so accepted objectives never decrease).  Stops at the iteration budget, on a line
    search failure, or when the projected step collapses.

    Missing initial shapes are drawn uniformly from the morphing range
    (one shared draw when both arrays have the same geometry).
    """
    tx_geom, rx_geom = scenario.tx_geometry, scenario.rx_geometry
    if init_tx is None or init_rx is None:
        rng = np.random.default_rng(rng)
        if init_tx is None and init_rx is None and tx_geom == rx_geom:
            init_tx = init_rx = random_surface(tx_geom, rng)
        else:
            if init_tx is None:
                init_tx = random_surface(tx_geom, rng)
            if init_rx is None:
                init_rx = random_surface(rx_geom, rng)
    y_t = validate_surface(tx_geom, init_tx, check_bounds=True).copy()
    y_r = validate_surface(rx_geom, init_rx, check_bounds=True).copy()

    noise_var = config.noise_var
    factors = waveform_factors(spec, scenario)
    if config.psi is not None:
        psi = config.psi
    else:
        flat = factors.matrix(tx_geom.flat_surface(), rx_geom.flat_surface())
        psi = config.psi_fraction * channel_power(flat)

    step0 = INITIAL_STEP_WAVELENGTHS * tx_geom.wavelength
    n_t = tx_geom.num_elements

    h = factors.matrix(y_t, y_r)
    f_cur, rate_cur, slack_cur = penalized_objective(h, noise_var, config.beta, psi)
    obj_trace, rate_trace, slack_trace = [f_cur], [rate_cur], [slack_cur]

    iterations = 0
    stop_reason = "iteration budget"
    for _ in range(config.max_iters):
        grad = _adjoint_gradient(factors, y_t, y_r, h, noise_var,
                                 config.beta if slack_cur < 0.0 else 0.0)

        if not np.any(grad):
            stop_reason = "zero gradient"
            break

        step = step0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            y_t_new = project_surface(tx_geom, y_t + step * grad[:n_t])
            y_r_new = project_surface(rx_geom, y_r + step * grad[n_t:])
            move = np.concatenate([y_t_new - y_t, y_r_new - y_r])
            h_new = factors.matrix(y_t_new, y_r_new)
            f_new, rate_new, slack_new = penalized_objective(
                h_new, noise_var, config.beta, psi)
            if f_new >= f_cur + SUFFICIENT_INCREASE * float(grad @ move):
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            stop_reason = "line search failed"
            break

        step_norm = float(np.linalg.norm(move))
        y_t, y_r, h = y_t_new, y_r_new, h_new
        f_cur, rate_cur, slack_cur = f_new, rate_new, slack_new
        obj_trace.append(f_cur)
        rate_trace.append(rate_cur)
        slack_trace.append(slack_cur)
        iterations += 1
        if step_norm < MIN_STEP_NORM:
            stop_reason = "step below tolerance"
            break

    return OptimizerResult(tx_surface=y_t, rx_surface=y_r,
                           objective_trace=np.asarray(obj_trace),
                           rate_trace=np.asarray(rate_trace),
                           slack_trace=np.asarray(slack_trace),
                           iterations_run=iterations,
                           stop_reason=stop_reason,
                           psi=psi)
