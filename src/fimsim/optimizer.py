"""Surface-shape optimization of the penalized achievable-rate objective.

The objective for a pair of surface shapes (y_t, y_r) is

    f = log2 det(I + H H^H / sigma^2) + beta * min(tr(H H^H) - psi, 0)

where H is the block channel of the chosen waveform, sigma^2 the noise
variance, and psi a floor on the total channel power serving as the
sensing constraint.  The waveform's unitary transform changes neither
term, so H is the time-domain channel with the waveform's prefix phase,
evaluated from the scenario's ``ChannelFactors`` record, built once per
ascent: only the steering entries depend on the shapes, and each
element's y coordinate enters one row (receive) or one column (transmit)
of each path's spatial factor.  Every rate, power, objective and gradient
at given shapes is evaluated on a route (``_route``), picked per record by
the path count P against the stream count d_s; the ascent,
``objective_gradient`` and the rate sweep (``fimsim.harness``) all use it.

Path space (P < d_s).  With P paths H H^H has rank at most P N, and
Sylvester's identity moves the determinant into a P N x P N space:

    D_pq = conj(w_p) w_q T_p^H T_q      shape-free, built once per record
    K_t = A_t^H A_t,  K_r = A_r^H A_r   P x P steering Grams
    M = I + (K_t kron I_N) Y / sigma^2, Y = D o (K_r kron J_N)
    rate = log2 det M,  power = sum_pq K_t[q, p] K_r[p, q] tr(D_pq)

The gradient contracts M^-1 into df/dK_t and df/dK_r (plus beta times the
power's while the floor is violated), and each Gram entry moves as
dK[p, q]/dy_b = conj(a_bp) a_bq (s_q - s_p) with s the per-path slopes.
No d_s N x d_s N matrix is formed.  At P = 1 the slopes cancel and the
gradient is exactly zero.

Dense (P >= d_s).  The record's d_s N x d_s N matrix is formed, the rate
is a Cholesky log-det, and the gradient is an adjoint: one dense numpy
solve gives

    A = (I + H H^H / sigma^2)^-1 H / (sigma^2 ln 2)  [+ beta * H while the
                                                      floor is violated]

and each partial df/dy_b = 2 Re <A, dH/dy_b> reduces, per path, to a
length-d_s dot product with the d_s x d_s contraction of A's N x N
blocks against that path's monomial time response: A gathered at the
path's N (row, column) positions and weighted by its ramp.  This route is
also the oracle of the path-space one.

Ascent uses simultaneous projected updates with an Armijo backtracking
line search.
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
        if self.psi is not None and not self.psi >= 0.0:   # NaN included
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
    if not noise_var > 0.0:       # NaN included
        raise ValueError("noise variance must be positive")
    m = np.eye(h.shape[0]) + h @ h.conj().T / noise_var
    chol = np.linalg.cholesky(m)
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))


def channel_power(h_bar) -> float:
    """tr(H H^H), the squared Frobenius norm of the block channel."""
    h = np.asarray(h_bar)
    return float(np.real(np.vdot(h, h)))


class _Route:
    """The penalized objective on a subclass's ``state``, ``rate``, ``power``
    and ``_gradient``; a caller that reads only rates leaves beta and psi 0."""

    def __init__(self, factors: ChannelFactors, noise_var: float,
                 beta: float = 0.0, psi: float = 0.0):
        self.factors, self.noise_var = factors, noise_var
        self.beta, self.psi = beta, psi

    def slack(self, state) -> float:
        """Clamped floor violation min(power - psi, 0); nonpositive."""
        return min(self.power(state) - self.psi, 0.0)

    def objective(self, state):
        """(objective, rate, slack) with objective = rate + beta * slack."""
        rate, slack = self.rate(state), self.slack(state)
        return rate + self.beta * slack, rate, slack

    def gradient(self, state, slack: float) -> np.ndarray:
        """Objective gradient (transmit elements first); beta enters only
        while the floor is violated (slack < 0)."""
        return self._gradient(state, self.beta if slack < 0.0 else 0.0)


class _DenseRoute(_Route):
    """Rate, power and gradient on the record's d_s N x d_s N matrix: the
    route when P >= d_s, and the oracle of the path-space route."""

    def state(self, y_t, y_r):
        """What the rate, the power and the gradient at these shapes share."""
        return y_t, y_r, self.factors.matrix(y_t, y_r)

    def rate(self, state) -> float:
        return achievable_rate(state[2], self.noise_var)

    def power(self, state) -> float:
        return channel_power(state[2])

    def _gradient(self, state, penalty: float) -> np.ndarray:
        y_t, y_r, h = state
        factors, noise_var = self.factors, self.noise_var
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
        a_t, a_r = factors.steering(y_t, y_r)
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


class _PathSpaceRoute(_Route):
    """Rate, power and gradient in P N x P N path space: the route when
    P < d_s.  The shape-free pair blocks D are the record's, built once."""

    def __init__(self, factors: ChannelFactors, noise_var: float,
                 beta: float = 0.0, psi: float = 0.0):
        super().__init__(factors, noise_var, beta, psi)
        self.blocks = factors.pair_blocks
        self.traces = np.einsum("pkqk->pq", self.blocks)     # tr D_pq

    def state(self, y_t, y_r):
        """Steering columns, their Grams K_t and K_r, Y = D o (K_r (x) J_N)
        and M = I + X Y / sigma^2 with X = K_t (x) I_N."""
        a_t, a_r = self.factors.steering(y_t, y_r)
        k_t, k_r = a_t.conj().T @ a_t, a_r.conj().T @ a_r
        p, n = self.blocks.shape[:2]
        y = self.blocks * k_r[:, None, :, None]
        x_y = np.tensordot(k_t, y, axes=1).reshape(p * n, p * n)
        m = np.eye(p * n) + x_y / self.noise_var
        return a_t, a_r, k_t, k_r, y, m

    def rate(self, state) -> float:
        # det M = det(I + H H^H / sigma^2) >= 1 is real
        return float(np.linalg.slogdet(state[5])[1] / LOG2)

    def power(self, state) -> float:
        k_t, k_r = state[2:4]
        return float(np.real(np.sum(k_t.T * k_r * self.traces)))

    def _gradient(self, state, penalty: float) -> np.ndarray:
        a_t, a_r, k_t, k_r, y, m = state
        p, n = y.shape[:2]
        m_inv = np.linalg.inv(m).reshape(p, n, p, n)
        scale = 1.0 / (self.noise_var * LOG2)
        # df/dK_t[p, q] = tr((Y M^-1)_qp), df/dK_r[p, q] = tr((M^-1 X)_qp D_pq)
        g_t = scale * np.einsum("qkrl,rlpk->pq", y, m_inv)
        m_inv_x = np.einsum("qkrl,rp->qkpl", m_inv, k_t)
        g_r = scale * np.einsum("qkpl,plqk->pq", m_inv_x, self.blocks)
        if penalty:
            g_t += penalty * (k_r * self.traces).T
            g_r += penalty * k_t.T * self.traces
        sc = self.factors.scenario
        n_t, d = sc.tx_geometry.num_elements, sc.num_streams
        grad = np.zeros(n_t + sc.rx_geometry.num_elements)
        grad[:d] = _gram_partials(a_t, self.factors.slope_tx, g_t)
        grad[n_t:n_t + d] = _gram_partials(a_r, self.factors.slope_rx, g_r)
        return grad


def _gram_partials(a, slope, g) -> np.ndarray:
    """Re sum_pq g[p, q] dK[p, q]/dy_b for each element b of a Gram
    K = A^H A, where dK[p, q]/dy_b = conj(a_bp) a_bq (s_q - s_p)."""
    g_s = g * (slope[None, :] - slope[:, None])
    return np.real(np.sum(a.conj() * (a @ g_s.T), axis=1))


def _route(factors: ChannelFactors, noise_var: float, beta: float = 0.0,
           psi: float = 0.0) -> _Route:
    """Path space while it is the smaller space (P < d_s), else the dense matrix."""
    sc = factors.scenario
    cls = _PathSpaceRoute if sc.num_paths < sc.num_streams else _DenseRoute
    return cls(factors, noise_var, beta, psi)


def objective_gradient(spec, scenario: ChannelScenario, tx_surface, rx_surface,
                       noise_var: float, beta: float, psi: float) -> np.ndarray:
    """Gradient of the penalized objective with respect to every element's
    y coordinate: the N_t transmit partials, then the N_r receive ones.  The
    clamped penalty is flat once the floor holds, so it enters only while
    the floor is violated.
    """
    if not noise_var > 0.0:       # NaN included
        raise ValueError("noise variance must be positive")
    if not psi >= 0.0:       # NaN included
        raise ValueError("psi must be nonnegative")
    y_t = validate_surface(scenario.tx_geometry, tx_surface)
    y_r = validate_surface(scenario.rx_geometry, rx_surface)
    route = _route(waveform_factors(spec, scenario), noise_var, beta, psi)
    state = route.state(y_t, y_r)
    return route.gradient(state, route.slack(state))


def optimize(scenario: ChannelScenario, spec, config: OptimizerConfig,
             init_tx=None, init_rx=None, rng=None) -> OptimizerResult:
    """Projected gradient ascent on both surface shapes: the step rule on
    the route's objective and gradient.

    Each iteration takes a simultaneous step on both shapes, projects onto
    the morphing box, and accepts the step through an Armijo condition on
    the objective (measured against the projected displacement, so
    accepted objectives never decrease).  Stops at the iteration budget, on
    a line search failure, on an exactly zero gradient, or when the
    projected step collapses.

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

    factors = waveform_factors(spec, scenario)
    psi = config.psi
    if psi is None:
        flat = _route(factors, config.noise_var)
        psi = config.psi_fraction * flat.power(
            flat.state(tx_geom.flat_surface(), rx_geom.flat_surface()))
    route = _route(factors, config.noise_var, config.beta, psi)

    step0 = INITIAL_STEP_WAVELENGTHS * tx_geom.wavelength
    n_t = tx_geom.num_elements

    state = route.state(y_t, y_r)
    f_cur, rate_cur, slack_cur = route.objective(state)
    obj_trace, rate_trace, slack_trace = [f_cur], [rate_cur], [slack_cur]

    iterations = 0
    stop_reason = "iteration budget"
    for _ in range(config.max_iters):
        grad = route.gradient(state, slack_cur)

        if not np.any(grad):
            stop_reason = "zero gradient"
            break

        step = step0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            y_t_new = project_surface(tx_geom, y_t + step * grad[:n_t])
            y_r_new = project_surface(rx_geom, y_r + step * grad[n_t:])
            move = np.concatenate([y_t_new - y_t, y_r_new - y_r])
            # rebinding frees the last trial's state before this one's rate
            state_new = route.state(y_t_new, y_r_new)
            f_new, rate_new, slack_new = route.objective(state_new)
            if f_new >= f_cur + SUFFICIENT_INCREASE * float(grad @ move):
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            stop_reason = "line search failed"
            break

        step_norm = float(np.linalg.norm(move))
        y_t, y_r, state = y_t_new, y_r_new, state_new
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
