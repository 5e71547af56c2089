"""Independent oracles and small scenario builders shared by the tests.

Everything here is written from scratch (scalar loops, no reuse of the
library's matrix assembly) so it can serve as a second route against
which the production code is checked.  The dense time factors build each
path's N x N time response as a product of a prefix-phase diagonal, a
Doppler diagonal and a cyclic shift, the form the library's monomial
record replaces.  The dense gradient oracle forms each element's full
channel derivative and solves against it separately, the per-element
route that the library's adjoint gradient replaces.  ``penalized_objective``
and ``sensing_slack`` are the dense objective on one channel matrix, the
oracle of the optimizer's routes.  ``unvec_frame`` is
the layout oracle of a stacked frame, which ``transmit_receive`` returns
already unstacked.  ``brute_force_assignment`` tries every permutation,
the oracle of the harness's peak matching.
"""

import itertools

import numpy as np

from fimsim import (ChannelScenario, FimGeometry, PathAngles, PropagationPath,
                    ScenarioParams, achievable_rate, channel_power,
                    cp_phase_function, domain_transform, effective_channel,
                    random_scenario, steering_vector)

SMALL_MAX_RANGE_M = 90.0  # keeps delay taps below a block length of 8


def small_params(block_length=8, num_paths=2, **kwargs):
    kwargs.setdefault("max_range_m", SMALL_MAX_RANGE_M)
    return ScenarioParams(block_length=block_length, num_paths=num_paths, **kwargs)


def small_scenario(seed, block_length=8, num_paths=2, **kwargs):
    return random_scenario(small_params(block_length, num_paths, **kwargs), seed)


def oracle_steering(geom, surface, azimuth, elevation):
    """Per-element phase accumulation written out longhand."""
    y = np.asarray(surface, dtype=float)
    b = np.arange(geom.num_elements)
    x = geom.dx * (b % geom.bx)
    z = geom.dz * (b // geom.bx)
    phase = (2.0 * np.pi / geom.wavelength) * (
        x * np.sin(elevation) * np.cos(azimuth)
        + y * np.sin(elevation) * np.sin(azimuth)
        + z * np.cos(elevation))
    return np.exp(1j * phase) / np.sqrt(geom.num_elements)


def steering_derivative(geom: FimGeometry, surface, angles: PathAngles,
                        element: int) -> np.ndarray:
    """Derivative of the steering vector w.r.t. one element's y coordinate.

    Only the chosen entry is nonzero:
    ``j * 2*pi/wavelength * sin(azimuth) * sin(elevation) * b[element]``.
    ``element`` is 0-based.
    """
    if not 0 <= element < geom.num_elements:
        raise IndexError(f"element {element} outside [0, {geom.num_elements})")
    vec = steering_vector(geom, surface, angles)
    out = np.zeros_like(vec)
    scale = 1j * (2.0 * np.pi / geom.wavelength) * np.sin(angles.azimuth) * np.sin(angles.elevation)
    out[element] = scale * vec[element]
    return out


def cyclic_shift_matrix(n: int, ell: int) -> np.ndarray:
    """Permutation matrix delaying a length-n vector circularly by ell samples."""
    if not 0 <= ell < n:
        raise ValueError(f"shift {ell} outside [0, {n})")
    return np.roll(np.eye(n), ell, axis=0)


def doppler_matrix(n: int, f: float) -> np.ndarray:
    """diag(exp(-j 2 pi f k / n)), k = 0..n-1; fractional f supported."""
    return np.diag(np.exp(-2j * np.pi * f * np.arange(n) / n))


def cp_phase_matrix(n: int, ell: int, phase_fn=None) -> np.ndarray:
    """Diagonal prefix correction for a path with delay tap ell.

    The first ell entries are exp(-j 2 pi phase_fn(m)) for m = ell, ..., 1;
    the rest are ones.  ``phase_fn=None`` means a phase-free prefix
    (plain cyclic prefix) and yields the identity.
    """
    if not 0 <= ell < n:
        raise ValueError(f"delay tap {ell} outside [0, {n})")
    diag = np.ones(n, dtype=complex)
    if phase_fn is not None and ell > 0:
        phases = np.array([phase_fn(ell - i) for i in range(ell)], dtype=float)
        diag[:ell] = np.exp(-2j * np.pi * phases)
    return np.diag(diag)


def path_time_matrix(scenario: ChannelScenario, path: PropagationPath,
                     phase_fn=None) -> np.ndarray:
    """Unitary N x N time response of one path: prefix * Doppler * shift."""
    n = scenario.block_length
    ell = path.delay_taps(scenario.sampling_rate_hz)
    f = path.normalized_doppler(n, scenario.sampling_rate_hz)
    return cp_phase_matrix(n, ell, phase_fn) @ doppler_matrix(n, f) @ cyclic_shift_matrix(n, ell)


def path_outer_matrix(path, tx_geom, tx_surface, rx_geom, rx_surface, num_paths):
    """Rank-one spatial matrix of one path, scaled by sqrt(Nt*Nr/P) * gain."""
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    a_rx = steering_vector(rx_geom, rx_surface, path.angles_in)
    a_tx = steering_vector(tx_geom, tx_surface, path.angles_out)
    scaled = np.sqrt(tx_geom.num_elements * rx_geom.num_elements / num_paths) * path.gain
    return scaled * np.outer(a_rx, a_tx.conj())


def oracle_received(scenario, tx_surface, rx_surface, stacked_input, phase_fn=None):
    """Sample-by-sample circular-convolution evaluation of the frame map.

    For every receive stream v, transmit stream u, and path p, the
    contribution to sample k is

        gain_pvu * prefix_phase(k) * exp(-j 2 pi f_p k / N) * s_u[(k - l_p) mod N]

    with gain_pvu the (v, u) entry of the path's scaled steering outer
    product.  No matrices are formed.
    """
    n = scenario.block_length
    ds = scenario.num_streams
    fs = scenario.sampling_rate_hz
    num_paths = scenario.num_paths
    s = np.asarray(stacked_input, dtype=complex)
    out = np.zeros(n * ds, dtype=complex)
    scale = np.sqrt(scenario.tx_geometry.num_elements
                    * scenario.rx_geometry.num_elements / num_paths)
    for path in scenario.paths:
        a_rx = oracle_steering(scenario.rx_geometry, rx_surface,
                               path.angles_in.azimuth, path.angles_in.elevation)
        a_tx = oracle_steering(scenario.tx_geometry, tx_surface,
                               path.angles_out.azimuth, path.angles_out.elevation)
        ell = int(round(path.delay_s * fs))
        f = n * path.doppler_hz / fs
        for v in range(ds):
            for u in range(ds):
                gain = scale * path.gain * a_rx[v] * np.conj(a_tx[u])
                for k in range(n):
                    if phase_fn is not None and k < ell:
                        prefix = np.exp(-2j * np.pi * phase_fn(ell - k))
                    else:
                        prefix = 1.0
                    out[v * n + k] += (gain * prefix * np.exp(-2j * np.pi * f * k / n)
                                       * s[u * n + (k - ell) % n])
    return out


def unvec_frame(y_bar, block_length: int, num_streams: int) -> np.ndarray:
    """Unstack a received frame into a (num_streams, block_length) matrix.

    The stacked vector holds the streams back to back; row v of the
    result is stream v's sample sequence.
    """
    y = np.asarray(y_bar)
    if y.shape != (block_length * num_streams,):
        raise ValueError(
            f"frame has shape {y.shape}, expected ({block_length * num_streams},)")
    return y.reshape(block_length, num_streams, order="F").T


def oracle_td_channel(scenario, tx_surface, rx_surface, phase_fn=None):
    """Full block matrix recovered by pushing basis vectors through the
    sample-by-sample oracle, column by column."""
    size = scenario.block_length * scenario.num_streams
    cols = []
    for i in range(size):
        e = np.zeros(size, dtype=complex)
        e[i] = 1.0
        cols.append(oracle_received(scenario, tx_surface, rx_surface, e, phase_fn))
    return np.column_stack(cols)


def relative_error(a, b, floor=1e-30):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return np.max(np.abs(a - b)) / denom


def _channel_grad(spec, scenario, tx_surface, rx_surface, element, side):
    w = domain_transform(spec)
    wh = w.conj().T
    phase_fn = cp_phase_function(spec)
    n, d = scenario.block_length, scenario.num_streams
    scale = np.sqrt(scenario.tx_geometry.num_elements
                    * scenario.rx_geometry.num_elements / scenario.num_paths)
    out = np.zeros((n * d, n * d), dtype=complex)
    for path in scenario.paths:
        gbar = w @ path_time_matrix(scenario, path, phase_fn) @ wh
        a_rx = steering_vector(scenario.rx_geometry, rx_surface, path.angles_in)
        a_tx = steering_vector(scenario.tx_geometry, tx_surface, path.angles_out)
        if side == "tx":
            d_tx = steering_derivative(scenario.tx_geometry, tx_surface,
                                       path.angles_out, element)
            spatial = scale * path.gain * np.outer(a_rx, d_tx.conj())
        else:
            d_rx = steering_derivative(scenario.rx_geometry, rx_surface,
                                       path.angles_in, element)
            spatial = scale * path.gain * np.outer(d_rx, a_tx.conj())
        out += np.kron(spatial[:d, :d], gbar)
    return out


def channel_grad_tx(spec, scenario, tx_surface, rx_surface, element):
    """Dense partial derivative of the effective channel w.r.t. one transmit
    element's y coordinate (0-based); it lands on the conjugated transmit
    steering factor of every path."""
    if not 0 <= element < scenario.tx_geometry.num_elements:
        raise IndexError(f"tx element {element} out of range")
    return _channel_grad(spec, scenario, tx_surface, rx_surface, element, "tx")


def channel_grad_rx(spec, scenario, tx_surface, rx_surface, element):
    """Dense partial derivative of the effective channel w.r.t. one receive
    element's y coordinate (0-based)."""
    if not 0 <= element < scenario.rx_geometry.num_elements:
        raise IndexError(f"rx element {element} out of range")
    return _channel_grad(spec, scenario, tx_surface, rx_surface, element, "rx")


def gram_grad(h_bar, dh, noise_var):
    """Derivative of H H^H / sigma^2 given dH: (dH H^H + H dH^H) / sigma^2."""
    h = np.asarray(h_bar, dtype=complex)
    d = np.asarray(dh, dtype=complex)
    if h.shape != d.shape:
        raise ValueError("channel and derivative shapes differ")
    return (d @ h.conj().T + h @ d.conj().T) / noise_var


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


def objective_grad_element(h_bar, gram, dh, beta, psi, noise_var):
    """One scalar entry of the objective gradient.

    Rate part: Re tr((I + Q)^-1 dQ) / ln 2 with Q the noise-normalized
    Gram matrix.  Penalty part: beta * Re tr(dH H^H + H dH^H), active only
    while the power floor is violated.
    """
    h = np.asarray(h_bar, dtype=complex)
    d = np.asarray(dh, dtype=complex)
    m = np.eye(h.shape[0]) + np.asarray(gram, dtype=complex)
    solved = np.linalg.solve(m, d)
    value = 2.0 * np.real(np.vdot(h, solved)) / (noise_var * np.log(2.0))
    if sensing_slack(h, psi) < 0.0:
        value += beta * 2.0 * np.real(np.vdot(h, d))
    return float(value)


def dense_objective_gradient(spec, scenario, tx_surface, rx_surface,
                             noise_var, beta, psi):
    """Every element's partial, one dense derivative and solve at a time,
    ordered like ``objective_gradient`` (transmit elements first)."""
    h = effective_channel(spec, scenario, tx_surface, rx_surface)
    gram = h @ h.conj().T / noise_var
    parts = []
    for grad_fn, count in ((channel_grad_tx, scenario.tx_geometry.num_elements),
                           (channel_grad_rx, scenario.rx_geometry.num_elements)):
        for element in range(count):
            dh = grad_fn(spec, scenario, tx_surface, rx_surface, element)
            parts.append(objective_grad_element(h, gram, dh, beta, psi, noise_var))
    return np.array(parts)


def oracle_csv_text(header, rows):
    """CSV text written one value at a time: floats through format(v, ".12g"),
    bools in lower case, anything else through str."""
    def cell(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return format(value, ".12g")
        return str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def brute_force_assignment(cost):
    """Lexicographically first permutation of least total cost, rows to
    distinct columns, found by trying every one in order."""
    rows, cols = np.shape(cost)
    best = None
    for perm in itertools.permutations(range(cols), rows):
        total = sum(cost[i][perm[i]] for i in range(rows))
        if best is None or total < best[0]:
            best = (total, list(perm))
    return best[1]
