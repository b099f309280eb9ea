"""Independent reference implementations the tests compare against.

Everything here is written in the most literal form available: recursions
carried in output coordinates rather than offset coordinates, dense matrices
assembled from hand stencils, closed-form eigenvalues, and brute-force
quadratic models.  None of it shares code with the package, so agreement is
evidence rather than tautology.
"""

import numpy as np


def stop_reference(values, a, b, z0):
    """Projection recursion for the stop output, carried in z-coordinates."""
    values = np.asarray(values, dtype=float)
    z = np.empty(values.size)
    z[0] = min(max(z0, a), b)
    for k in range(1, values.size):
        z[k] = min(max(z[k - 1] + (values[k] - values[k - 1]), a), b)
    return z


def play_reference(values, a, b, z0):
    values = np.asarray(values, dtype=float)
    return values - stop_reference(values, a, b, z0) + (z0 - values[0])


def stop_derivative_reference(v, h, a, b, z0):
    """One-sided derivative recursion keyed on the pre-projection value."""
    v = np.asarray(v, dtype=float)
    h = np.asarray(h, dtype=float)
    z = stop_reference(v, a, b, z0)
    d = np.zeros(v.size)
    for k in range(1, v.size):
        x = z[k - 1] + (v[k] - v[k - 1])
        dd = d[k - 1] + (h[k] - h[k - 1])
        if a < x < b:
            d[k] = dd
        elif x == a:
            d[k] = max(dd, 0.0)
        elif x == b:
            d[k] = min(dd, 0.0)
        else:
            d[k] = 0.0
    return d


def stop_derivative_step(a, b, w_prev, v_next, omega, dv_next):
    """One step of the stop derivative in offset coordinates, omega = zeta - dv,
    by scalar predicates on the base offset ``w_prev`` and the bounds moved by
    ``v_next``: a reset strictly outside, the one-sided max/min on a bound
    (a's first where both bounds round alike), pass-through inside."""
    lo = a - v_next
    hi = b - v_next
    if w_prev < lo or w_prev > hi:
        return -dv_next
    if w_prev == lo:
        neg = -dv_next
        return neg if neg > omega else omega
    if w_prev == hi:
        neg = -dv_next
        return neg if neg < omega else omega
    return omega


def insert_midpoints(times, values, segments):
    """Insert the midpoint of each listed segment; the path is unchanged."""
    times = list(map(float, times))
    values = list(map(float, values))
    for i in sorted(set(segments), reverse=True):
        tm = 0.5 * (times[i] + times[i + 1])
        vm = 0.5 * (values[i] + values[i + 1])
        times.insert(i + 1, tm)
        values.insert(i + 1, vm)
    return np.asarray(times), np.asarray(values)


def dirichlet_eigenvalues_1d(n, length, diffusion):
    """Spectrum of the interior-node operator with both ends pinned."""
    h = length / (n - 1)
    j = np.arange(1, n - 1)
    return (4.0 * diffusion / h**2) * np.sin(j * np.pi / (2 * (n - 1))) ** 2


def neumann_eigenvalues_1d(n, length, diffusion):
    """Spectrum of the reflecting-end pencil, including the zero mode."""
    h = length / (n - 1)
    j = np.arange(0, n)
    return (4.0 * diffusion / h**2) * np.sin(j * np.pi / (2 * (n - 1))) ** 2


def quad_weights_1d(n, length):
    h = length / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def generator_dense_1d(n, length, diffusion, left, right):
    """Dense realized generator on active nodes, from hand stencils.

    Interior rows are d*(-1, 2, -1)/h^2; a reflecting end row is
    2*d*(1, -1)/h^2; a pinned end is removed from the active set.
    Returns (A_active, active_mask).
    """
    h = length / (n - 1)
    c = diffusion / h**2
    A = np.zeros((n, n))
    for i in range(1, n - 1):
        A[i, i - 1] = -c
        A[i, i] = 2 * c
        A[i, i + 1] = -c
    A[0, 0], A[0, 1] = 2 * c, -2 * c
    A[n - 1, n - 1], A[n - 1, n - 2] = 2 * c, -2 * c
    active = np.ones(n, dtype=bool)
    if left == "dirichlet":
        active[0] = False
    if right == "dirichlet":
        active[-1] = False
    return A[np.ix_(active, active)], active


def generator_dense_2d(nx, ny, lx_len, ly_len, diffusion, labels):
    """Dense realized generator of one 2D component on its active nodes, in
    x-major order: the Kronecker sum Ax (x) I + I (x) Ay of the two axes' 1D
    generators.  ``labels`` maps each side to its label.  Returns
    (A_active, active_mask)."""
    ax, x_active = generator_dense_1d(nx, lx_len, diffusion, labels["left"], labels["right"])
    ay, y_active = generator_dense_1d(ny, ly_len, diffusion, labels["bottom"], labels["top"])
    a = np.kron(ax, np.eye(ay.shape[0])) + np.kron(np.eye(ax.shape[0]), ay)
    return a, np.outer(x_active, y_active).ravel()


def node_sets_2d(nx, ny, lx_len, ly_len, labels):
    """Node data of one 2D component, node by node in x-major order.

    A node on a Dirichlet side (a mixed corner included) is pinned; every
    other node is active, with relative trapezoid weight 1/2 per axis on
    which it is an end node.  An active node on a Neumann side is a boundary
    node whose surface weight sums, side by side in the order left, right,
    bottom, top, the 1D trapezoid weight of the side's edge at that node.
    Returns (active, rel_weights, neumann_nodes, surface_weights).
    """
    hx, hy = lx_len / (nx - 1), ly_len / (ny - 1)
    active, rel, nodes, surface = [], [], [], []
    for ix in range(nx):
        for iy in range(ny):
            x_end, y_end = ix in (0, nx - 1), iy in (0, ny - 1)
            on = {"left": ix == 0, "right": ix == nx - 1,
                  "bottom": iy == 0, "top": iy == ny - 1}
            if any(on[side] and labels[side] == "dirichlet" for side in on):
                continue
            active.append(ix * ny + iy)
            rel.append((0.5 if x_end else 1.0) * (0.5 if y_end else 1.0))
            weight = 0.0
            for side in ("left", "right", "bottom", "top"):
                if on[side]:
                    # left/right edges run along y, bottom/top along x
                    end, h = (y_end, hy) if side in ("left", "right") else (x_end, hx)
                    weight += h / 2 if end else h
            if any(on.values()):
                nodes.append(ix * ny + iy)
                surface.append(weight)
    return np.array(active), np.array(rel), np.array(nodes, dtype=int), np.array(surface)


def s_operator_norm(weight, quadrature):
    """Norm of y -> sum_j sum_i q_i w_ji y_ji against the quadrature norm:
    sqrt(sum q w^2), attained at y = w (Cauchy-Schwarz)."""
    return float(np.sqrt(np.einsum("ji,ji,i->", weight, weight, quadrature)))


def semigroup_step_dense(A_active, y_active, dt):
    """One implicit Euler step (I + dt*A)^{-1} y by dense solve."""
    n = A_active.shape[0]
    return np.linalg.solve(np.eye(n) + dt * A_active, y_active)


def imex_reference_1d(A_active, active, quad_w, s_weight, f, u, dt, n_steps,
                      a, b, z0):
    """Dense replay of the coupled recursion for one component in 1D.

    ``f(y, z)`` maps a node array and a scalar to a node array; ``u`` has
    shape (N+1, n).  The hysteresis state is carried in z-coordinates.
    Returns (states, stops) with states of shape (N+1, n).
    """
    n = active.size
    y = np.zeros(n)
    z = min(max(z0, a), b)
    v_prev = float(np.sum(quad_w * s_weight * y))
    states = [y.copy()]
    stops = [z]
    for k in range(n_steps):
        rhs = y[active] + dt * (f(y, z)[active] + u[k][active])
        y_new = np.zeros(n)
        y_new[active] = semigroup_step_dense(A_active, rhs, dt)
        v = float(np.sum(quad_w * s_weight * y_new))
        z = min(max(z + (v - v_prev), a), b)
        v_prev = v
        y = y_new
        states.append(y.copy())
        stops.append(z)
    return np.asarray(states), np.asarray(stops)


def response_model(problem, spec, solve):
    """Brute-force quadratic model of the tracking cost over coefficients.

    ``solve(coefficients)`` must return the state history (N+1, m, n).
    Valid whenever the coefficient-to-state map is affine.  Returns
    (M, b, const) with J(c) = c M c / 2 + kappa c N c / 2 - b c + const.
    """
    n = spec.n_coefficients
    dt = problem.solver.dt
    qw = problem.disc.quadrature
    y0 = solve(np.zeros(n))
    responses = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        responses.append(solve(e) - y0)
    mismatch0 = y0 - problem.target
    M = np.empty((n, n))
    b = np.empty(n)
    for i in range(n):
        b[i] = -dt * np.einsum("kmi,kmi,i->", mismatch0, responses[i], qw)
        for j in range(i, n):
            M[i, j] = M[j, i] = dt * np.einsum(
                "kmi,kmi,i->", responses[i], responses[j], qw)
    const = 0.5 * dt * np.einsum("kmi,kmi,i->", mismatch0, mismatch0, qw)
    return M, b, const


def normal_equation_coefficients(problem, spec, solve, gram):
    """Minimizer of the quadratic model: (M + kappa N) c = b."""
    M, b, _ = response_model(problem, spec, solve)
    return np.linalg.solve(M + problem.kappa * gram, b)


# --- the step rules as allocating expressions -------------------------------
# Each rule below returns a fresh array, as the solves' rules once did.  The
# marches take the package's step object duck-typed: a right-hand-side
# buffer ``buf`` that ``step(y, out)`` and ``adjoint(out)`` solve from.


def clip_directional_reference(x, cap, d):
    """One-sided derivative of clip(x, -cap, cap) along d, by masks."""
    inner = np.where(np.abs(x) < cap, d, 0.0)
    inner = np.where(x == cap, np.minimum(d, 0.0), inner)
    return np.where(x == -cap, np.maximum(d, 0.0), inner)


def reaction_value_reference(kind, p, y, z):
    """f(y, z) of a catalog reaction as one expression."""
    if kind == "linear":
        return p[0] + p[1] * y + p[2] * z
    if kind == "saturating":
        return p[0] * np.tanh(p[1] * y) + p[2] * np.tanh(p[3] * z)
    return np.clip(p[0] * y * (1.0 - y / p[1]), -p[2], p[2]) + p[3] * z


def reaction_directional_reference(kind, p, y, z, dy, dz):
    """f'[(y, z); (dy, dz)] of a catalog reaction as one expression."""
    if kind == "linear":
        return p[1] * dy + p[2] * dz
    if kind == "saturating":
        ty, tz = np.tanh(p[1] * y), np.tanh(p[3] * z)
        return p[0] * p[1] * (1.0 - ty * ty) * dy + p[2] * p[3] * (1.0 - tz * tz) * dz
    inner = p[0] * y * (1.0 - y / p[1])
    d_inner = p[0] * (1.0 - 2.0 * y / p[1]) * dy
    return clip_directional_reference(inner, p[2], d_inner) + p[3] * dz


def reference_march(stepper, n_steps, rhs, advance, quadrature, slicing=None):
    """The IMEX recursion over the whole path with an allocating ``rhs(k, y)``,
    whose result is copied into the stepper's buffer before each step.

    ``advance(k, y)`` records step k.  ``slicing`` is None for the direct
    march, else (slice_steps, tol, max_iters) of Picard sweeps: each freezes
    the right-hand side at the previous iterate (first the constant slice
    start), and the slice ends once the largest quadrature norm of a step's
    update is at most tol.  Returns the path and the per-slice sweep counts.
    """
    path = np.zeros((n_steps + 1, *stepper.buf.shape))

    def step(k, y, at, out):
        stepper.buf[...] = rhs(k, at)
        stepper.step(y, out)

    if slicing is None:
        for k in range(n_steps):
            step(k, path[k], path[k], path[k + 1])
            advance(k + 1, path[k + 1])
        return path, []
    span, tol, max_iters = slicing
    sweeps = []
    for start in range(0, n_steps, span):
        window = path[start:min(start + span, n_steps) + 1]
        prev = np.repeat(window[:1], len(window), axis=0)
        for i in range(1, len(window)):
            advance(start + i, prev[i])
        for sweep in range(1, max_iters + 1):
            for i in range(len(window) - 1):
                step(start + i, window[i], prev[i], window[i + 1])
            for i in range(1, len(window)):
                advance(start + i, window[i])
            d = window - prev
            if np.sqrt(np.einsum("kji,kji,i->k", d, d, quadrature)).max() <= tol:
                break
            prev = window.copy()
        else:
            raise RuntimeError(f"slice at step {start} did not contract")
        sweeps.append(sweep)
    return path, sweeps


def reference_adjoint(stepper, seed, gy, gz, interior, s_field, dt):
    """The backward sweep with an allocated adjoint, copied into the stepper's
    buffer at every step.  ``gy`` and ``gz`` are the explicit step's partials
    1 + dt f_y and dt f_z per step, ``interior[k]`` whether step k + 1 leaves
    the stop's offset inside its band.  Raises FloatingPointError naming the
    first step whose solve is not finite."""
    n_steps = seed.shape[0] - 1
    grad = np.zeros_like(seed)
    x_bar = np.zeros_like(seed[0])
    lam = np.array(seed[n_steps])
    mu = 0.0
    for k in range(n_steps - 1, -1, -1):
        if not interior[k]:
            lam = lam - mu * s_field
            mu = 0.0
        stepper.buf[...] = lam
        stepper.adjoint(x_bar)
        if not np.all(np.isfinite(x_bar)):
            raise FloatingPointError(k)
        grad[k] = x_bar * dt
        wz_bar = float(gz[k].ravel() @ x_bar.ravel())
        mu += wz_bar
        lam = gy[k] * x_bar + wz_bar * s_field + seed[k]
    return grad
