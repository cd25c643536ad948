"""Hot numeric kernels: integrand evaluation and the arc-length ODE steppers.

Each kernel has one definition and takes a model object; the formulas are
the model's own (``models``). The quadrature integrand is vectorized numpy.
A single trajectory runs the scalar Dormand-Prince 5(4) stepper on Python
floats (:func:`dp45_callable`, through :func:`dp45_arclength`); lines and
grids run the same stepper batched over many initial conditions
(:func:`dp45_lanes`). Both run forward in time only: every model is
H = αp² + V(q), so a backward piece is the forward piece from (q, −p),
mirrored in p.
"""

import math

import numpy as np

# Negative radicands above this magnitude signal a caller bug; smaller ones
# are turning-point roundoff and clamp to zero.
CLAMP_TOL = 1e-12

BLOWUP_LIMIT = 1e12

STATUS_OK = 0
STATUS_BLOWUP = 1
STATUS_STEP_LIMIT = 2

# Kernels have no compiled path; ``ldbench/run.py`` still records these two
# flags in every run, so they stay as constants.
HAVE_NUMBA = USE_NUMBA = False


def arc_integrand(rad, rad_dq):
    """Arc-length integrand sqrt(1 + (dp/dq)^2) from the radicand p^2 and its
    q-derivative, elementwise; zero where the radicand is <= 0.

    Nodes at or past a turning point have negligible quadrature weight by
    construction, so a zero contribution there is safe.
    """
    rad = np.asarray(rad, dtype=np.float64)
    g = 0.5 * np.asarray(rad_dq, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.hypot(1.0, g / np.sqrt(rad))
    return np.where(rad > 0.0, f, 0.0)


def integrand_values(model, qs, E):
    """:func:`arc_integrand` of ``model``'s branch at the nodes ``qs``."""
    return arc_integrand(model.radicand(qs, E), model.radicand_dq(qs))


def dp45_callable(f, q0, p0, t_end, rtol, atol, max_step, max_steps):
    """Dormand-Prince 5(4) with an augmented arc-length component.

    ``f(q, p) -> (dq/dt, dp/dt)`` is any vector field on Python floats,
    integrated forward over [0, t_end]. Returns (s, q, p, status, nsteps).
    """
    q = float(q0)
    p = float(p0)
    s = 0.0
    t = 0.0
    status = STATUS_OK
    nsteps = 0

    k1q, k1p = f(q, p)
    k1s = math.hypot(k1q, k1p)
    h = min(1e-3 * (1.0 + math.hypot(q, p)) / (1.0 + k1s), t_end, max_step)

    while t < t_end:
        if nsteps >= max_steps:
            status = STATUS_STEP_LIMIT
            break
        nsteps += 1
        if h > t_end - t:
            h = t_end - t
        if h > max_step:
            h = max_step

        k2q, k2p = f(q + h * 0.2 * k1q, p + h * 0.2 * k1p)
        k2s = math.hypot(k2q, k2p)
        k3q, k3p = f(
            q + h * (3.0 / 40.0 * k1q + 9.0 / 40.0 * k2q),
            p + h * (3.0 / 40.0 * k1p + 9.0 / 40.0 * k2p),
        )
        k3s = math.hypot(k3q, k3p)
        k4q, k4p = f(
            q + h * (44.0 / 45.0 * k1q - 56.0 / 15.0 * k2q + 32.0 / 9.0 * k3q),
            p + h * (44.0 / 45.0 * k1p - 56.0 / 15.0 * k2p + 32.0 / 9.0 * k3p),
        )
        k4s = math.hypot(k4q, k4p)
        k5q, k5p = f(
            q
            + h
            * (
                19372.0 / 6561.0 * k1q
                - 25360.0 / 2187.0 * k2q
                + 64448.0 / 6561.0 * k3q
                - 212.0 / 729.0 * k4q
            ),
            p
            + h
            * (
                19372.0 / 6561.0 * k1p
                - 25360.0 / 2187.0 * k2p
                + 64448.0 / 6561.0 * k3p
                - 212.0 / 729.0 * k4p
            ),
        )
        k5s = math.hypot(k5q, k5p)
        k6q, k6p = f(
            q
            + h
            * (
                9017.0 / 3168.0 * k1q
                - 355.0 / 33.0 * k2q
                + 46732.0 / 5247.0 * k3q
                + 49.0 / 176.0 * k4q
                - 5103.0 / 18656.0 * k5q
            ),
            p
            + h
            * (
                9017.0 / 3168.0 * k1p
                - 355.0 / 33.0 * k2p
                + 46732.0 / 5247.0 * k3p
                + 49.0 / 176.0 * k4p
                - 5103.0 / 18656.0 * k5p
            ),
        )
        k6s = math.hypot(k6q, k6p)

        qn = q + h * (
            35.0 / 384.0 * k1q
            + 500.0 / 1113.0 * k3q
            + 125.0 / 192.0 * k4q
            - 2187.0 / 6784.0 * k5q
            + 11.0 / 84.0 * k6q
        )
        pn = p + h * (
            35.0 / 384.0 * k1p
            + 500.0 / 1113.0 * k3p
            + 125.0 / 192.0 * k4p
            - 2187.0 / 6784.0 * k5p
            + 11.0 / 84.0 * k6p
        )
        sn = s + h * (
            35.0 / 384.0 * k1s
            + 500.0 / 1113.0 * k3s
            + 125.0 / 192.0 * k4s
            - 2187.0 / 6784.0 * k5s
            + 11.0 / 84.0 * k6s
        )

        k7q, k7p = f(qn, pn)
        k7s = math.hypot(k7q, k7p)

        eq = h * (
            71.0 / 57600.0 * k1q
            - 71.0 / 16695.0 * k3q
            + 71.0 / 1920.0 * k4q
            - 17253.0 / 339200.0 * k5q
            + 22.0 / 525.0 * k6q
            - 1.0 / 40.0 * k7q
        )
        ep = h * (
            71.0 / 57600.0 * k1p
            - 71.0 / 16695.0 * k3p
            + 71.0 / 1920.0 * k4p
            - 17253.0 / 339200.0 * k5p
            + 22.0 / 525.0 * k6p
            - 1.0 / 40.0 * k7p
        )
        es = h * (
            71.0 / 57600.0 * k1s
            - 71.0 / 16695.0 * k3s
            + 71.0 / 1920.0 * k4s
            - 17253.0 / 339200.0 * k5s
            + 22.0 / 525.0 * k6s
            - 1.0 / 40.0 * k7s
        )

        scq = atol + rtol * max(abs(q), abs(qn))
        scp = atol + rtol * max(abs(p), abs(pn))
        scs = atol + rtol * max(abs(s), abs(sn))
        err = math.sqrt(((eq / scq) ** 2 + (ep / scp) ** 2 + (es / scs) ** 2) / 3.0)

        if err <= 1.0:
            t += h
            q = qn
            p = pn
            s = sn
            k1q, k1p, k1s = k7q, k7p, k7s  # FSAL
            if abs(q) > BLOWUP_LIMIT or abs(p) > BLOWUP_LIMIT:
                status = STATUS_BLOWUP
                break

        if err == 0.0:
            fac = 5.0
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
        # ``not >=`` also stops a NaN h (a field NaN at the start point)
        if not h >= 1e-14 * max(1.0, t_end) and t < t_end:
            status = STATUS_STEP_LIMIT
            break

    return s, q, p, status, nsteps


def dp45_arclength(model, q0, p0, t_end, rtol, atol, max_step, max_steps, reverse):
    """:func:`dp45_callable` on ``model``'s field, time-reversed if ``reverse``.

    The backward piece from (q0, p0) is the forward piece from (q0, −p0)
    with the end momentum mirrored back, bit for bit (see
    ``HamiltonianModel.vector_field``).
    """
    sgn = -1.0 if reverse else 1.0
    s, q, p, status, nsteps = dp45_callable(model.vector_field, q0, sgn * p0, t_end,
                                            rtol, atol, max_step, max_steps)
    return s, q, sgn * p, status, nsteps


def dp45_lanes(f, q0, p0, t_end, rtol, atol, max_step, max_steps):
    """:func:`dp45_callable` vectorized over lanes, one initial condition each.

    Lane ``i`` integrates ``f(q, p)`` forward from ``(q0[i], p0[i])``; ``f``
    takes and returns arrays. There is no time-reversed lane: for
    H = αp² + V(q) the backward piece from (q, p) is the forward piece from
    (q, −p), mirrored in p (see ``temporal._ld_lanes``). Every lane keeps
    its own step size, FSAL derivative, step count and status, and runs the
    scalar stepper's arithmetic and step-size controller in the same order,
    so a lane's result depends on no other lane. Lanes that finish are
    compacted away. Returns arrays (s, q, p, status, nsteps).

    A lane differs from the scalar stepper only where numpy's ``hypot``,
    ``power`` or the array field round differently from ``math.hypot``,
    float ``pow`` or the field on floats (at most an ulp each). Lanes that
    run to ``t_end`` then agree to ~1e-12 relative or better. A lane
    stopped early (blow-up, step limit) stops at the time its own step
    sizes add up to, and the step-size controller can turn that ulp into
    ~1e-7 relative in its partial value and a few steps in its count;
    lines and grids keep the lane's own values.

    Python's ``max(0.2, x)`` drops a NaN ``x``; ``np.fmax`` does the same,
    where ``np.maximum`` would pass a NaN error on into ``h`` and keep the
    lane running to ``max_steps``. A field that is NaN at the start point
    makes the first ``h`` NaN; the step-size floor is tested as
    ``~(h >= h_min)`` so that such a lane stops after one step, as the
    scalar stepper does.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    n = q0.size
    y = np.stack([q0, np.asarray(p0, dtype=np.float64), np.zeros(n)])  # q, p, s
    lane = np.arange(n)
    t = np.zeros(n)
    nsteps = np.zeros(n, dtype=np.int64)
    status = np.full(n, -1, dtype=np.int64)  # -1 while running
    y_out = np.empty((3, n))
    status_out = np.empty(n, dtype=np.int64)
    nsteps_out = np.empty(n, dtype=np.int64)
    h_min = 1e-14 * max(1.0, t_end)

    def field(x):
        """Field and its norm at rows q, p of ``x``, as rows q, p, s."""
        k = np.empty((3, x.shape[1]))
        k[0], k[1] = f(x[0], x[1])
        np.hypot(k[0], k[1], out=k[2])
        return k

    with np.errstate(all="ignore"):
        k1 = field(y)
        h = np.minimum(np.minimum(
            1e-3 * (1.0 + np.hypot(y[0], y[1])) / (1.0 + k1[2]), t_end), max_step)

        while True:
            status[(status < 0) & (t >= t_end)] = STATUS_OK
            status[(status < 0) & (nsteps >= max_steps)] = STATUS_STEP_LIMIT
            done = status >= 0
            if done.any():
                y_out[:, lane[done]] = y[:, done]
                status_out[lane[done]] = status[done]
                nsteps_out[lane[done]] = nsteps[done]
                live = ~done
                lane, y, k1 = lane[live], y[:, live], k1[:, live]
                t, h, nsteps = t[live], h[live], nsteps[live]
                status = status[live]
            if not lane.size:
                break
            nsteps += 1
            h = np.minimum(h, t_end - t)
            h = np.minimum(h, max_step)

            x = y[:2]  # stage inputs need rows q, p only
            k2 = field(x + h * 0.2 * k1[:2])
            k3 = field(x + h * (3.0 / 40.0 * k1[:2] + 9.0 / 40.0 * k2[:2]))
            k4 = field(x + h * (44.0 / 45.0 * k1[:2] - 56.0 / 15.0 * k2[:2]
                                + 32.0 / 9.0 * k3[:2]))
            k5 = field(x + h * (19372.0 / 6561.0 * k1[:2] - 25360.0 / 2187.0 * k2[:2]
                                + 64448.0 / 6561.0 * k3[:2] - 212.0 / 729.0 * k4[:2]))
            k6 = field(x + h * (9017.0 / 3168.0 * k1[:2] - 355.0 / 33.0 * k2[:2]
                                + 46732.0 / 5247.0 * k3[:2] + 49.0 / 176.0 * k4[:2]
                                - 5103.0 / 18656.0 * k5[:2]))
            yn = y + h * (35.0 / 384.0 * k1 + 500.0 / 1113.0 * k3
                          + 125.0 / 192.0 * k4 - 2187.0 / 6784.0 * k5
                          + 11.0 / 84.0 * k6)
            k7 = field(yn)
            e = h * (71.0 / 57600.0 * k1 - 71.0 / 16695.0 * k3
                     + 71.0 / 1920.0 * k4 - 17253.0 / 339200.0 * k5
                     + 22.0 / 525.0 * k6 - 1.0 / 40.0 * k7)

            r = (e / (atol + rtol * np.fmax(np.abs(y), np.abs(yn)))) ** 2
            err = np.sqrt((r[0] + r[1] + r[2]) / 3.0)

            acc = err <= 1.0
            t = np.where(acc, t + h, t)
            y = np.where(acc, yn, y)
            k1 = np.where(acc, k7, k1)  # FSAL
            status[acc & ((np.abs(y[0]) > BLOWUP_LIMIT)
                          | (np.abs(y[1]) > BLOWUP_LIMIT))] = STATUS_BLOWUP

            fac = np.where(err == 0.0, 5.0,
                           np.fmin(5.0, np.fmax(0.2, 0.9 * err ** -0.2)))
            h = h * fac
            status[(status < 0) & ~(h >= h_min) & (t < t_end)] = STATUS_STEP_LIMIT

    return y_out[2], y_out[0], y_out[1], status_out, nsteps_out
