"""Hot numeric kernels: branch/integrand evaluation and the arc-length ODE stepper.

Every kernel exists on two paths. The default path compiles scalar loops
with numba's ``@njit``; the fallback path is vectorized numpy (or plain
Python for the stepper). The fallback is selected automatically when numba
is not importable, or explicitly by setting ``LDKIT_NO_NUMBA=1`` in the
environment before import. Both paths evaluate the same formulas; results
agree to floating-point noise (libm differences only). The stepper batched
over many initial conditions, :func:`dp45_lanes`, exists in numpy only.

Built-in models are addressed by small integer codes so the jitted code
can dispatch without Python callables.
"""

import math
import os

import numpy as np

PENDULUM = 0
DUFFING = 1
FISHTAIL = 2
OSCILLATOR = 3
REPULSOR = 4

# Negative radicands above this magnitude signal a caller bug; smaller ones
# are turning-point roundoff and clamp to zero.
CLAMP_TOL = 1e-12

BLOWUP_LIMIT = 1e12

STATUS_OK = 0
STATUS_BLOWUP = 1
STATUS_STEP_LIMIT = 2

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via LDKIT_NO_NUMBA instead
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("LDKIT_NO_NUMBA", "").lower() not in (
    "1",
    "true",
    "yes",
)


# ----------------------------------------------------------------------
# numpy path (always defined; doubles as the reference implementation)
# ----------------------------------------------------------------------

def np_radicand(code, q, E):
    """Squared nonnegative momentum branch p^2(q; E) for a coded model.

    The formulas are algebraically factored so that the inevitable
    cancellation near turning points happens between as few, as small terms
    as possible (e.g. 2(E + cos q + 1) == 2E + 4 cos^2(q/2)).
    """
    q = np.asarray(q, dtype=np.float64)
    if code == PENDULUM:
        return 2.0 * E + 4.0 * np.cos(0.5 * q) ** 2
    if code == DUFFING:
        return 2.0 * E + 0.5 * q * q * (2.0 - q * q)
    if code == FISHTAIL:
        return E - (q - 2.0) * (q + 4.0) ** 2
    if code == OSCILLATOR:
        return 2.0 * E - q * q
    if code == REPULSOR:
        return 2.0 * E + q * q
    raise ValueError(f"unknown model code {code}")


def np_radicand_dq(code, q):
    """d/dq of the branch radicand."""
    q = np.asarray(q, dtype=np.float64)
    if code == PENDULUM:
        return -2.0 * np.sin(q)
    if code == DUFFING:
        return 2.0 * q - 2.0 * q ** 3
    if code == FISHTAIL:
        return -3.0 * q * (q + 4.0)
    if code == OSCILLATOR:
        return -2.0 * q
    if code == REPULSOR:
        return 2.0 * q
    raise ValueError(f"unknown model code {code}")


def np_energy(code, q, p):
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if code == PENDULUM:
        return 0.5 * p * p - np.cos(q) - 1.0
    if code == DUFFING:
        return 0.5 * p * p - 0.5 * q * q + 0.25 * q ** 4
    if code == FISHTAIL:
        return p * p + q ** 3 + 6.0 * q * q - 32.0
    if code == OSCILLATOR:
        return 0.5 * (q * q + p * p)
    if code == REPULSOR:
        return 0.5 * (p * p - q * q)
    raise ValueError(f"unknown model code {code}")


def np_vector_field(code, q, p):
    """Hamiltonian vector field (dq/dt, dp/dt) for a coded model, on arrays.

    The same formulas as :func:`_vf_pair`, which stays on ``math`` because the
    scalar stepper runs faster on it.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if code == PENDULUM:
        return p, -np.sin(q)
    if code == DUFFING:
        return p, q - q ** 3
    if code == FISHTAIL:
        return 2.0 * p, -(3.0 * q * q + 12.0 * q)
    if code == OSCILLATOR:
        return p, -q
    if code == REPULSOR:
        return p, q
    raise ValueError(f"unknown model code {code}")


def np_branch_values(code, qs, E):
    """Nonnegative branch sqrt(radicand); NaN marks out-of-domain points."""
    rad = np_radicand(code, qs, E)
    out = np.sqrt(np.clip(rad, 0.0, None))
    return np.where(rad < -CLAMP_TOL, np.nan, out)


def np_integrand_values(code, qs, E):
    """Arc-length integrand sqrt(1 + (dp/dq)^2); zero where the radicand is <= 0.

    Nodes at or past a turning point have negligible quadrature weight by
    construction, so a zero contribution there is safe.
    """
    rad = np_radicand(code, qs, E)
    g = 0.5 * np_radicand_dq(code, qs)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.hypot(1.0, g / np.sqrt(rad))
    return np.where(rad > 0.0, f, 0.0)


def np_polyline_length(code, lo, hi, E, n):
    """Chord-sum arc length over ``n`` cosine-graded segments of [lo, hi]."""
    i = np.arange(n + 1, dtype=np.float64)
    qs = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * i / n))
    ps = np_branch_values(code, qs, E)
    if np.isnan(ps).any():
        return math.nan
    return float(np.hypot(np.diff(qs), np.diff(ps)).sum())


def _vf_pair(code, q, p):
    """Hamiltonian vector field (dq/dt, dp/dt) for a coded model."""
    if code == PENDULUM:
        return p, -math.sin(q)
    if code == DUFFING:
        return p, q - q ** 3
    if code == FISHTAIL:
        return 2.0 * p, -(3.0 * q * q + 12.0 * q)
    if code == OSCILLATOR:
        return p, -q
    return p, q  # REPULSOR


def dp45_callable(f, q0, p0, t_end, rtol, atol, max_step, max_steps):
    """Dormand-Prince 5(4) with an augmented arc-length component.

    ``f(q, p) -> (dq/dt, dp/dt)`` is an arbitrary Python vector field (sign
    already applied for time reversal). Returns (s, q, p, status, nsteps).
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
        if h < 1e-14 * max(1.0, t_end) and t < t_end:
            status = STATUS_STEP_LIMIT
            break

    return s, q, p, status, nsteps


def np_dp45_arclength(code, q0, p0, t_end, rtol, atol, max_step, max_steps, reverse):
    sgn = -1.0 if reverse else 1.0

    def f(q, p):
        fq, fp = _vf_pair(code, q, p)
        return sgn * fq, sgn * fp

    return dp45_callable(f, q0, p0, t_end, rtol, atol, max_step, max_steps)


def dp45_lanes(f, q0, p0, sgn, t_end, rtol, atol, max_step, max_steps):
    """:func:`dp45_callable` vectorized over lanes, one initial condition each.

    Lane ``i`` integrates ``sgn[i] * f(q, p)`` from ``(q0[i], p0[i])``; ``f``
    takes and returns arrays. Every lane keeps its own step size, FSAL
    derivative, step count and status, and runs the scalar stepper's
    arithmetic and step-size controller in the same order, so a lane's
    result depends on no other lane. Lanes that finish are compacted away.
    Returns arrays (s, q, p, status, nsteps).

    A lane differs from the scalar stepper only where numpy's ``hypot``,
    ``power`` or the array field round differently from ``math.hypot``,
    float ``pow`` or the field on floats (at most an ulp each). Lanes that
    run to ``t_end`` then agree to ~1e-12 relative or better. A lane
    stopped early (blow-up, step limit) stops at the time its own step
    sizes add up to, and the step-size controller can turn that ulp into
    ~1e-8 relative; ``temporal._ld_lanes`` runs such lanes again on the
    scalar stepper.

    Python's ``max(0.2, x)`` drops a NaN ``x``; ``np.fmax`` does the same,
    where ``np.maximum`` would pass a NaN error on into ``h`` and keep the
    lane running to ``max_steps``.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    n = q0.size
    y = np.stack([q0, np.asarray(p0, dtype=np.float64), np.zeros(n)])  # q, p, s
    sgn = np.broadcast_to(np.asarray(sgn, dtype=np.float64), (n,))
    lane = np.arange(n)
    t = np.zeros(n)
    nsteps = np.zeros(n, dtype=np.int64)
    status = np.full(n, -1, dtype=np.int64)  # -1 while running
    y_out = np.empty((3, n))
    status_out = np.empty(n, dtype=np.int64)
    nsteps_out = np.empty(n, dtype=np.int64)
    h_min = 1e-14 * max(1.0, t_end)

    def field(x, sgn):
        """Signed field and its norm at rows q, p of ``x``, as rows q, p, s."""
        fq, fp = f(x[0], x[1])
        k = np.empty((3, x.shape[1]))
        np.multiply(sgn, fq, out=k[0])
        np.multiply(sgn, fp, out=k[1])
        np.hypot(k[0], k[1], out=k[2])
        return k

    with np.errstate(all="ignore"):
        k1 = field(y, sgn)
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
                status, sgn = status[live], sgn[live]
            if not lane.size:
                break
            nsteps += 1
            h = np.minimum(h, t_end - t)
            h = np.minimum(h, max_step)

            x = y[:2]  # stage inputs need rows q, p only
            k2 = field(x + h * 0.2 * k1[:2], sgn)
            k3 = field(x + h * (3.0 / 40.0 * k1[:2] + 9.0 / 40.0 * k2[:2]), sgn)
            k4 = field(x + h * (44.0 / 45.0 * k1[:2] - 56.0 / 15.0 * k2[:2]
                                + 32.0 / 9.0 * k3[:2]), sgn)
            k5 = field(x + h * (19372.0 / 6561.0 * k1[:2] - 25360.0 / 2187.0 * k2[:2]
                                + 64448.0 / 6561.0 * k3[:2] - 212.0 / 729.0 * k4[:2]),
                       sgn)
            k6 = field(x + h * (9017.0 / 3168.0 * k1[:2] - 355.0 / 33.0 * k2[:2]
                                + 46732.0 / 5247.0 * k3[:2] + 49.0 / 176.0 * k4[:2]
                                - 5103.0 / 18656.0 * k5[:2]), sgn)
            yn = y + h * (35.0 / 384.0 * k1 + 500.0 / 1113.0 * k3
                          + 125.0 / 192.0 * k4 - 2187.0 / 6784.0 * k5
                          + 11.0 / 84.0 * k6)
            k7 = field(yn, sgn)
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
            status[(status < 0) & (h < h_min) & (t < t_end)] = STATUS_STEP_LIMIT

    return y_out[2], y_out[0], y_out[1], status_out, nsteps_out


# ----------------------------------------------------------------------
# numba path
# ----------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _rad(code, q, E):
        if code == 0:
            return 2.0 * E + 4.0 * math.cos(0.5 * q) ** 2
        elif code == 1:
            return 2.0 * E + 0.5 * q * q * (2.0 - q * q)
        elif code == 2:
            return E - (q - 2.0) * (q + 4.0) ** 2
        elif code == 3:
            return 2.0 * E - q * q
        else:
            return 2.0 * E + q * q

    @njit(cache=True, nogil=True)
    def _rad_dq(code, q):
        if code == 0:
            return -2.0 * math.sin(q)
        elif code == 1:
            return 2.0 * q - 2.0 * q ** 3
        elif code == 2:
            return -3.0 * q * (q + 4.0)
        elif code == 3:
            return -2.0 * q
        else:
            return 2.0 * q

    @njit(cache=True, nogil=True)
    def nb_branch_values(code, qs, E):
        out = np.empty(qs.shape[0])
        for i in range(qs.shape[0]):
            r = _rad(code, qs[i], E)
            if r < -CLAMP_TOL:
                out[i] = np.nan
            elif r <= 0.0:
                out[i] = 0.0
            else:
                out[i] = math.sqrt(r)
        return out

    @njit(cache=True, nogil=True)
    def nb_integrand_values(code, qs, E):
        out = np.empty(qs.shape[0])
        for i in range(qs.shape[0]):
            r = _rad(code, qs[i], E)
            if r > 0.0:
                g = 0.5 * _rad_dq(code, qs[i])
                out[i] = math.hypot(1.0, g / math.sqrt(r))
            else:
                out[i] = 0.0
        return out

    @njit(cache=True, nogil=True)
    def nb_polyline_length(code, lo, hi, E, n):
        half = 0.5 * (hi - lo)
        q_prev = lo
        r = _rad(code, lo, E)
        if r < -CLAMP_TOL:
            return np.nan
        p_prev = math.sqrt(r) if r > 0.0 else 0.0
        total = 0.0
        for i in range(1, n + 1):
            q = lo + half * (1.0 - math.cos(math.pi * i / n))
            r = _rad(code, q, E)
            if r < -CLAMP_TOL:
                return np.nan
            p = math.sqrt(r) if r > 0.0 else 0.0
            total += math.hypot(q - q_prev, p - p_prev)
            q_prev = q
            p_prev = p
        return total

    @njit(cache=True, nogil=True)
    def nb_dp45_arclength(code, q0, p0, t_end, rtol, atol, max_step, max_steps, reverse):
        sgn = -1.0 if reverse else 1.0

        def f(q, p):
            if code == 0:
                fq = p
                fp = -math.sin(q)
            elif code == 1:
                fq = p
                fp = q - q ** 3
            elif code == 2:
                fq = 2.0 * p
                fp = -(3.0 * q * q + 12.0 * q)
            elif code == 3:
                fq = p
                fp = -q
            else:
                fq = p
                fp = q
            return sgn * fq, sgn * fp

        q = q0
        p = p0
        s = 0.0
        t = 0.0
        status = 0
        nsteps = 0

        k1q, k1p = f(q, p)
        k1s = math.hypot(k1q, k1p)
        h = min(1e-3 * (1.0 + math.hypot(q, p)) / (1.0 + k1s), t_end, max_step)

        while t < t_end:
            if nsteps >= max_steps:
                status = 2
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
            err = math.sqrt(
                ((eq / scq) ** 2 + (ep / scp) ** 2 + (es / scs) ** 2) / 3.0
            )

            if err <= 1.0:
                t += h
                q = qn
                p = pn
                s = sn
                k1q = k7q
                k1p = k7p
                k1s = k7s
                if abs(q) > BLOWUP_LIMIT or abs(p) > BLOWUP_LIMIT:
                    status = 1
                    break

            if err == 0.0:
                fac = 5.0
            else:
                fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= fac
            if h < 1e-14 * max(1.0, t_end) and t < t_end:
                status = 2
                break

        return s, q, p, status, nsteps


# public bindings -------------------------------------------------------

if USE_NUMBA:
    branch_values = nb_branch_values
    integrand_values = nb_integrand_values
    polyline_length = nb_polyline_length
    dp45_arclength = nb_dp45_arclength
else:
    branch_values = np_branch_values
    integrand_values = np_integrand_values
    polyline_length = np_polyline_length
    dp45_arclength = np_dp45_arclength
