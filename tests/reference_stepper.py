"""Plain step-by-step form of the two combined schemes, an oracle for the kernel.

Each step is written out with ``@``, ``np.linalg.solve`` and a per-node
residual: the Euler z-step (I - h Ginv B) z + h Ginv Q1 f (method 1, method-2
starter) or the leapfrog one z_prev + 2h Ginv Q1 f - 2h Ginv B z, then the
restricted Newton correction of u = N c.  Nothing is precomputed or shared
with the library kernel, and the k = 1 case is not special.
"""

import numpy as np


def reference_solve(dae, decomp, mesh, x0, leapfrog=False, tol=None, max_iter=1,
                    threshold=1e6):
    """Returns (times, states, z, u, residuals, outcome, detail).

    ``outcome`` is "completed", "blow_up" (``detail`` the time) or
    "corrector_failed" (``detail`` the failed step); arrays stop at the last
    computed node.  ``tol=None`` makes one correction per step, otherwise
    corrections repeat until ||c - W f|| <= tol, at most ``max_iter`` times.
    """
    b, ginv, q1, q2 = dae.pencil.b, decomp.g_inv, decomp.q1, decomp.q2
    basis = decomp.x2_basis
    k = basis.shape[1]
    coeff = basis.T @ ginv @ q2
    h = mesh.h

    def residual(t, x):
        v = q2 @ (b @ x - dae.f(t, x))
        return float(np.linalg.norm(v))

    def correct(t, z, c):
        updates = 0
        while True:
            x = z + basis @ c
            r = c - coeff @ dae.f(t, x)
            if tol is not None:
                if np.linalg.norm(r) <= tol:
                    return c
                if updates == max_iter:
                    return None
            newton = np.eye(k) - coeff @ dae.jac_f(t, x) @ basis
            try:
                delta = np.linalg.solve(newton, r)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(delta)):
                return None
            c = c - delta
            updates += 1
            if tol is None:
                return c

    z = decomp.p1 @ x0
    c = basis.T @ (decomp.p2 @ x0)
    times, zs, us = [mesh.t0], [z], [basis @ c]
    z_prev = None
    outcome, detail = "completed", None
    for i in range(mesh.n_steps):
        t = mesh.t0 + i * h
        x = zs[-1] + us[-1]
        if not x @ x <= threshold ** 2:
            outcome, detail = "blow_up", t
            break
        fx = dae.f(t, x)
        if leapfrog and i:
            z_next = z_prev + (2.0 * (h * (ginv @ q1))) @ fx - ((2.0 * h) * (ginv @ b)) @ z
        else:
            z_next = (np.eye(len(z)) - h * (ginv @ b)) @ z + (h * (ginv @ q1)) @ fx
        c_next = correct(mesh.t0 + (i + 1) * h, z_next, c) if k else c
        if c_next is None:
            outcome, detail = "corrector_failed", i + 1
            break
        z_prev, z, c = z, z_next, c_next
        times.append(mesh.t0 + (i + 1) * h)
        zs.append(z)
        us.append(basis @ c)
    else:
        x = zs[-1] + us[-1]
        if not x @ x <= threshold ** 2:
            outcome, detail = "blow_up", times[-1]
    states = np.array(zs) + np.array(us)
    residuals = np.array([residual(t, x) for t, x in zip(times, states)])
    return (np.array(times), states, np.array(zs), np.array(us), residuals,
            outcome, detail)
