"""Convergence orders against a manufactured true solution.

Acceptance criteria 2 and 3 fit self-referenced ladders: they show that a
scheme converges, not that it converges to the DAE's solution.  Here the
right-hand side is f(t, x) = g(x) + s(t) with g = 0.3 tanh and
s = A x*' + B x* - g(x*), so x*(t) = sin(omega t + theta) solves
d/dt[A x] + B x = f exactly, and every x*(t) is consistent because Q2 A = 0.
Each ladder level is measured against x* itself, sampled at the base nodes
(an external reference for ``empirical_order``).

The two problems were drawn once from the seeds below; their ladders from 40
base steps are in the asymptotic range, with every pairwise order within 0.03
of the nominal one.  A coarser start, or another draw, can make the coarsest
level's max-norm error fall below its asymptotic value and tilt the fit.
"""

import numpy as np
import pytest

from conftest import random_index1_pencil, trajectory_from_states
from pencildae import (Mesh, Method, SemilinearDAE, SolverConfig, empirical_order,
                       get_preset, projectors_algebraic)

MESH = Mesh(0.0, 1.0, 40)


def manufactured(pencil, rng):
    """(dae, x*) on ``pencil``, with x*'s frequencies and phases drawn from ``rng``."""
    omega = rng.uniform(0.5, 2.0, pencil.n)
    theta = rng.uniform(0.0, 2.0 * np.pi, pencil.n)

    def exact(t):
        return np.sin(omega * t + theta)

    def f(t, x):
        xs = exact(t)
        source = pencil.a @ (omega * np.cos(omega * t + theta)) + pencil.b @ xs \
            - 0.3 * np.tanh(xs)
        return 0.3 * np.tanh(x) + source

    def jac_f(t, x):
        return np.diag(0.3 / np.cosh(x) ** 2)

    return SemilinearDAE(pencil=pencil, f=f, jac_f=jac_f), exact


def circuit_problem():   # k = 1
    return manufactured(get_preset("sec5_cubic").dae.pencil, np.random.default_rng(7))


def seeded_problem():    # n = 6, k = 3
    rng = np.random.default_rng(6)
    pencil, _, _, _ = random_index1_pencil(rng, n=6, k=3)
    return manufactured(pencil, rng)


@pytest.fixture(scope="module", params=[circuit_problem, seeded_problem],
                ids=["circuit", "seeded"])
def problem(request):
    """(problem name, dae, decomposition, x*(t0), the external reference)."""
    dae, exact = request.param()
    decomp = projectors_algebraic(dae.pencil)
    states = np.array([exact(t) for t in MESH.times()])
    return (request.param.__name__, dae, decomp, exact(MESH.t0),
            trajectory_from_states(MESH, states, decomp))


# the finest level's (z, u) max-norm errors as measured, per problem and
# (method, corrector); h = 1/640
FINEST_ERRORS = {
    ("circuit_problem", "method1", None): (1.280e-3, 5.902e-5),
    ("circuit_problem", "method1", 1e-12): (1.280e-3, 5.903e-5),
    ("circuit_problem", "method2", None): (7.280e-6, 3.879e-7),
    ("circuit_problem", "method2", 1e-12): (7.279e-6, 3.379e-7),
    ("seeded_problem", "method1", None): (4.880e-3, 8.348e-4),
    ("seeded_problem", "method1", 1e-12): (4.880e-3, 8.355e-4),
    ("seeded_problem", "method2", None): (2.105e-5, 3.145e-6),
    ("seeded_problem", "method2", 1e-12): (2.106e-5, 3.833e-6),
}


@pytest.mark.parametrize("tol", [None, 1e-12], ids=["single_step", "iterate"])
@pytest.mark.parametrize("method, order", [(Method.METHOD1, 1), (Method.METHOD2, 2)],
                         ids=["method1", "method2"])
def test_order_against_the_true_solution(problem, method, order, tol):
    name, dae, decomp, x0, reference = problem
    estimate = empirical_order(dae, decomp, MESH, x0, refinements=4,
                               reference=reference, config=SolverConfig(method, tol=tol))
    expected = FINEST_ERRORS[name, method.value, tol]
    for component, finest in zip((estimate.z, estimate.u), expected):
        assert order - 0.1 <= component.asymptotic_order <= order + 0.1, component
        # a wrong error constant fails too, not only a wrong rate
        assert finest / 2 <= component.errors[-1] <= finest * 2, component
