"""Shared test helpers: the hypothesis profile, random PD matrices, an
independent vertex enumeration and LP oracle, a Cholesky factorization counter,
the near-pair distances and the 5-node star."""

import itertools

import numpy as np
import pytest

from hypothesis import settings

from coreglasso.synth import sample_coordinates

# One hypothesis profile for the suite: a solve's time varies with the
# machine, so no example has a deadline.  Each test sets its max_examples.
settings.register_profile("coreglasso", deadline=None)
settings.load_profile("coreglasso")


def rand_pd(n, rng, n_samples=None, shift=0.5):
    """Well-conditioned random PD matrix A A^T / k + shift I."""
    k = n_samples or 3 * n
    a = rng.standard_normal((n, k))
    return a @ a.T / k + shift * np.eye(n)


def pair_bounds(n, dmat, e, eps_w):
    """Upper bounds on c_i + c_j, from first principles."""
    b = np.full((n, n), 1.0 - eps_w)
    if e > 0:
        off = ~np.eye(n, dtype=bool)
        b[off] += e * np.log(dmat[off])
    np.fill_diagonal(b, np.inf)
    return b


# ``sample_coordinates(8, seed=0)`` distances (those of ``sample --n 8
# --with-coordinates``) with nodes 0 and 1 moved 1e-4 apart, below the 2.4e-4
# at which the uniform start M/N breaks their bound at e = 0.09.
NEAR_PAIR8 = sample_coordinates(8, seed=0)[1].values.copy()
NEAR_PAIR8[0, 1] = NEAR_PAIR8[1, 0] = 1e-4
NEAR_PAIR8.setflags(write=False)

# The 5-node star: hub 0 joined to leaves 1-4.
STAR = np.zeros((5, 5))
STAR[0, 1:] = STAR[1:, 0] = 1.0
STAR.setflags(write=False)


def lp_vertices(bounds, mass, tol=1e-9):
    """Every basic feasible solution of the score polytope, by enumeration.

    Builds every vertex candidate from subsets of the active-constraint
    pool (budget equality plus n-1 rows drawn from the box and pairwise
    bounds) and returns the feasible ones as the rows of an array, in
    enumeration order and with repeats (a degenerate vertex comes from
    several subsets); the array has no rows when the polytope is empty.
    """
    n = bounds.shape[0]
    cands = []
    for i in range(n):
        row = np.zeros(n)
        row[i] = 1.0
        cands.append((row, 0.0))
        cands.append((row.copy(), 1.0))
    for i in range(n):
        for j in range(i + 1, n):
            row = np.zeros(n)
            row[i] = 1.0
            row[j] = 1.0
            cands.append((row, bounds[i, j]))

    combos = list(itertools.combinations(range(len(cands)), n - 1))
    mats = np.empty((len(combos), n, n))
    rhs = np.empty((len(combos), n))
    for k, combo in enumerate(combos):
        mats[k, 0] = np.ones(n)
        rhs[k, 0] = mass
        for r, idx in enumerate(combo):
            mats[k, r + 1] = cands[idx][0]
            rhs[k, r + 1] = cands[idx][1]
    keep = np.abs(np.linalg.det(mats)) > 1e-9
    if not keep.any():
        return np.empty((0, n))
    solutions = np.linalg.solve(mats[keep], rhs[keep][..., None])[..., 0]

    feasible = []
    for x in solutions:
        if x.min() < -tol or x.max() > 1.0 + tol:
            continue
        if abs(x.sum() - mass) > tol:
            continue
        sums = x[:, None] + x[None, :]
        if np.any(sums > bounds + tol):
            continue
        feasible.append(x)
    return np.array(feasible).reshape(-1, n)


def lp_vertex_oracle(gains, bounds, mass, tol=1e-9):
    """Brute-force LP optimum over the vertices of :func:`lp_vertices`:
    (best value, first argmax), or (-inf, None) when the polytope is empty."""
    best, best_x = -np.inf, None
    for x in lp_vertices(bounds, mass, tol):
        value = float(gains @ x)
        if value > best:
            best, best_x = value, x
    return best, best_x


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Count every Cholesky factorization the package makes: calls through
    ``coreglasso.model.cho_factor`` and through ``np.linalg.cholesky``."""
    import coreglasso.model

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(coreglasso.model, "cho_factor", counted(coreglasso.model.cho_factor))
    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
    return calls
