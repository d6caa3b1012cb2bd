"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: bounded product enumeration, direct
powering, math.fsum, exhaustive subset solves and closed-form moments.
None of it shares code paths with the library.
"""

import itertools
import math

import numpy as np


def enumerate_multi_indices(weights, max_degree):
    """All exponent tuples with weighted degree <= max_degree, brute force."""
    ranges = [range(max_degree // k + 1) for k in weights]
    return {
        alpha
        for alpha in itertools.product(*ranges)
        if sum(k * e for k, e in zip(weights, alpha)) <= max_degree
    }


def naive_monomial(point, exponents):
    """Direct powering, one pow per coordinate."""
    value = 1.0
    for x, e in zip(point, exponents):
        value *= float(x) ** e
    return value


def naive_embedding(indices, point):
    return np.array([naive_monomial(point, alpha) for alpha in indices])


def fsum_moments(atoms, weights, indices):
    """Per-feature math.fsum over per-atom products."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    return np.array(
        [
            math.fsum(w * naive_monomial(x, alpha) for x, w in zip(atoms, weights))
            for alpha in indices
        ]
    )


def enumerate_positive_cubatures(atoms, weights, indices, max_nodes, tol=1e-9):
    """Every atom subset of size <= max_nodes that carries strictly positive
    weights reproducing the measure's moments exactly.

    Returns a list of (index tuple, weight array).  Exponential in the atom
    count; only for micro inputs.
    """
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    target = fsum_moments(atoms, weights, indices)
    scale = 1.0 + np.abs(target).max()
    found = []
    for size in range(1, max_nodes + 1):
        for subset in itertools.combinations(range(atoms.shape[0]), size):
            cols = np.array(
                [[naive_monomial(atoms[i], alpha) for i in subset] for alpha in indices]
            )
            solution, *_ = np.linalg.lstsq(cols, target, rcond=None)
            if (solution > tol).all() and np.abs(cols @ solution - target).max() <= tol * scale:
                found.append((subset, solution))
    return found


def cone_member_bruteforce(target, columns, tol=1e-9):
    """Membership in the cone of the columns by exhaustive subset solves.

    Sound and complete for exact data by conic Caratheodory: a member is a
    nonnegative combination of at most D columns.
    """
    columns = np.asarray(columns, dtype=float)
    d, m = columns.shape
    target = np.asarray(target, dtype=float)
    scale = 1.0 + np.abs(target).max()
    if np.abs(target).max() <= tol * scale:
        return True
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(m), size):
            cols = columns[:, list(subset)]
            solution, *_ = np.linalg.lstsq(cols, target, rcond=None)
            if (solution >= -tol).all() and np.abs(cols @ solution - target).max() <= tol * scale:
                return True
    return False


def hull_member_bruteforce(target, columns, tol=1e-9):
    """Convex hull membership: cone membership of the lifted system."""
    columns = np.asarray(columns, dtype=float)
    lifted = np.vstack([columns, np.ones(columns.shape[1])])
    lifted_target = np.append(np.asarray(target, dtype=float), 1.0)
    return cone_member_bruteforce(lifted_target, lifted, tol)


def gaussian_moment(exponents):
    """E[x^alpha] for the standard normal N(0, I) on R^N, in closed form.

    Coordinates are independent, and E[x^e] is 0 for odd e and the double
    factorial (e - 1)!! for even e.
    """
    return float(math.prod(0 if e % 2 else math.prod(range(e - 1, 0, -2)) for e in exponents))


def student_t_moment(nu, k):
    """E[x^k] for Student's t with nu degrees of freedom, in closed form.

    Odd moments are 0; an even moment is
    nu^(k/2) Gamma((k+1)/2) Gamma((nu-k)/2) / (sqrt(pi) Gamma(nu/2)).
    Moments of order k >= nu are infinite or undefined, so they raise.
    """
    if k >= nu:
        raise ValueError(f"Student-t with nu = {nu} has no finite moment of order {k}")
    if k % 2:
        return 0.0
    return (
        nu ** (k / 2)
        * math.gamma((k + 1) / 2)
        * math.gamma((nu - k) / 2)
        / (math.sqrt(math.pi) * math.gamma(nu / 2))
    )
