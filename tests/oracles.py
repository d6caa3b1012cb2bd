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


def hankel_matrix(moments):
    """The (k+1) x (k+1) Hankel matrix [y_(i+j)] of 1-D moments y_0 .. y_2k."""
    y = np.asarray(moments, dtype=float)
    k = (y.size - 1) // 2
    return np.array([[y[i + j] for j in range(k + 1)] for i in range(k + 1)])


def localizing_matrix(moments, a, b):
    """The k x k localizing matrix of y_0 .. y_2k for (x - a)(b - x) >= 0:
    the Riesz functional of (x - a)(b - x) x^(i+j), entry by entry."""
    y = np.asarray(moments, dtype=float)
    k = (y.size - 1) // 2
    return np.array([
        [(a + b) * y[i + j + 1] - y[i + j + 2] - a * b * y[i + j] for j in range(k)]
        for i in range(k)
    ])


def _psd_side(matrices, margin):
    smallest = min(np.linalg.eigvalsh(m)[0] for m in matrices)
    if smallest >= margin:
        return True
    if smallest <= -margin:
        return False
    return None


def line_moment_vector(moments, margin):
    """Whether 1-D moments y_0 .. y_2k are those of a measure on R.

    Hamburger: a positive definite Hankel matrix makes y a moment vector,
    and one that is not positive semidefinite rules it out (Curto & Fialkow
    1991).  True when the smallest eigenvalue is at least ``margin``, False
    when it is at most -``margin``, None in between.
    """
    return _psd_side([hankel_matrix(moments)], margin)


def interval_moment_vector(moments, a, b, margin):
    """Whether 1-D moments y_0 .. y_2k are those of a measure on [a, b].

    Truncated Hausdorff: y is a moment vector when its Hankel matrix and
    its localizing matrix for (x - a)(b - x) are both positive semidefinite
    (Curto & Fialkow 1991; Schmuedgen, The Moment Problem, 2017).  True when
    both smallest eigenvalues are at least ``margin``, False when one is at
    most -``margin``, None in between.
    """
    return _psd_side([hankel_matrix(moments), localizing_matrix(moments, a, b)], margin)


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
