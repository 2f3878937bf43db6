"""Orthogonal rotation of coefficient matrices under the Crawford-Ferguson
and Orthomax criterion families.

The optimizer is a cyclic sequence of pairwise (Jacobi-style) plane
rotations. Restricted to one plane, the CF criterion is exactly
``c0 + c3*cos(4*theta) + c4*sin(4*theta)`` (terms involving the untouched
columns are invariant), and c3, c4 are closed-form fourth-order moments of
the plane's two columns, which generalizes Kaiser's varimax pair angle to
the CF family (Browne 2001). Every plane step is a global minimizer of its
plane, which makes the sweep trace monotone.

Orthogonal CF minimization at kappa is equivalent to maximizing the
Orthomax objective p*sum(b^4) - p*kappa*sum_j(colsumsq_j)^2 (Crawford &
Ferguson), so Orthomax presets are dispatched through kappa = c/p. Note
that ``orthomax_value`` evaluates the two Orthomax terms with positive
signs (the printed form, convenient for identities on matrices with equal
column norms); the optimizer always works with the CF form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_finite
from .errors import ZeroRow


@dataclass(frozen=True)
class RotationCriterion:
    """family is 'crawford-ferguson' (param = kappa in [0, 1]) or
    'orthomax' (param = c >= 0)."""

    family: str
    param: float

    def __post_init__(self):
        if self.family == "crawford-ferguson":
            if not 0.0 <= self.param <= 1.0:
                raise ValueError("kappa must be in [0, 1]")
        elif self.family == "orthomax":
            if self.param < 0.0:
                raise ValueError("c must be >= 0")
        else:
            raise ValueError(f"unknown criterion family {self.family!r}")

    def kappa(self, p):
        """Equivalent CF kappa for a p-row coefficient matrix."""
        if self.family == "crawford-ferguson":
            return self.param
        return self.param / p

    @classmethod
    def quartimax(cls):
        return cls("orthomax", 0.0)

    @classmethod
    def varimax(cls):
        return cls("orthomax", 1.0)

    @classmethod
    def equamax(cls, d):
        return cls("orthomax", d / 2.0)

    @classmethod
    def crawford_ferguson(cls, kappa):
        return cls("crawford-ferguson", kappa)


@dataclass(frozen=True)
class RotationResult:
    b: np.ndarray
    o: np.ndarray
    criterion_trace: np.ndarray
    kaiser: bool
    converged: bool
    sweeps_used: int
    criterion: RotationCriterion


def cf_value(b, kappa):
    """Crawford-Ferguson complexity of a coefficient matrix.

    (1-kappa) * sum_i sum_{j != k} b_ij^2 b_ik^2
      + kappa * sum_j sum_{i != k} b_ij^2 b_kj^2
    """
    b2 = np.asarray(b, float) ** 2
    b4 = np.sum(b2**2)
    row = np.sum(np.sum(b2, axis=1) ** 2) - b4
    col = np.sum(np.sum(b2, axis=0) ** 2) - b4
    return (1.0 - kappa) * row + kappa * col


def orthomax_value(b, c):
    """Orthomax evaluation p * sum(b^4) + c * sum_j (sum_i b_ij^2)^2."""
    b2 = np.asarray(b, float) ** 2
    p = b2.shape[0]
    return p * np.sum(b2**2) + c * np.sum(np.sum(b2, axis=0) ** 2)


def _plane_angle(u, v, kappa):
    """Angle minimizing the CF criterion over a rotation of columns (u, v).

    With z = u + iv and w = z^2 = (u^2 - v^2) + 2iuv, rotating by theta maps
    z to z e^{-i theta}, and the plane-restricted criterion is
    g(theta) = const + Re(e^{-4i theta} W) / 4 with
    W = kappa (sum w)^2 - sum w^2. Its minimizer is arg(-W) / 4 (0 when the
    criterion is flat in the plane, W = 0).
    """
    w = (u + 1j * v) ** 2
    s = complex(w.sum())
    big_w = kappa * s * s - complex(w @ w)
    if big_w == 0.0:
        return 0.0
    return math.atan2(-big_w.imag, -big_w.real) / 4.0


def _sweep(b, o, kappa):
    """One full cycle of pairwise plane rotations, in place.

    b' and o' are held as one contiguous d x (p + d) row block, so a plane
    (j, k) reads two rows and rotates both with a single 2 x 2 product.
    """
    p, d = b.shape
    rows = np.hstack([b.T, o.T])
    for j in range(d - 1):
        for k in range(j + 1, d):
            theta = _plane_angle(rows[j, :p], rows[k, :p], kappa)
            if theta == 0.0:
                continue
            ct, st = math.cos(theta), math.sin(theta)
            pair = rows[j : k + 1 : k - j]  # view of rows j and k
            pair[...] = np.array([[ct, st], [-st, ct]]) @ pair
    b[...] = rows[:, :p].T
    o[...] = rows[:, p:].T


def _trace_value(b, criterion, kappa):
    """Value recorded in the trace: CF for the CF family; for Orthomax the
    maximized equivalent p*sum(b^4) - c*sum_j(colsumsq)^2."""
    if criterion.family == "crawford-ferguson":
        return cf_value(b, kappa)
    b2 = np.asarray(b, float) ** 2
    p = b2.shape[0]
    return p * np.sum(b2**2) - criterion.param * np.sum(np.sum(b2, axis=0) ** 2)


def _random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rotate(a, criterion, kaiser=False, tol=1e-8, max_sweeps=1000, restarts=1, seed=0):
    """Rotate a p x d coefficient matrix to optimize the given criterion.

    With ``kaiser`` the rows are scaled to unit L2 norm before rotation and
    scaled back afterwards (the rescaling commutes with the right-side
    rotation, so b = a @ o still holds for the original a). Extra restarts
    start from random orthogonal matrices; the best final criterion wins,
    ties broken by restart index; ``restarts`` must be at least 1. A NaN or
    infinite entry raises ``NonFiniteInput``.
    """
    a = np.asarray(a, float)
    p, d = a.shape
    _check_finite(a)
    if d < 2:
        raise ValueError("need at least 2 columns to rotate")
    if p < d:
        raise ValueError("need p >= d")
    if restarts < 1:
        raise ValueError("need restarts >= 1")
    if kaiser:
        row_norms = np.linalg.norm(a, axis=1)
        zero = np.nonzero(row_norms == 0.0)[0]
        if zero.size:
            raise ZeroRow(int(zero[0]))
        work = a / row_norms[:, None]
    else:
        work = a
    kappa = criterion.kappa(p)
    minimize = criterion.family == "crawford-ferguson"

    rng = np.random.default_rng(seed)
    best = None
    for restart in range(restarts):
        o = np.eye(d) if restart == 0 else _random_orthogonal(d, rng)
        b = work @ o
        trace = [_trace_value(b, criterion, kappa)]
        converged = False
        sweeps = 0
        for sweeps in range(1, max_sweeps + 1):
            _sweep(b, o, kappa)
            trace.append(_trace_value(b, criterion, kappa))
            change = abs(trace[-1] - trace[-2])
            if change <= tol * max(1.0, abs(trace[-2])):
                converged = True
                break
        candidate = (trace[-1], o, b, trace, converged, sweeps)
        if (
            best is None
            or (minimize and candidate[0] < best[0])
            or (not minimize and candidate[0] > best[0])
        ):
            best = candidate

    _, o, b, trace, converged, sweeps = best
    if kaiser:
        b = b * row_norms[:, None]
    return RotationResult(
        b=b,
        o=o,
        criterion_trace=np.asarray(trace),
        kaiser=kaiser,
        converged=converged,
        sweeps_used=sweeps,
        criterion=criterion,
    )


def rotated_scores(x, v, o):
    """Scores X @ (V @ O) of the rotated components."""
    return np.asarray(x, float) @ (np.asarray(v, float) @ np.asarray(o, float))
