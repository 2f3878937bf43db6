"""Orthogonal rotation of coefficient matrices under the Crawford-Ferguson
and Orthomax criterion families.

The optimizer is a cyclic sequence of pairwise (Jacobi-style) plane
rotations. Restricted to one plane, the CF criterion is exactly
``c0 + c3*cos(4*theta) + c4*sin(4*theta)`` (terms involving the untouched
columns are invariant), and c3, c4 are closed-form fourth-order moments of
the plane's two columns, which generalizes Kaiser's varimax pair angle to
the CF family (Browne 2001). Every plane step is a global minimizer of its
plane, which makes the sweep trace monotone.

A sweep takes the planes in the cyclic order (0, 1), (0, 2), ..., (d - 2,
d - 1), but evaluates them one level j + k at a time. The planes of a level
share no row, and each row meets its planes in the cyclic order, so a level
can rotate all of its planes in one batched product and still give every
plane the same two rows, and the sweep the same bits, as a plane-by-plane
loop.

Consecutive sweeps overlap. Row j meets its planes at levels j .. j + d - 1
(row 0 from level 1, row d - 1 up to level 2d - 3), so level l + d of one
sweep and level l of the next share no row and run as one batch: after the
first, a sweep costs d batches instead of 2d - 3. Each row is copied aside
as it ends a sweep, so the trace, the convergence test and the result read
the bits of sweeps run one after another. Below the last level, a level
ends one row of every lane, row j at level j + d - 1, and that copy is the
strided slice of every d-th row from j; only the last level, which ends
rows d - 2 and d - 1, copies by index.

Restarts run together, as lanes of one sweep: the row blocks of all running
restarts are stacked, and a level turns the planes of every lane at once.
Each plane still sees only its own lane's two rows, so every restart gets
the bits it would get alone, while a level's numpy calls are paid once for
all lanes rather than once per restart.

Orthogonal CF minimization at kappa is equivalent to maximizing the
Orthomax objective p*sum(b^4) - p*kappa*sum_j(colsumsq_j)^2 (Crawford &
Ferguson), so Orthomax presets are dispatched through kappa = c/p.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import EPS, _check_bool, _check_finite, _check_shape, _count
from .errors import ConfigError


@dataclass(frozen=True)
class RotationCriterion:
    """family is 'crawford-ferguson' (param = kappa in [0, 1]) or
    'orthomax' (param = c >= 0, finite). A param that is not a real number
    (None, a string) is a ``ConfigError`` too, as in selection's checks."""

    family: str
    param: float

    def __post_init__(self):
        real = isinstance(self.param, numbers.Real)
        if self.family == "crawford-ferguson":
            if not (real and 0.0 <= self.param <= 1.0):
                raise ConfigError("kappa must be in [0, 1]")
        elif self.family == "orthomax":
            if not (real and 0.0 <= self.param < math.inf):
                raise ConfigError("c must be finite and >= 0")
        else:
            raise ConfigError(f"unknown criterion family {self.family!r}")

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
        """Orthomax with c = d / 2 for d rotated columns. c is fixed here:
        the pipeline builds the criterion once, from nr, and a deflated
        step that rotates fewer than nr columns keeps c = nr / 2."""
        if not isinstance(d, numbers.Real):
            raise ConfigError(f"equamax d {d!r} is not a number")
        return cls("orthomax", d / 2.0)

    @classmethod
    def crawford_ferguson(cls, kappa):
        return cls("crawford-ferguson", kappa)


# The named criteria that need no parameter but the number d of rotated
# columns (which only equamax reads), in the CLI's order: name -> constructor
# of d. Crawford-Ferguson takes its kappa instead.
PRESETS = {
    "varimax": lambda d: RotationCriterion.varimax(),
    "quartimax": lambda d: RotationCriterion.quartimax(),
    "equamax": RotationCriterion.equamax,
}


@dataclass(frozen=True)
class RotationResult:
    """The winning restart's rotation; ``restart`` is its index, 0 for the
    identity start."""

    b: np.ndarray
    o: np.ndarray
    criterion_trace: np.ndarray
    kaiser: bool
    converged: bool
    sweeps_used: int
    criterion: RotationCriterion
    restart: int


def cf_value(b, kappa):
    """Crawford-Ferguson complexity of a coefficient matrix.

    (1-kappa) * sum_i sum_{j != k} b_ij^2 b_ik^2
      + kappa * sum_j sum_{i != k} b_ij^2 b_kj^2
    """
    b2 = np.asarray(b, float) ** 2
    b4 = (b2**2).sum()
    row = (b2.sum(axis=1) ** 2).sum() - b4
    col = (b2.sum(axis=0) ** 2).sum() - b4
    return (1.0 - kappa) * row + kappa * col


def _plane_angle(s, sq, kappa):
    """Angle minimizing the CF criterion over a rotation of columns (u, v).

    With z = u + iv and w = z^2 = (u^2 - v^2) + 2iuv, rotating by theta maps
    z to z e^{-i theta}, and the plane-restricted criterion is
    g(theta) = const + Re(e^{-4i theta} W) / 4 with
    W = kappa (sum w)^2 - sum w^2. Given s = sum w and sq = w . w, its
    minimizer is arg(-W) / 4 (0 when the criterion is flat in the plane,
    W = 0).
    """
    big_w = kappa * s * s - sq
    if big_w == 0.0:
        return 0.0
    return math.atan2(-big_w.imag, -big_w.real) / 4.0


@functools.lru_cache(maxsize=None)
def _levels(d, lanes=1):
    """The planes (j, k), j < k < d, grouped by level j + k = 1 .. 2d - 3,
    as one (m, 2) array of row pairs per level. With ``lanes`` stacked
    d-row lanes, each level holds lane r's planes shifted by r * d rows,
    lane after lane, as one (lanes * m, 2) array."""
    offsets = d * np.arange(lanes)[:, None, None]
    return tuple(
        (
            np.array([(j, level - j) for j in range(max(0, level - d + 1), (level + 1) // 2)])
            + offsets
        ).reshape(-1, 2)
        for level in range(1, 2 * d - 2)
    )


def _lane_rows(b, o):
    """A lane's d x (p + d) row block (b' | o'), stored column-major."""
    return np.hstack([b.T, o.T])


@functools.lru_cache(maxsize=None)
def _batches(d, lanes, first, ahead):
    """The batches of one ``_sweep`` call, as (pairs, ends) per batch.

    ``pairs`` is a level of this sweep, from level 1 when ``first`` and
    otherwise from the first level the previous call left to run. With
    ``ahead``, a level above lag = min(d, 2d - 3) also holds the next
    sweep's level that is lag lower. ``ends`` picks the rows that end this
    sweep at that level, row j at level min(j + d - 1, 2d - 3), or is None:
    the basic slice of row j of every lane where one row per lane ends, so
    that its copy is a strided one, and an index array at the last level,
    where two do. With no level of the next sweep in the call, every row is
    taken at the last batch instead, as a full slice.
    """
    levels = _levels(d, lanes)
    lag = min(d, 2 * d - 3)
    overlap = ahead and 2 * d - 3 > lag
    offsets = d * np.arange(lanes)[:, None]
    batches = []
    for level in range(1 if first else 2 * d - 2 - lag, 2 * d - 2):
        pairs, ends = levels[level - 1], None
        if overlap and level > lag:
            pairs = np.vstack([pairs, levels[level - lag - 1]])
        ending = [j for j in range(d) if min(j + d - 1, 2 * d - 3) == level]
        if overlap and len(ending) == 1:
            ends = slice(ending[0], None, d)
        elif overlap and ending:
            ends = (offsets + ending).ravel()
        batches.append((pairs, ends))
    if not overlap:
        batches[-1] = (batches[-1][0], slice(None))
    return tuple(batches)


def _turn(rows, pairs, p, kappa):
    """Turn each plane of ``pairs``, an (m, 2) array of row pairs in which
    no row appears twice, to its optimal angle, in place.

    ``rows`` is stored column-major, so the take from ``rows.T`` copies
    only the gathered entries. The gathered (p + d, m, 2) block holds each
    plane's (u, v) side by side, so its first p rows read as complex
    z = u + iv. A sign of zero in the real part can differ from
    ``u + 1j*v``, but only in a zero imaginary part of w = z^2, which the
    sums wash out: numpy's reductions start from +0. Each plane's sum w and
    w . w come from one contiguous w, and its angle from the scalar
    ``_plane_angle`` and ``math`` trig (numpy's ``arctan2`` rounds
    differently); the planes with a nonzero angle turn in one batched 2 x 2
    product, and the rest stay as they are, since a turn by the identity
    can change the sign of a zero.
    """
    gathered = rows.T.take(pairs, axis=1)
    w = gathered[:p].view(complex)[..., 0].T.copy()
    np.square(w, out=w)
    thetas = list(map(
        _plane_angle,
        w.sum(axis=1).tolist(),
        np.matmul(w[:, None, :], w[:, :, None]).ravel().tolist(),
        itertools.repeat(kappa),
    ))
    block = gathered.transpose(1, 2, 0)  # (m, 2, p + d)
    if 0.0 in thetas:
        turned = [i for i, theta in enumerate(thetas) if theta != 0.0]
        if not turned:
            return
        pairs, block = pairs[turned], block[turned]
        thetas = [thetas[i] for i in turned]
    turns = []
    for theta in thetas:
        ct, st = math.cos(theta), math.sin(theta)
        turns += (ct, st, -st, ct)
    rows[pairs] = np.array(turns).reshape(-1, 2, 2) @ block


def _sweep(rows, done, p, kappa, first, ahead):
    """Finish one cycle of pairwise plane rotations of every lane, in place,
    and leave each row's state at the end of that cycle in ``done``.

    ``rows`` stacks the lanes' row blocks (b' | o') along the rows, as
    ``np.vstack`` of ``_lane_rows``; lane r holds rows r * d ..
    r * d + d - 1, and its plane (j, k) reads and rotates its rows j and k.
    The planes run in the cyclic order (0, 1), (0, 2), ..., (d - 2, d - 1),
    one level j + k at a time: the planes of a level share no row, and the
    planes touching row j, (0, j), ..., (j - 1, j), (j, j + 1), ...,
    (j, d - 1), have strictly increasing levels, so every plane sees the
    same two rows as in a plane-by-plane loop over its lane alone.

    Row j's planes span levels j .. j + d - 1 (row 0: 1 .. d - 1, row d - 1:
    d - 1 .. 2d - 3), so level l + d of one sweep and level l of the next
    share no row either, and each row still ends one sweep before it starts
    the next. With ``ahead`` a call runs the next sweep's first d - 3
    levels (none for d <= 3) in the same batches as this sweep's last ones,
    and the next call (``first`` false) starts where it stopped: after the
    first, a sweep costs d batches instead of 2d - 3. ``done`` takes each
    row as it ends this sweep, before the next sweep turns it (see
    ``_batches``), so it holds the bits of a sweep that stopped there.
    """
    d = rows.shape[1] - p
    for pairs, ends in _batches(d, rows.shape[0] // d, first, ahead):
        _turn(rows, pairs, p, kappa)
        if ends is not None:
            done[ends] = rows[ends]


def _trace_value(b, criterion, kappa):
    """Value recorded in the trace: CF for the CF family; for Orthomax the
    maximized equivalent p*sum(b^4) - c*sum_j(colsumsq)^2."""
    if criterion.family == "crawford-ferguson":
        return cf_value(b, kappa)
    b2 = np.asarray(b, float) ** 2
    p = b2.shape[0]
    return p * (b2**2).sum() - criterion.param * (b2.sum(axis=0) ** 2).sum()


def _random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _check_settings(criterion, tol, max_sweeps, restarts, seed, kaiser):
    """``ConfigError`` unless criterion is a RotationCriterion, tol is
    finite and >= 0, max_sweeps and restarts are integers >= 1, seed is an
    integer >= 0 and kaiser is a bool: what ``rotate`` checks at entry, and
    the pipeline config when it is built."""
    if not isinstance(criterion, RotationCriterion):
        raise ConfigError(f"criterion {criterion!r} is not a RotationCriterion")
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise ConfigError(f"rotation tol {tol!r} is not a finite number of at least 0")
    _count(max_sweeps, "max_sweeps")
    _count(restarts, "restarts")
    _count(seed, "seed", least=0)
    _check_bool(kaiser, "kaiser")


def rotate(a, criterion, kaiser=False, tol=1e-8, max_sweeps=1000, restarts=1, seed=0):
    """Rotate a p x d coefficient matrix to optimize the given criterion.

    With ``kaiser`` the rows are scaled to unit L2 norm before rotation and
    scaled back afterwards (the rescaling commutes with the right-side
    rotation, so b = a @ o still holds for the original a). A row at
    round-off level, of norm at most p * eps times the largest row norm,
    has no direction: it keeps weight 1, so a constant column's zero row
    stays zero and the row of a variable that deflation has explained away
    cannot steer the rotation.

    Restart 0 starts from the identity and extra restarts from random
    orthogonal matrices, all drawn up front from ``seed`` (which is checked
    with one restart too, although none is drawn); ``restarts`` must be at
    least 1. The restarts run together as lanes of one sweep (see
    ``_sweep``), and a lane retires when it converges, so each restart gets
    the same bits as a rotation of its own, while a level's numpy calls are
    paid once for all running lanes: at 4 sweeps of a 48 x 16 matrix, 2
    restarts cost about 1.5 times one and 8 restarts about 4.6 times. The
    best final criterion wins, ties broken by the lower restart index, and
    ``RotationResult.restart`` names the winner. The sweeps are a local
    search: with one restart, on input without a clear simple structure,
    they can stop in a worse optimum than a gradient-projection rotation
    from the identity. A NaN or infinite entry raises ``NonFiniteInput``;
    a criterion that is not a RotationCriterion, or an a that is not 2-d,
    is a ``ConfigError``.
    """
    _check_settings(criterion, tol, max_sweeps, restarts, seed, kaiser)
    a = np.asarray(a, float)
    _check_shape(a)
    p, d = a.shape
    _check_finite(a)
    if d < 2:
        raise ConfigError("need at least 2 columns to rotate")
    if p < d:
        raise ConfigError("need p >= d")
    if kaiser:
        row_norms = np.linalg.norm(a, axis=1)
        row_norms[row_norms <= p * EPS * row_norms.max()] = 1.0
        work = a / row_norms[:, None]
    else:
        work = a
    kappa = criterion.kappa(p)

    o_lanes = [np.eye(d)]
    if restarts > 1:
        rng = np.random.default_rng(seed)
        o_lanes += [_random_orthogonal(d, rng) for _ in range(restarts - 1)]
    b_lanes = [work @ o for o in o_lanes]
    traces = [[_trace_value(b, criterion, kappa)] for b in b_lanes]
    converged = [False] * restarts
    sweeps = [0] * restarts
    running = list(range(restarts))
    rows = np.vstack([_lane_rows(b, o) for b, o in zip(b_lanes, o_lanes)])
    done = np.empty_like(rows)
    for sweep in range(1, max_sweeps + 1):
        _sweep(rows, done, p, kappa, sweep == 1, sweep < max_sweeps)
        for lane, r in enumerate(running):
            b_lanes[r][...] = done[lane * d : (lane + 1) * d, :p].T
            o_lanes[r][...] = done[lane * d : (lane + 1) * d, p:].T
            trace = traces[r]
            trace.append(_trace_value(b_lanes[r], criterion, kappa))
            sweeps[r] = sweep
            converged[r] = abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2]))
        if any(converged[r] for r in running):
            # a converged lane's start on its next sweep is dropped
            keep = [lane for lane, r in enumerate(running) if not converged[r]]
            if not keep:
                break
            running = [running[lane] for lane in keep]
            idx = (d * np.array(keep)[:, None] + np.arange(d)).ravel()
            # kept column-major, as ``_turn`` gathers from it
            rows, done = np.asfortranarray(rows[idx]), done[idx]

    # the best final criterion, minimized for CF and maximized for
    # Orthomax; index() takes the first, so a tie goes to the lower restart
    finals = [t[-1] if criterion.family == "crawford-ferguson" else -t[-1] for t in traces]
    best = finals.index(min(finals))
    b, o = b_lanes[best], o_lanes[best]
    if kaiser:
        b = b * row_norms[:, None]
    return RotationResult(
        b=b,
        o=o,
        criterion_trace=np.asarray(traces[best]),
        kaiser=kaiser,
        converged=converged[best],
        sweeps_used=sweeps[best],
        criterion=criterion,
        restart=best,
    )

