"""Reconstruction of a signal ray from magnitude measurements.

Real case: the coefficient vector of any preimage is a sign flip of the
measured magnitudes. N rows chosen by column-pivoted Gram-Schmidt form
an invertible pivot block, so a preimage is fixed by its signs on the
block. All sign patterns of the block are solved in one batched product
and filtered by a per-row bound propagated from the acceptance threshold;
the full patterns of the few survivors then get the exhaustive search's
own least-squares acceptance test. Every accepted preimage's block
pattern passes the filter, so the search matches exhaustive enumeration
at a cost of 2^(N-1) block patterns times M rows.

Complex case: the phases live on a torus and no finite enumeration exists.
From random phase starts, Levenberg-Marquardt (damped Gauss-Newton, as in
Gao and Xu's phaseless recovery; Wirtinger flow is gradient descent on the
same loss) minimizes the intensity residual |Q y|^2 - a^2 over coordinates
y of an orthonormal basis Q of the coefficient range. error_reduction, the
alternating projection between that range and the magnitude torus
(Griffin-Lim), stays public as a primitive. Returned results are always
re-verified against the measurements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .frames import COMPLEX, REAL, Frame, analysis_matrix, coefficient_range, encode_vector
from .linalg import DEFAULT_TOL, Tolerance, least_squares
from .magnitude import as_magnitudes, canonical_ray, magnitude_map, ray_equal

__all__ = [
    "STATUS_UNIQUE",
    "STATUS_AMBIGUOUS",
    "STATUS_NO_SOLUTION",
    "STATUS_HEURISTIC_SUCCESS",
    "STATUS_HEURISTIC_FAIL",
    "ReconstructionResult",
    "SearchBudgetExceeded",
    "reconstruct_real",
    "error_reduction",
    "reconstruct_complex",
    "result_to_dict",
]

STATUS_UNIQUE = "unique"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_NO_SOLUTION = "no_solution"
STATUS_HEURISTIC_SUCCESS = "heuristic_success"
STATUS_HEURISTIC_FAIL = "heuristic_fail"

# Block sign patterns solved per matrix product in reconstruct_real.
_CHUNK = 4096
# Most sign-tree nodes, and most full sign patterns, reconstruct_real tries.
_NODE_BUDGET = 1_000_000
# Error-reduction sweeps without meaningful improvement before it stops.
_STALL_WINDOW = 30
# Levenberg-Marquardt in reconstruct_complex: the starting damping, its
# floor (J^T J is singular along the global phase, so undamped steps are
# not defined), the damping past which a restart stops, and the stall rule
# (stop once the loss fell by less than _LM_STALL_REL of itself over
# _LM_STALL_WINDOW iterations).
_LM_DAMPING = 1e-3
_LM_DAMPING_FLOOR = 1e-12
_LM_DAMPING_CAP = 1e10
_LM_STALL_WINDOW = 8
_LM_STALL_REL = 1e-6


@dataclass
class ReconstructionResult:
    """Outcome of a reconstruction attempt.

    rays holds canonical ray representatives, each verified to reproduce
    the measurements within residual_eps * ||a||; residuals holds the
    corresponding measurement residuals. For the real search,
    patterns_explored counts the nodes of the pivot block's sign tree,
    2^(k+1) - 1 for k free block signs (k = N - 1 when every magnitude is
    significant); it is 0 for the complex heuristic. best_residual reports
    the best measurement residual seen (meaningful for heuristic failures,
    where no ray is returned).
    """

    status: str
    rays: list = dataclass_field(default_factory=list)
    residuals: list = dataclass_field(default_factory=list)
    patterns_explored: int = 0
    restarts_used: int = 0
    best_residual: float | None = None


class SearchBudgetExceeded(RuntimeError):
    """Raised when the sign search would need more nodes or leaf patterns
    than allowed. Both checks come before any leaf is solved, so
    ``partial`` is an empty no_solution result whose patterns_explored is
    the block's node count."""

    def __init__(self, message: str, partial: ReconstructionResult):
        super().__init__(message)
        self.partial = partial


def _finalize(
    frame: Frame,
    a: np.ndarray,
    candidates: list[np.ndarray],
    tol: Tolerance,
    patterns_explored: int = 0,
    restarts_used: int = 0,
) -> ReconstructionResult:
    """Canonicalize, verify, deduplicate, and sort candidate preimages.

    A candidate is kept when its canonical ray reproduces ``a`` within
    Tolerance.residual_bound(a) and is not a ray already kept. No ray is
    NoSolution, several are Ambiguous, and one is Unique, or
    HeuristicSuccess when a restart of the complex heuristic found it.
    """
    threshold = tol.residual_bound(a)
    rays: list[np.ndarray] = []
    residuals: list[float] = []
    for x in candidates:
        r = canonical_ray(x, tol)
        resid = float(np.linalg.norm(magnitude_map(frame, r) - a))
        if resid > threshold or any(ray_equal(r, kept, tol) for kept in rays):
            continue
        rays.append(r)
        residuals.append(resid)
    order = sorted(range(len(rays)), key=lambda i: tuple(rays[i]))
    if not rays:
        status = STATUS_NO_SOLUTION
    elif len(rays) > 1:
        status = STATUS_AMBIGUOUS
    else:
        status = STATUS_HEURISTIC_SUCCESS if restarts_used else STATUS_UNIQUE
    return ReconstructionResult(
        status=status,
        rays=[rays[i] for i in order],
        residuals=[residuals[i] for i in order],
        patterns_explored=patterns_explored,
        restarts_used=restarts_used,
        best_residual=min(residuals) if residuals else None,
    )


def _pivot_block(t_ord: np.ndarray, n: int) -> np.ndarray:
    """Sorted indices of n rows of t_ord that form an invertible block.

    Greedy column-pivoted Gram-Schmidt over the rows (the pivot rule of
    Businger and Golub's pivoted QR of t_ord.T): each step takes the row
    with the largest norm left after projecting out the rows already
    taken, the lowest index on a tie, as LAPACK's geqp3 does. The norms
    are recomputed from the projected rows, not downdated, so a row nearly
    in the span of those taken is not lost to cancellation.
    """
    rows = t_ord.copy()
    taken = np.zeros(rows.shape[0], dtype=bool)
    for _ in range(n):
        norms = np.where(taken, -1.0, np.einsum("ij,ij->i", rows, rows))
        p = int(np.argmax(norms))
        taken[p] = True
        q = rows[p] / np.sqrt(norms[p])
        rows -= np.outer(rows @ q, q)
    return np.flatnonzero(taken)


def _full_patterns(pred: np.ndarray, bound: np.ndarray, significant: np.ndarray):
    """Every full sign pattern that one block candidate leaves open.

    A significant row whose prediction clears its bound takes the sign of
    the prediction; one that does not is tried both ways. Insignificant
    rows get sign 0, so the leaf test targets them at 0, and each pattern
    is flipped so that the first row (the largest magnitude) is +.
    """
    loose = np.flatnonzero(significant & (np.abs(pred) <= bound))
    fixed = np.where(significant, np.sign(pred), 0.0)
    for choice in itertools.product((1.0, -1.0), repeat=loose.size):
        s = fixed.copy()
        s[loose] = choice
        if s[0] < 0.0:
            s[significant] *= -1.0
        yield tuple(s)


def reconstruct_real(
    frame: Frame,
    magnitudes,
    tol: Tolerance = DEFAULT_TOL,
) -> ReconstructionResult:
    """Enumerate every ray consistent with real magnitude measurements.

    Indices are processed in descending magnitude order; the smallest
    entries, of total norm at most residual_eps * ||a|| / 2, are sign-free
    and targeted at 0, and the first (largest) entry keeps a + sign,
    quotienting out the global sign. A preimage is accepted when the
    least-squares residual of its full signed target, and then that of its
    magnitudes against a, is at most Tolerance.residual_bound(a).

    Candidates come from a pivot block of N rows chosen by column-pivoted
    Gram-Schmidt (the frame spans, so the block is invertible): every sign
    pattern of the block's k free signs is solved in one matrix product,
    and a pattern is kept only if each row's predicted magnitude lies
    within that row's propagated bound of the measurement. Every accepted
    preimage's block pattern passes that filter, so this matches the
    exhaustive search.
    Statuses: Unique (one ray), Ambiguous (several), NoSolution
    (measurements inconsistent with the frame). Raises SearchBudgetExceeded
    if the block's sign tree, 2^(k+1) - 1 nodes, or the number of full
    patterns left for the leaf test exceeds _NODE_BUDGET; both checks come
    before any leaf solve, so its partial result holds no rays.
    """
    if frame.field != REAL:
        raise ValueError("reconstruct_real requires a real frame")
    a = as_magnitudes(magnitudes, frame.m)
    threshold = tol.residual_bound(a)

    order = np.argsort(-a, kind="stable")
    t_ord = analysis_matrix(frame)[order]
    a_ord = a[order]
    # Sign-free: the smallest entries (ties together) of norm <= threshold / 2,
    # so a planted signal misses its leaf target and a by at most threshold.
    tails = np.cumsum(a_ord[::-1] ** 2)[np.searchsorted(a_ord[::-1], a_ord, "right") - 1]
    significant = tails > (threshold / 2.0) ** 2

    block = _pivot_block(t_ord, frame.n)
    block_sig = significant[block]
    # The block's first significant row keeps a + sign; the rest are free.
    free = np.flatnonzero(block_sig)[1:]
    k = free.size
    nodes = 2 ** (k + 1) - 1

    def over_budget(what: str) -> SearchBudgetExceeded:
        partial = ReconstructionResult(STATUS_NO_SOLUTION, patterns_explored=nodes)
        return SearchBudgetExceeded(f"{what} exceeds the budget of {_NODE_BUDGET}", partial)

    if nodes > _NODE_BUDGET:
        raise over_budget(f"block sign tree of {nodes} nodes")

    u, sv, vt = np.linalg.svd(t_ord[block])
    # pred = targets @ lift predicts every row from the block's targets.
    lift = (u / sv) @ vt @ t_ord.T
    # The block targets are the leaf targets' block rows, insignificant ones
    # at 0, so an accepted preimage moves each prediction by at most this.
    bound = threshold + np.linalg.norm(t_ord, axis=1) * threshold / sv[-1]
    base = np.where(block_sig, a_ord[block], 0.0)
    bits = np.arange(k)

    patterns: set[tuple] = set()
    for start in range(0, 2**k, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, 2**k))
        targets = np.tile(base, (codes.size, 1))
        targets[:, free] *= 1.0 - 2.0 * ((codes[:, None] >> bits) & 1)
        pred = targets @ lift
        keep = np.all(np.abs(np.abs(pred) - a_ord) <= bound, axis=1)
        for row in pred[keep]:
            for pattern in _full_patterns(row, bound, significant):
                patterns.add(pattern)
                if len(patterns) > _NODE_BUDGET:
                    raise over_budget("the number of full sign patterns")

    # The exhaustive search's visit order (+ before -, largest magnitude
    # first) fixes which of two equal rays _finalize keeps.
    solutions: list[np.ndarray] = []
    for pattern in sorted(patterns, reverse=True):
        sol = least_squares(t_ord, np.array(pattern) * a_ord, tol)
        if sol.residual <= threshold:
            solutions.append(sol.x)
    return _finalize(frame, a, solutions, tol, patterns_explored=nodes)


def error_reduction(
    basis: np.ndarray,
    magnitudes: np.ndarray,
    start: np.ndarray,
    max_iters: int,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, list[float]]:
    """Alternating projection between the coefficient range and the
    magnitude torus, from a given starting coefficient vector.

    Each sweep projects onto the range (orthonormal basis columns) and then
    rescales every entry to the measured magnitude, keeping entries whose
    modulus is at or below Tolerance.residual_bound(a), residual_eps *
    ||a||, unchanged (their phase is not determined). The measurement
    residual of the projected iterate is non-increasing; returns the best
    projected iterate and the residual history. Stops early once the
    residual is at most that same bound, or when ``_STALL_WINDOW`` sweeps
    improve it by less than 1e-12 * ||a||.
    """
    a = np.asarray(magnitudes, dtype=np.float64)
    threshold = tol.residual_bound(a)
    stall_eps = 1e-12 * float(np.linalg.norm(a))
    c = np.asarray(start, dtype=np.complex128)
    best_res = np.inf
    best_p = None
    history: list[float] = []
    basis_h = basis.conj().T
    for _ in range(max_iters):
        p = basis @ (basis_h @ c)
        mags = np.abs(p)
        res = float(np.linalg.norm(mags - a))
        history.append(res)
        if res < best_res:
            best_res = res
            best_p = p
        if res <= threshold:
            break
        if len(history) > _STALL_WINDOW and history[-_STALL_WINDOW - 1] - res < stall_eps:
            break
        c = np.divide(a * p, mags, out=p.copy(), where=mags > threshold)
    if best_p is None:
        best_p = np.zeros(basis.shape[0], dtype=np.complex128)
    return best_p, history


def _levenberg_marquardt(
    basis: np.ndarray,
    magnitudes: np.ndarray,
    start: np.ndarray,
    max_iters: int,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, list[float]]:
    """Levenberg-Marquardt on the intensity residual f = |Q y|^2 - a^2 over
    coordinates y in C^N (viewed as R^2N) of the coefficient range, whose
    orthonormal basis Q is ``basis``, from the starting coordinates
    ``start``.

    Each iteration solves (J^T J + lam diag(J^T J)) d = -J^T f for the
    Jacobian J = 2 Re(conj(Q y) [Q, iQ]) and takes the step only if ||f||
    falls; lam is divided by 3 after a step taken and multiplied by 4
    after one refused. Returns the final y and the history of ||f||, one
    entry per iteration, which never increases. Stops once the amplitude
    residual || |Q y| - a || is at most Tolerance.residual_bound(a), once
    ||f|| fell by less than _LM_STALL_REL of itself over the last
    _LM_STALL_WINDOW iterations, or once lam passes _LM_DAMPING_CAP.
    """
    a = np.asarray(magnitudes, dtype=np.float64)
    a2 = a * a
    threshold = tol.residual_bound(a)
    m, n = basis.shape
    # Q y = c[:m] + i c[m:] for c = q @ z and z = [Re y, Im y].
    q = np.block([[basis.real, -basis.imag], [basis.imag, basis.real]])
    z = np.concatenate([start.real, start.imag])
    c = q @ z
    f = c[:m] ** 2 + c[m:] ** 2 - a2
    loss = float(f @ f)
    lam = _LM_DAMPING
    history: list[float] = []
    for _ in range(max_iters):
        if float(np.linalg.norm(np.hypot(c[:m], c[m:]) - a)) <= threshold or lam > _LM_DAMPING_CAP:
            break
        half_jac = c[:m, None] * q[:m] + c[m:, None] * q[m:]
        damped = half_jac.T @ half_jac
        damped.flat[:: 2 * n + 1] *= 1.0 + lam
        z_new = z - 0.5 * np.linalg.solve(damped, half_jac.T @ f)
        c_new = q @ z_new
        f_new = c_new[:m] ** 2 + c_new[m:] ** 2 - a2
        loss_new = float(f_new @ f_new)
        if loss_new < loss:
            z, c, f, loss = z_new, c_new, f_new, loss_new
            lam = max(lam / 3.0, _LM_DAMPING_FLOOR)
        else:
            lam *= 4.0
        history.append(np.sqrt(loss))
        if (
            len(history) > _LM_STALL_WINDOW
            and history[-_LM_STALL_WINDOW - 1] - history[-1] < _LM_STALL_REL * history[-1]
        ):
            break
    return z[:n] + 1j * z[n:], history


def reconstruct_complex(
    frame: Frame,
    magnitudes,
    restarts: int = 20,
    max_iters: int = 500,
    seed=0,
    tol: Tolerance = DEFAULT_TOL,
) -> ReconstructionResult:
    """Heuristic ray recovery for complex frames by Levenberg-Marquardt.

    The unknowns are the coordinates y of the coefficient vector in an
    orthonormal basis Q of the coefficient range, so the frame's
    conditioning does not enter the solve. Each restart draws uniform
    random phases (deterministically from (seed, restart index)), starts
    from y = Q* (a e^{i phase}), runs at most max_iters Levenberg-Marquardt
    iterations on |Q y|^2 - a^2, and accepts as soon as the measurement
    residual is at most residual_eps * ||a||; the ray solving T x = Q y is
    then re-verified against the measurements. All-zero measurements
    identify the zero ray exactly (Unique). Exhausting every restart
    yields HeuristicFail with the best residual seen; a failure is
    evidence, not proof, that no preimage exists.
    """
    if frame.field != COMPLEX:
        raise ValueError("reconstruct_complex requires a complex frame")
    if restarts < 1 or max_iters < 1:
        raise ValueError(
            f"restarts and max_iters must be >= 1, got {restarts} and {max_iters}"
        )
    a = as_magnitudes(magnitudes, frame.m)
    if not a.any():
        return _finalize(frame, a, [np.zeros(frame.n, dtype=np.complex128)], tol)
    threshold = tol.residual_bound(a)
    basis = coefficient_range(frame, tol)
    t = analysis_matrix(frame)
    best_overall = np.inf
    for attempt in range(restarts):
        rng = np.random.default_rng([seed, attempt])
        phases = rng.uniform(0.0, 2.0 * np.pi, frame.m)
        start = basis.conj().T @ (a * np.exp(1j * phases))
        y, _ = _levenberg_marquardt(basis, a, start, max_iters, tol)
        c = basis @ y
        res = float(np.linalg.norm(np.abs(c) - a))
        best_overall = min(best_overall, res)
        if res <= threshold:
            found = _finalize(
                frame, a, [least_squares(t, c, tol).x], tol, restarts_used=attempt + 1
            )
            if found.rays:
                return found
    return ReconstructionResult(
        STATUS_HEURISTIC_FAIL, restarts_used=restarts, best_residual=best_overall
    )


def result_to_dict(result: ReconstructionResult, field: str) -> dict:
    """JSON-ready form of a result; rays follow the frame file number
    encoding (complex entries as [re, im] pairs)."""
    return {
        "status": result.status,
        "rays": [encode_vector(r, field) for r in result.rays],
        "residuals": [float(r) for r in result.residuals],
        "patterns_explored": result.patterns_explored,
        "restarts_used": result.restarts_used,
        "best_residual": None if result.best_residual is None else float(result.best_residual),
    }
