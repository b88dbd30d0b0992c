"""Injectivity certificates for the magnitude map, with explicit witnesses.

For a real frame, the magnitude map is injective on rays exactly when for
every index subset S, the vectors indexed by S or those indexed by its
complement span the whole space. A violating pair (S, S-complement) yields
a constructive ambiguity witness: pick u orthogonal to the S-vectors and v
orthogonal to the complement vectors; then u+v and u-v have identical
magnitude measurements but generate different rays.

For a complex frame the same subset condition is only necessary, and there
is an unconditional size obstruction: fewer than 2N measurements can never
be injective (for N >= 2). Its witness is built the same way: at M = 2N-1
a pivot index p is left out, u and v are orthogonal to N-1 of the other
vectors each, and v is turned by the unit phase that also equalizes the
magnitudes on f_p. Verdicts therefore come in three kinds: Injective
(real, subset condition holds), NotInjective (with a verified witness),
and NecessaryConditionsPass (complex, no obstruction found).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frames import REAL, Frame, analysis_matrix, encode_vector
from .linalg import DEFAULT_TOL, Tolerance, _norm, null_space, rank
from .magnitude import SignPattern, canonical_ray, magnitude_map, ray_equal

__all__ = [
    "VERDICT_INJECTIVE",
    "VERDICT_NOT_INJECTIVE",
    "VERDICT_NECESSARY",
    "InjectivityCertificate",
    "complement_property",
    "witness_pair",
    "verify_witness",
    "certify",
    "certificate_to_dict",
]

VERDICT_INJECTIVE = "injective"
VERDICT_NOT_INJECTIVE = "not_injective"
VERDICT_NECESSARY = "necessary_conditions_pass"

# Most frame vectors whose 2^(M-1) splits complement_property enumerates.
_MAX_VECTORS = 24

# complement_property screens the splits in blocks of 64 masks that double
# up to this many; larger blocks cost memory and save no time.
_SCREEN_BLOCK = 512

# Once complement_property has its superset table, its blocks double up to
# this many splits, most of which cost two table lookups each.
_TABLE_BLOCK = 1 << 16

# complement_property builds its superset table, C(M, N) Gram matrices,
# once its per-side screen has formed this share of that many: a frame
# that fails sooner never pays for the table, and an injective one pays
# about 1 + _TABLE_SHARE times it.
_TABLE_SHARE = 1 / 8


@dataclass(frozen=True)
class InjectivityCertificate:
    """Outcome of an injectivity check.

    NotInjective verdicts always carry a failing subset (when one was
    found by subset enumeration) and a verified witness pair (x, y) with
    equal magnitude measurements and distinct rays. checked_subsets counts
    the {S, complement} pairs examined; for a complex frame with M = 2N-1,
    which has no failing subset, it counts the pivots tried.
    """

    verdict: str
    failing_subset: SignPattern | None
    witness: tuple[np.ndarray, np.ndarray] | None
    checked_subsets: int


def verify_witness(frame: Frame, x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Confirm that (x, y) is a genuine ambiguity: distinct rays whose
    magnitudes a, b agree within Tolerance.residual_bound(a, b) plus the
    Tolerance.null_leak of _null_pair's null vectors at rank_eps."""
    a = magnitude_map(frame, x)
    b = magnitude_map(frame, y)
    if _norm(a - b) > tol.residual_bound(a, b) + tol.null_leak(frame.vectors, x, y):
        return False
    return not ray_equal(x, y, tol)


def witness_pair(
    frame: Frame, pattern: SignPattern, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Ambiguity witness from a subset whose two sides both fail to span.

    Returns (u+v, u-v) where u is a unit vector orthogonal to every frame
    vector indexed by the subset and v is orthogonal to the rest. The
    measurements agree coordinate by coordinate (each index sees only u or
    only v, up to sign), while the rays differ because u and v are nonzero.
    Raises ValueError when either side spans (no such u or v exists).
    """
    if pattern.size != frame.m:
        raise ValueError(f"pattern size {pattern.size} does not match M={frame.m}")
    return _null_pair(frame, pattern.indices(), pattern.complement().indices(), tol)


def _null_pair(
    frame: Frame, side_u, side_v, tol: Tolerance, pivot: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(u+v, u-v) for unit null vectors u of the frame vectors side_u and
    v of side_v: the one construction behind every witness.

    With a pivot p on neither side, v is first multiplied by the unit phase
    c = i alpha conj(beta) / |alpha beta|, alpha = <u, f_p>, beta = <v, f_p>
    (unless either is 0), so that |alpha + c beta| = |alpha - c beta|.
    verify_witness's null_leak bound holds: every row of a side moves by
    at most 2|t_i u| or 2|t_i v|, at most 2 rank_eps ||T||_2 over the side,
    the pivot row not at all, and ||x||^2 + ||y||^2 = 4.
    """
    t = analysis_matrix(frame)
    basis_u = null_space(t[list(side_u)], tol)
    basis_v = null_space(t[list(side_v)], tol)
    if basis_u.shape[1] == 0:
        raise ValueError("subset spans the space; no witness from this side")
    if basis_v.shape[1] == 0:
        raise ValueError("complement spans the space; no witness from this side")
    u = basis_u[:, 0]
    v = basis_v[:, 0]
    if pivot is not None:
        alpha, beta = t[pivot] @ u, t[pivot] @ v
        if alpha != 0 and beta != 0:
            v = v * (1j * alpha * np.conj(beta) / abs(alpha * beta))
    return u + v, u - v


def _not_injective(
    frame: Frame,
    witness: tuple[np.ndarray, np.ndarray],
    tol: Tolerance,
    what: str,
    failing_subset: SignPattern,
    checked_subsets: int,
) -> InjectivityCertificate:
    """NotInjective certificate carrying ``witness``, which must verify;
    an unverified witness raises RuntimeError naming ``what``."""
    if not verify_witness(frame, *witness, tol):
        raise RuntimeError(f"{what} did not verify")
    return InjectivityCertificate(
        VERDICT_NOT_INJECTIVE, failing_subset, witness, checked_subsets
    )


def _gram_eigenvalues(sides: np.ndarray, outer_flat: np.ndarray, dtype, n: int) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix of each boolean row of
    sides, one batched eigvalsh over a 0/1 selection of the stacked outer
    products outer_flat (of entry type dtype, viewed as float pairs)."""
    # The Gram stack is a temporary, so two calls' stacks never coexist.
    gram = (sides.astype(np.float64) @ outer_flat).view(dtype).reshape(-1, n, n)
    return np.linalg.eigvalsh(gram)


def _spanning_table(outer_flat: np.ndarray, dtype, m: int, n: int, bound: float) -> np.ndarray:
    """Bool table over the 2^M subset masks: True where the subset holds N
    vectors whose Gram matrix has its smallest eigenvalue above bound.

    The N-subsets are screened in blocks of 2 * _SCREEN_BLOCK, the sides
    of one split block; then one pass per bit ORs each mask without that
    bit into the mask with it, which closes the table upward."""
    table = np.zeros(1 << m, dtype=bool)
    subsets = itertools.combinations(range(m), n)
    while chunk := list(itertools.islice(subsets, 2 * _SCREEN_BLOCK)):
        masks = (1 << np.array(chunk)).sum(axis=1)
        rows = (masks[:, None] & (1 << np.arange(m))) != 0
        table[masks] = _gram_eigenvalues(rows, outer_flat, dtype, n)[:, 0] > bound
    for i in range(m):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1] |= view[:, 0]
    return table


def complement_property(frame: Frame, tol: Tolerance = DEFAULT_TOL) -> InjectivityCertificate:
    """Check every subset/complement pair for the spanning condition.

    Pairs are enumerated once each via bitmasks with index 0 fixed inside
    S, in ascending mask order, so the lowest failing mask wins. A side
    with fewer than N vectors is rank deficient without further work. On
    failure the certificate carries the subset and a verified witness; on
    success the verdict is Injective for real frames and
    NecessaryConditionsPass for complex ones (where the condition is
    necessary but not sufficient).

    The per-side screen. The splits are walked in blocks of 64 that double
    up to _SCREEN_BLOCK. Each block's sides are boolean rows (S, then every
    complement); a 0/1 selection of the stacked outer products
    conj(f_i) f_i^T gives all their Gram matrices, and one batched eigvalsh
    screens them. Only the splits whose sides the screen leaves undecided
    get the rank test, S side first, so the verdict, failing subset,
    witness and count are those of the rank test on every split. The
    screen accepts a side as spanning when the smallest eigenvalue of its
    Gram matrix exceeds theta times its trace, with
    theta = max(4 rank_eps^2, 1e-12). That is safe: the trace is at least
    sigma_1^2 and lambda_min is sigma_N^2, so an accepted side has
    sigma_N / sigma_1 >= 2 rank_eps, and rank() counts all N of its
    singular values. eigvalsh and forming the Gram matrix err by about
    N M u times the trace (u the unit roundoff, M <= 24), far below the
    1e-12 floor; the frame is scaled to entries of at most 1 so nothing
    overflows, and an accepted lambda_min must be a normal float, so
    underflow cannot fake a margin. Since lambda_min <= trace / N, the
    screen is skipped when theta >= 1/N, and the rank test decides every
    split.

    The superset table. A side spans when it holds a spanning N-subset,
    and there are only C(M, N) of those against 2^M sides. The table
    (_spanning_table) marks every subset mask that holds an N-subset B
    with lambda_min(G_B) > max(theta tr(G), tiny), G the Gram matrix of
    the whole scaled frame. That meets the per-side screen's margin: for
    B inside a side A, G_A - G_B is a sum of outer products, so G_A >= G_B
    and lambda_min(G_A) >= lambda_min(G_B) > theta tr(G) >= theta tr(G_A),
    and the rounding argument above carries over. Once the table exists,
    each block (doubling up to _TABLE_BLOCK) drops by lookups alone the
    splits with a side in the table; the rest go through the per-side
    screen and the rank test as before, in chunks of _SCREEN_BLOCK and in
    ascending order. So the table only removes splits from that path:
    every output is unchanged, and the rank tests never outnumber the
    walk's without it.

    When to build it. The table costs C(M, N) Gram matrices, so it is
    built at the first block boundary where the per-side screen has formed
    at least _TABLE_SHARE times C(M, N) of them and fewer than C(M, N)
    sides are left to walk. A frame that fails before then costs what the
    per-side screen costs; one that fails just after costs at most about
    1 + 1/_TABLE_SHARE times the screening up to the switch, plus the
    table's upward closure; an injective frame costs about 1 + _TABLE_SHARE
    times the table, plus the lookups.
    """
    m, n = frame.m, frame.n
    if m > _MAX_VECTORS:
        raise ValueError(
            f"M={m} exceeds the subset enumeration budget ({_MAX_VECTORS} vectors)"
        )
    vectors = frame.vectors
    pairs = 1 << (m - 1)
    theta = max(4.0 * tol.rank_eps**2, 1e-12)
    screen = theta < 1.0 / n  # else lambda_min <= trace / N leaves nothing to accept
    scaled = vectors / np.abs(vectors).max()  # no Gram entry overflows
    outer = (scaled.conj()[:, :, None] * scaled[:, None, :]).reshape(m, n * n)
    # Complex entries as (re, im) float pairs, viewed in C order, so the 0/1
    # rows multiply them without a complex copy of the selection matrix.
    outer_flat = np.ascontiguousarray(outer).view(np.float64)
    floor = np.finfo(np.float64).tiny
    bits = 1 << np.arange(m)
    subsets = math.comb(m, n)
    table = None
    screened = 0  # Gram matrices the per-side screen has formed
    start, block = 0, 64
    while start < pairs:
        if (
            table is None
            and screen
            and screened >= _TABLE_SHARE * subsets
            and subsets < 2 * (pairs - start)
        ):
            bound = max(theta * float(np.vdot(scaled, scaled).real), floor)
            table = _spanning_table(outer_flat, outer.dtype, m, n, bound)
            # Split r has masks 2r+1 (S) and 2^M - 2 - 2r (its complement).
            s_spans, c_spans = table[1::2], table[-2::-2]
        stop = min(start + block, pairs)
        if table is None:
            chunks = [np.arange(start, stop)]
        else:
            left = start + np.flatnonzero(~(s_spans[start:stop] | c_spans[start:stop]))
            chunks = [left[i : i + _SCREEN_BLOCK] for i in range(0, len(left), _SCREEN_BLOCK)]
        for rests in chunks:
            size = len(rests)
            in_s = (((rests << 1) | 1)[:, None] & bits) != 0
            sides = np.concatenate([in_s, ~in_s])
            full = sides.sum(axis=1) >= n  # a side of fewer than N vectors never spans
            spans = np.zeros(2 * size, dtype=bool)
            if screen:
                lam = _gram_eigenvalues(sides[full], outer_flat, outer.dtype, n)
                spans[full] = lam[:, 0] > np.maximum(theta * lam.sum(axis=1), floor)
                screened += len(lam)
            for i in np.flatnonzero(~(spans[:size] | spans[size:])).tolist():
                if any(full[j] and rank(vectors[sides[j]], tol) >= n for j in (i, size + i)):
                    continue
                rest = int(rests[i])
                pattern = SignPattern((rest << 1) | 1, m)
                return _not_injective(
                    frame,
                    witness_pair(frame, pattern, tol),
                    tol,
                    f"witness for failing subset {pattern.indices()}",
                    pattern,
                    rest + 1,
                )
        start = stop
        block = min(2 * block, _SCREEN_BLOCK if table is None else _TABLE_BLOCK)
    verdict = VERDICT_INJECTIVE if frame.field == REAL else VERDICT_NECESSARY
    return InjectivityCertificate(
        verdict=verdict, failing_subset=None, witness=None, checked_subsets=pairs
    )


def certify(frame: Frame, tol: Tolerance = DEFAULT_TOL) -> InjectivityCertificate:
    """Full decision procedure combining subset and size obstructions.

    Real frames: the subset condition decides injectivity outright.
    Complex frames with N >= 2 and M <= 2N-1 are never injective; the
    certificate's verified witness comes from _null_pair, with no split
    walk. Below 2N-1 the sides are the first M // 2 indices and the rest.
    At M = 2N-1 a pivot p is left out, and the sides are the first and the
    last N-1 of the other indices. The rays differ unless the two null
    vectors are parallel, as on nearly parallel frame vectors, so the
    pivots N-1, N, ..., M-1, 0, ..., N-2 are tried in turn; the first pair
    that verifies is the witness. Otherwise the subset check runs and a
    pass means NecessaryConditionsPass only.
    """
    if frame.field == REAL:
        return complement_property(frame, tol)
    n, m = frame.n, frame.m
    if n >= 2 and m <= 2 * n - 2:
        pattern = SignPattern.from_indices(range(m // 2), m)
        witness = witness_pair(frame, pattern, tol)
        return _not_injective(frame, witness, tol, "balanced-split witness", pattern, 1)
    if n < 2 or m > 2 * n - 1:
        return complement_property(frame, tol)
    for tried in range(1, m + 1):
        pivot = (n - 2 + tried) % m
        rest = [i for i in range(m) if i != pivot]
        witness = _null_pair(frame, rest[: n - 1], rest[n - 1 :], tol, pivot)
        if verify_witness(frame, *witness, tol):
            return InjectivityCertificate(VERDICT_NOT_INJECTIVE, None, witness, tried)
    raise RuntimeError("complex size witness did not verify")


def certificate_to_dict(cert: InjectivityCertificate, field: str) -> dict:
    """JSON-ready form of a certificate; witness vectors follow the frame
    file number encoding (complex entries as [re, im] pairs)."""
    witness = None
    if cert.witness is not None:
        x, y = cert.witness
        witness = {
            "x": encode_vector(canonical_ray(x), field),
            "y": encode_vector(canonical_ray(y), field),
        }
    return {
        "verdict": cert.verdict,
        "failing_subset": list(cert.failing_subset.indices())
        if cert.failing_subset is not None
        else None,
        "witness": witness,
        "checked_subsets": cert.checked_subsets,
    }
