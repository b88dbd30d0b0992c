"""Independent cross-checking oracles for the tests.

Everything here deliberately avoids the library's own code paths: subsets
come from itertools, ranks from raw singular values, reconstruction from a
plain exhaustive loop over sign assignments. Slow is fine; independence is
the point.
"""

import itertools

import numpy as np
import scipy.linalg


def same_ray(x, y, eps=1e-7):
    """Equality of the rays generated by x and y, up to a unimodular factor,
    within eps times the larger of their norms."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        return False
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    scale = max(nx, ny)
    if nx <= eps * scale or ny <= eps * scale:
        return abs(nx - ny) <= eps * scale
    ip = np.vdot(y, x)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        c = ip / abs(ip) if abs(ip) > 0 else 1.0
    else:
        c = 1.0 if ip >= 0 else -1.0
    return np.linalg.norm(x - c * y) <= eps * scale


def exhaustive_real_rays(vectors, magnitudes, residual_eps=1e-8):
    """Every ray consistent with the magnitudes, found without pruning.

    Enumerates all sign assignments over the significant entries (the first
    one pinned positive to quotient the global sign; the smallest entries,
    of total norm at most residual_eps * ||a|| / 2, are targeted at 0),
    solves each in the least-squares sense, and keeps fits within
    residual_eps * ||a||. Returns (status, rays).
    """
    t = np.conj(np.asarray(vectors))
    a = np.asarray(magnitudes, dtype=np.float64)
    m = len(a)
    threshold = residual_eps * np.linalg.norm(a)
    significant = np.array([np.linalg.norm(a[a <= v]) > threshold / 2 for v in a])
    sig_idx = [i for i in range(m) if significant[i]]
    free = sig_idx[1:]
    rays = []
    for bits in itertools.product((1.0, -1.0), repeat=len(free)):
        signs = significant.astype(np.float64)
        for idx, s in zip(free, bits):
            signs[idx] = s
        target = signs * a
        x, *_ = np.linalg.lstsq(t, target, rcond=None)
        if np.linalg.norm(t @ x - target) > threshold:
            continue
        if not any(same_ray(x, r, residual_eps) for r in rays):
            rays.append(x)
    if not rays:
        return "no_solution", []
    return ("unique" if len(rays) == 1 else "ambiguous"), rays


def _orthonormal_range(vectors, rank_eps=1e-10):
    """Orthonormal basis of the coefficient range, rows indexed by
    measurements."""
    t = np.conj(np.asarray(vectors))
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    return u[:, s > rank_eps * s[0]]


def _row_rank(b, rows, rank_eps):
    if not rows:
        return 0
    sv = scipy.linalg.svdvals(b[rows])
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.sum(sv > rank_eps * sv[0]))


def spans(vectors, rows, rank_eps=1e-10):
    """Whether the frame vectors indexed by rows span the space."""
    vectors = np.asarray(vectors)
    return _row_rank(vectors, list(rows), rank_eps) == vectors.shape[1]


def full_spark(vectors, rank_eps=1e-10):
    """Whether every N of the M frame vectors are linearly independent.

    Visits the N-subsets in lexicographic order and returns
    (is_full_spark, first_dependent_subset_or_None). At M = 2N-1 a real
    frame is injective exactly when it is full spark: a dependent N-subset
    leaves its complement only N-1 vectors, so neither side spans, and
    otherwise the side with at least N of the indices spans.
    """
    vectors = np.asarray(vectors)
    m, n = vectors.shape
    for subset in itertools.combinations(range(m), n):
        if _row_rank(vectors, list(subset), rank_eps) < n:
            return False, subset
    return True, None


def injectivity_oracle(vectors, rank_eps=1e-10):
    """Subset-condition verdict computed on the coefficient-range side.

    With B an orthonormal basis of the range of the analysis matrix, a
    nonzero coefficient vector vanishing on S exists exactly when the S
    rows of B are rank deficient, which in turn happens exactly when the
    S-indexed frame vectors fail to span. A split (S, complement) breaks
    injectivity exactly when both row blocks of B are rank deficient.
    Returns (injective, failing_subset_or_None) with the subset chosen to
    contain index 0.
    """
    vectors = np.asarray(vectors)
    m, n = vectors.shape
    b = _orthonormal_range(vectors, rank_eps)
    for size in range(0, m):
        for rest in itertools.combinations(range(1, m), size):
            s_rows = [0, *rest]
            c_rows = sorted(set(range(m)) - set(s_rows))
            if _row_rank(b, s_rows, rank_eps) < n and _row_rank(b, c_rows, rank_eps) < n:
                return False, tuple(s_rows)
    return True, None


def random_signal_probe(vectors, trials, rng, residual_eps=1e-8):
    """Hunt for an ambiguity by sampling signals and testing every sign
    flip of the measured magnitudes for membership in the coefficient
    range. Finding one proves the frame is not injective; finding none
    proves nothing (the ambiguous set can have empty interior).
    """
    vectors = np.asarray(vectors)
    m, n = vectors.shape
    t = np.conj(vectors)
    b = _orthonormal_range(vectors)
    # All sign vectors with the first entry pinned to +1.
    signs = np.ones((1 << (m - 1), m))
    for j, bits in enumerate(itertools.product((1.0, -1.0), repeat=m - 1)):
        signs[j, 1:] = bits
    for _ in range(trials):
        x = rng.standard_normal(n)
        a = np.abs(t @ x)
        targets = signs * a
        recon = (targets @ b.conj()) @ b.T
        resid = np.linalg.norm(targets - recon, axis=1)
        member = resid <= residual_eps * np.linalg.norm(targets, axis=1)
        for j in np.flatnonzero(member):
            y, *_ = np.linalg.lstsq(t, targets[j], rcond=None)
            if not same_ray(x, y, 1e-6):
                return True
    return False


def windowed_fourier_coefficients(window, hop, fft_size, x):
    """Short-time Fourier coefficients by the direct double sum."""
    window = np.asarray(window, dtype=np.float64)
    x = np.asarray(x)
    t_len = len(x)
    shifts = (t_len - fft_size) // hop + 1
    out = np.empty(shifts * fft_size, dtype=np.complex128)
    for k in range(shifts):
        for w in range(fft_size):
            acc = 0.0 + 0.0j
            for t in range(fft_size):
                acc += x[k * hop + t] * window[t] * np.exp(-2j * np.pi * w * t / fft_size)
            out[k * fft_size + w] = acc
    return out
