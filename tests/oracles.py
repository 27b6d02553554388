"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: per-pixel
Python loops for the texture coders, a dense projected-gradient solver for
the SVM dual, pairwise counting for the rank-sum AUC, a synth image painted
over the whole canvas. None of it shares
code with the package under test; `ref_fit_and_score`, an evaluation loop,
takes the package's single SVM fit and PCA as arguments.
"""

import math

import numpy as np

# neighbour ring as (dx, dy), clockwise from the top-left corner;
# bit 7 is the first offset
RING = ((-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0))


def ref_lbp(img):
    img = np.asarray(img, dtype=np.int32)
    h, w = img.shape
    out = np.zeros((h - 2, w - 2), dtype=np.int32)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            c = img[y, x]
            code = 0
            for bit, (dx, dy) in enumerate(RING):
                if img[y + dy, x + dx] >= c:
                    code |= 1 << (7 - bit)
            out[y - 1, x - 1] = code
    return out


def ref_nilbp(img):
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros((h - 2, w - 2), dtype=np.int32)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            vals = [img[y + dy, x + dx] for dx, dy in RING]
            mu = sum(vals) / 8.0
            code = 0
            for bit, v in enumerate(vals):
                if v >= mu:
                    code |= 1 << (7 - bit)
            out[y - 1, x - 1] = code
    return out


def ref_lsp(img, t):
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros((h - 2, w - 2), dtype=np.int32)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            c = img[y, x]
            d = [img[y + dy, x + dx] - c for dx, dy in RING]
            if max(abs(v) for v in d) <= t:
                out[y - 1, x - 1] = 56
                continue
            imax = 0
            for i in range(1, 8):
                if d[i] > d[imax]:
                    imax = i
            imin = None
            for i in range(8):
                if i == imax:
                    continue
                if imin is None or d[i] < d[imin]:
                    imin = i
            out[y - 1, x - 1] = imax * 7 + (imin - (1 if imin > imax else 0))
    return out


def u2_transitions(code):
    bits = [(code >> k) & 1 for k in range(8)]
    return sum(bits[k] != bits[(k + 1) % 8] for k in range(8))


def ref_u2_map():
    """code -> u2 bin: uniform codes in ascending order, then the rest."""
    uniform = [c for c in range(256) if u2_transitions(c) <= 2]
    table = np.full(256, len(uniform), dtype=np.int32)
    for b, c in enumerate(uniform):
        table[c] = b
    return table


def ref_cell_edges(n, parts):
    """Split n positions into `parts` near-equal runs; first n%parts get +1."""
    base, extra = divmod(n, parts)
    sizes = [base + 1] * extra + [base] * (parts - extra)
    edges = [0]
    for s in sizes:
        edges.append(edges[-1] + s)
    return edges


def ref_grid_hist(codes, n_bins, rows, cols):
    codes = np.asarray(codes)
    h, w = codes.shape
    re = ref_cell_edges(h, rows)
    ce = ref_cell_edges(w, cols)
    out = []
    for r in range(rows):
        for c in range(cols):
            block = codes[re[r]:re[r + 1], ce[c]:ce[c + 1]].ravel()
            hist = np.bincount(block, minlength=n_bins).astype(np.float64)
            tot = hist.sum()
            if tot > 0:
                hist /= tot
            out.append(hist)
    return np.concatenate(out)


def ref_sq_dists(A, B):
    """Squared euclidean distances between the rows of A (m,d) and B (n,d) as the
    difference, square and sum over d -> (m,n)."""
    diff = A[:, None, :] - B[None, :, :]
    return np.square(diff, out=diff).sum(axis=2)


def dual_objective(K, y, alpha):
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ K @ v)


def _project(v, y, C):
    """Euclidean projection onto {0 <= a <= C, y.a = 0} via bisection."""
    lo = -(np.abs(v).max() + C.max() + 1.0)
    hi = -lo

    def g(nu):
        return float(np.clip(v - nu * y, 0.0, C) @ y)

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)


def qp_reference(K, y, C, max_iter=100_000, stall=100):
    """Projected-gradient ascent on the SVM dual.

    K is the kernel gram matrix of the (already scaled) training rows, y the
    -1/+1 labels, C the per-sample box bound (scalar or vector). Plain
    projected gradient with an exact step size (1/lambda_max) plus momentum
    extrapolation, restarted whenever it stops being an ascent step; keeps
    and returns the best iterate (alpha, objective).
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    C = np.full(n, float(C)) if np.isscalar(C) else np.asarray(C, dtype=np.float64)
    # D K D with D=diag(y) has the same spectrum as K
    lmax = float(np.linalg.eigvalsh(K).max())
    step = 1.0 / max(lmax, 1e-12)
    alpha = _project(np.zeros(n), y, C)
    z = alpha.copy()
    tk = 1.0
    best = dual_objective(K, y, alpha)
    best_alpha = alpha.copy()
    since = 0
    for _ in range(max_iter):
        grad = 1.0 - y * (K @ (z * y))
        a_new = _project(z + step * grad, y, C)
        obj = dual_objective(K, y, a_new)
        if obj < best:
            # extrapolation overshot: restart momentum from the best point
            z = best_alpha.copy()
            tk = 1.0
            alpha = best_alpha.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            z = a_new + ((tk - 1.0) / t_new) * (a_new - alpha)
            tk = t_new
            alpha = a_new
        if obj > best + 1e-14 * max(1.0, abs(best)):
            best = obj
            best_alpha = alpha.copy()
            since = 0
        else:
            since += 1
            if since >= stall:
                break
    return best_alpha, best


def ref_pair_update(ai, aj, Ci, Cj, yi, yj, Gi, Gj, quad):
    """LIBSVM's update of one working pair (i, j), clipped to the box, as its
    scalar branch ladder (Fan, Chen & Lin 2005; svm.cpp, Solver::Solve) -> (ai, aj)."""
    if yi != yj:
        delta = (-Gi - Gj) / quad
        diff = ai - aj
        ai += delta
        aj += delta
        if diff > 0:
            if aj < 0:
                aj, ai = 0.0, diff
        elif ai < 0:
            ai, aj = 0.0, -diff
        if diff > Ci - Cj:
            if ai > Ci:
                ai, aj = Ci, Ci - diff
        elif aj > Cj:
            aj, ai = Cj, Cj + diff
    else:
        delta = (Gi - Gj) / quad
        total = ai + aj
        ai -= delta
        aj += delta
        if total > Ci:
            if ai > Ci:
                ai, aj = Ci, total - Ci
        elif aj < 0:
            aj, ai = 0.0, total
        if total > Cj:
            if aj > Cj:
                aj, ai = Cj, total - Cj
        elif ai < 0:
            ai, aj = 0.0, total
    return ai, aj


def ref_wss2(kernel_row, exact_rows, y, C, tol, tau):
    """LIBSVM's SMO with WSS2 on one problem, one scalar step at a time -> (alpha, G).

    kernel_row(i) is the kernel row a step uses, exact_rows(sv) the rows of
    the exact gradient, G = y * sum_s alpha_s y_s K[s] - 1, recomputed when
    the gap m - M falls below tol; the solve ends if the exact gap is below
    tol too, and otherwise steps on from the exact gradient.
    """
    n = len(y)
    alpha, G = np.zeros(n), -np.ones(n)
    up = lambda t: alpha[t] < C[t] if y[t] > 0 else alpha[t] > 0
    low = lambda t: alpha[t] > 0 if y[t] > 0 else alpha[t] < C[t]
    checked = False
    while True:
        v = [-y[t] * G[t] for t in range(n)]
        i = max((t for t in range(n) if up(t)), key=lambda t: v[t])  # the first on ties
        m, M = v[i], min(v[t] for t in range(n) if low(t))
        if m - M < tol and not checked:
            sv = np.flatnonzero(alpha > 0)
            G = y * ((alpha[sv] * y[sv])[:, None] * exact_rows(sv)).sum(axis=0) - 1.0
            checked = True
            continue
        if m - M < tol:
            return alpha, G
        checked = False
        Ki = kernel_row(i)
        best = None
        for t in range(n):
            gain = m - v[t]
            if low(t) and gain > 0:
                quad = 2.0 - 2.0 * Ki[t]
                quad = quad if quad > 0 else tau
                if best is None or -(gain * gain) / quad < best[0]:
                    best = (-(gain * gain) / quad, t, quad)
        _, j, quad = best
        Kj = kernel_row(j)
        ai, aj = ref_pair_update(alpha[i], alpha[j], C[i], C[j], y[i], y[j], G[i], G[j], quad)
        di, dj = y[i] * (ai - alpha[i]), y[j] * (aj - alpha[j])
        alpha[i], alpha[j] = ai, aj
        G = G + y * (di * Ki + dj * Kj)


def kkt_violations(alpha, y, f, C, tol):
    """Indices violating the optimality conditions at `tol`.

    f must include the bias. Free samples need y*f == 1, zero ones y*f >= 1,
    bound ones y*f <= 1.
    """
    C = np.full(len(y), float(C)) if np.isscalar(C) else np.asarray(C, dtype=np.float64)
    r = y * f
    eps = 1e-8 * C
    bad = []
    for i in range(len(y)):
        if alpha[i] <= eps[i]:
            if r[i] < 1.0 - tol:
                bad.append(i)
        elif alpha[i] >= C[i] - eps[i]:
            if r[i] > 1.0 + tol:
                bad.append(i)
        elif abs(r[i] - 1.0) > tol:
            bad.append(i)
    return bad


def auc_mannwhitney(scores, labels):
    """AUC by pairwise comparison; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels > 0]
    neg = scores[labels < 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def same_bits(a, b):
    """Equal bit for bit: np.array_equal, and the same signed zeros and NaN payloads."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ref_bilinear_sample(img, xs, ys):
    """Sample img at float coordinates, zero outside the raster.

    The masked read: each corner is bounds-checked and read by fancy
    indexing into a float64 zero array.
    """
    h, w = img.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0

    out = np.zeros(xs.shape, dtype=np.float64)
    for dx, dy, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        ix = x0 + dx
        iy = y0 + dy
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        vals = np.zeros(xs.shape, dtype=np.float64)
        vals[ok] = img[iy[ok], ix[ok]]
        out += wgt * vals
    return out


def _ref_cell_of(n, parts):
    return np.repeat(np.arange(parts), np.diff(ref_cell_edges(n, parts)))


def ref_hog(img, rows=8, cols=8, n_bins=9):
    """HOG one image at a time: np.add.at votes, a Python loop over 2x2 blocks."""
    h, w = img.shape
    f = img.astype(np.float64)
    cx = np.arange(w)
    cy = np.arange(h)
    gx = f[:, np.minimum(cx + 1, w - 1)] - f[:, np.maximum(cx - 1, 0)]
    gy = f[np.minimum(cy + 1, h - 1), :] - f[np.maximum(cy - 1, 0), :]
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    pos = ang / (180.0 / n_bins)
    k0 = np.floor(pos).astype(np.int64) % n_bins
    k1 = (k0 + 1) % n_bins
    w1 = pos - np.floor(pos)

    rc = np.broadcast_to(_ref_cell_of(h, rows)[:, None], (h, w))
    cc = np.broadcast_to(_ref_cell_of(w, cols)[None, :], (h, w))
    hist = np.zeros((rows, cols, n_bins), dtype=np.float64)
    np.add.at(hist, (rc, cc, k0), mag * (1.0 - w1))
    np.add.at(hist, (rc, cc, k1), mag * w1)

    eps = 1e-6
    if rows < 2 or cols < 2:
        return (hist / np.sqrt((hist * hist).sum(axis=2) + eps)[:, :, None]).ravel()
    sq = (hist * hist).sum(axis=2)
    block_ss = sq[:-1, :-1] + sq[1:, :-1] + sq[:-1, 1:] + sq[1:, 1:]
    norms = np.sqrt(block_ss + eps)
    out = np.zeros_like(hist)
    counts = np.zeros((rows, cols), dtype=np.float64)
    for bi in range(rows - 1):
        for bj in range(cols - 1):
            out[bi : bi + 2, bj : bj + 2] += hist[bi : bi + 2, bj : bj + 2] / norms[bi, bj]
            counts[bi : bi + 2, bj : bj + 2] += 1.0
    out /= counts[:, :, None]
    return out.ravel()


def ref_losib(img, rows=8, cols=8):
    """LOSIB one image at a time, cell sums by np.add.at."""
    img = np.asarray(img, dtype=np.int32)
    h, w = img.shape[0] - 2, img.shape[1] - 2
    center = img[1:-1, 1:-1]
    diffs = np.stack([np.abs(img[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] - center) / 255.0
                      for dx, dy in RING], axis=-1)
    rc = np.broadcast_to(_ref_cell_of(h, rows)[:, None], (h, w))
    cc = np.broadcast_to(_ref_cell_of(w, cols)[None, :], (h, w))
    acc = np.zeros((rows, cols, 8), dtype=np.float64)
    np.add.at(acc, (rc, cc), diffs)
    counts = np.zeros((rows, cols), dtype=np.float64)
    np.add.at(counts, (rc, cc), 1.0)
    return (acc / counts[:, :, None]).ravel()


def ref_fit_and_score(train_views, y, test_views, inner_splits, grid, fit, pca=None,
                      pca_components=()):
    """Test scores of one training part, evaluated the naive way: one fit and
    one decision_function call per stage x inner fold x grid point, with no
    batching.

    train_views and test_views hold one raw matrix per stage; y labels the
    training rows; inner_splits lists the inner plan's (train, test) index
    pairs; grid holds the candidate params (one entry: fixed params, no
    search). fit(X, y, params) returns a model with a
    decision_function; stage s with pca_components[s] > 0 is first projected
    by pca(X, n) fitted on its training rows. One stage is scored by its own
    model; several feed a meta SVM trained on their held-out scores.
    """
    views = []
    for s, (A, B) in enumerate(zip(train_views, test_views)):
        if s < len(pca_components) and pca_components[s]:
            model = pca(A, pca_components[s])
            A, B = model.transform(A), model.transform(B)
        views.append((A, B))

    def search(X):
        """(chosen params, its held-out scores); the best mean per-fold
        accuracy wins, ties to the smaller C, gamma, then earlier point."""
        scores = np.full((len(grid), len(y)), np.nan)
        for g, params in enumerate(grid):
            for train, test in inner_splits:
                model = fit(X[train], y[train], params)
                scores[g, test] = model.decision_function(X[test])
        accs = []
        for row in scores:
            hits = np.where(row >= 0, 1.0, -1.0) == y
            accs.append(np.mean([np.mean(hits[test]) for _, test in inner_splits]))
        best = min(range(len(grid)), key=lambda g: (-accs[g], grid[g].C, grid[g].gamma))
        return grid[best], scores[best]

    if len(views) == 1:
        A, B = views[0]
        params = grid[0] if len(grid) == 1 else search(A)[0]
        return fit(A, y, params).decision_function(B)
    cols, test_cols = [], []
    for A, B in views:
        params, col = search(A)
        cols.append(col)
        test_cols.append(fit(A, y, params).decision_function(B))
    meta_X = np.column_stack(cols)
    params = grid[0] if len(grid) == 1 else search(meta_X)[0]
    return fit(meta_X, y, params).decision_function(np.column_stack(test_cols))


def ref_pca_fit(X, n_components):
    """PCA as two separate branches -> (mean, components, eigenvalues).

    d <= n: eigendecomposition of the d x d covariance. d > n: of the n x n
    Gram matrix of centered rows, its eigenvectors lifted to feature space
    and normalized. Either way the k largest eigenvalues in descending
    order, and each axis signed so its largest-magnitude coordinate is
    positive.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    k = min(n_components, n - 1, d)
    mean = X.mean(axis=0)
    Xc = X - mean
    if d <= n:
        cov = (Xc.T @ Xc) / (n - 1)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1][:k]
        components = evecs[:, order].T
        eigenvalues = evals[order]
    else:
        gram = (Xc @ Xc.T) / (n - 1)
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:k]
        evals = evals[order]
        evecs = evecs[:, order]
        components = (Xc.T @ evecs).T
        norms = np.linalg.norm(components, axis=1)
        norms[norms == 0] = 1.0
        components = components / norms[:, None]
        eigenvalues = evals
    components = np.ascontiguousarray(components)
    idx = np.abs(components).argmax(axis=1)
    signs = np.sign(components[np.arange(components.shape[0]), idx])
    signs[signs == 0] = 1.0
    return mean, components * signs[:, None], np.maximum(eigenvalues, 0.0)


def ref_render(draws, noise, gender):
    """A synth image painted over the whole canvas: every feature's mask is
    computed on every pixel. draws is what synth._draws returned and noise
    the pixel noise it drew; returns (image, eye_left, eye_right, age)."""
    d, theta, mx, my, bg, skin, hair_val, period, amp, phase, age = draws
    h, w = noise.shape
    s = d / 32.0
    ct, st = math.cos(theta), math.sin(theta)
    dx = np.arange(w, dtype=np.float64) - mx
    dy = np.arange(h, dtype=np.float64)[:, None] - my
    xc = (ct * dx + st * dy) / s
    yc = (-st * dx + ct * dy) / s
    ax = np.abs(xc)

    img = np.full((h, w), bg)
    shoulder_half = 68.0 if gender == "female" else 85.0
    img[(yc >= 95.0) & (yc <= 160.0) & (ax <= shoulder_half)] = 120.0
    if gender == "female":
        img[(ax >= 56.0) & (ax <= 74.0) & (yc >= -30.0) & (yc <= 95.0)] = hair_val
    face = ((xc - 0.0) / 52.0) ** 2 + ((yc - 18.0) / 66.0) ** 2 <= 1.0
    img[face] = skin
    img[(yc <= -26.0) & face] = hair_val
    band = (((yc >= -18.0) & (yc <= -6.0)) | ((yc >= 20.0) & (yc <= 36.0))) & face
    coord = yc if gender == "female" else xc
    img[band] = skin + amp * np.sin(2.0 * math.pi * coord[band] / period + phase)
    for ex in (-16.0, 16.0):
        img[(xc - ex) ** 2 + yc ** 2 <= 3.5 ** 2] = 25.0
    img[((xc - 0.0) / 10.0) ** 2 + ((yc - 44.0) / 4.0) ** 2 <= 1.0] = 90.0
    img = np.clip(img + noise * 6.0, 0.0, 255.0)
    out = np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)

    eye_left = (mx - 16.0 * s * ct, my - 16.0 * s * st)
    eye_right = (mx + 16.0 * s * ct, my + 16.0 * s * st)
    return out, eye_left, eye_right, age
