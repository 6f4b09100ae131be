"""From-definition reference implementations of all 25 metrics.

Everything here is written with explicit loops over plain Python lists,
independent of the package internals; numpy appears only for linear
algebra primitives (SVD, least squares) that have no sensible hand-rolled
equivalent. Each function returns a dict matching the metric's raw keys.
"""

import math
import statistics
from statistics import NormalDist  # noqa: F401  (kept for parity with generators)

import numpy as np


# ---------------------------------------------------------------- helpers

def counts_of(values):
    out = {}
    for v in values:
        if v is None:
            continue
        out[v] = out.get(v, 0) + 1
    return {k: out[k] for k in sorted(out, key=str)}


def mean(xs):
    return sum(xs) / len(xs)


def median(xs):
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    if n % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2.0


def quantile7(xs, p):
    """Linear-interpolation quantile (the 'type 7' convention)."""
    s = sorted(xs)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def pop_sd(xs):
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def drop_missing(values):
    return [v for v in values if v is not None]


def paired(xs, ys):
    out_x, out_y = [], []
    for a, b in zip(xs, ys):
        if a is None or b is None:
            continue
        out_x.append(float(a))
        out_y.append(float(b))
    return out_x, out_y


# ------------------------------------------------------------- cat_dist

def shannon_balance(values):
    counts = counts_of(values)
    n = sum(counts.values())
    h = -sum((c / n) * math.log(c / n) for c in counts.values())
    return {"H": h, "balance": h / math.log(len(counts))}


def entropy(values):
    counts = counts_of(values)
    n = sum(counts.values())
    h = -sum((c / n) * math.log(c / n) for c in counts.values())
    return {"H": h, "H_norm": h / math.log(len(counts))}


def max_min_ratio(values):
    counts = counts_of(values)
    if len(counts) < 2:
        return {"ratio": math.inf}
    return {"ratio": max(counts.values()) / min(counts.values())}


def gini(values):
    counts = counts_of(values)
    n = sum(counts.values())
    k = len(counts)
    q = [(c + 1) / (n + k) for c in counts.values()]
    g = 1.0 - sum(x * x for x in q)
    return {"G": g, "G_norm": g / (1.0 - 1.0 / k)}


def relative_risk(values):
    counts = counts_of(values)
    n = sum(counts.values())
    k = len(counts)
    rr = [(c / n) * k for c in counts.values()]
    return {"max_abs_deviation": max(abs(v - 1.0) for v in rr),
            "rr_max": max(rr), "rr_min": min(rr)}


# ------------------------------------------------------------- num_dist

def skewness(values):
    xs = [float(v) for v in drop_missing(values)]
    m = mean(xs)
    m2 = mean([(x - m) ** 2 for x in xs])
    m3 = mean([(x - m) ** 3 for x in xs])
    return {"g1": m3 / m2 ** 1.5}


def kurtosis(values):
    xs = [float(v) for v in drop_missing(values)]
    m = mean(xs)
    m2 = mean([(x - m) ** 2 for x in xs])
    m4 = mean([(x - m) ** 4 for x in xs])
    return {"g2": m4 / m2 ** 2 - 3.0}


def outlier(values, z_cutoff=3.0):
    xs = [float(v) for v in drop_missing(values)]
    m = mean(xs)
    sd = pop_sd(xs)
    hits = sum(1 for x in xs if abs(x - m) / sd > z_cutoff)
    return {"fraction": hits / len(xs)}


def cohens_d_mad(values):
    xs = [float(v) for v in drop_missing(values)]
    med = median(xs)
    mad = median([abs(x - med) for x in xs])
    return {"d": (mean(xs) - med) / (1.4826 * mad)}


def quantile_deviation(values):
    xs = [float(v) for v in drop_missing(values)]
    q1 = quantile7(xs, 0.25)
    q2 = quantile7(xs, 0.5)
    q3 = quantile7(xs, 0.75)
    qd = (q3 - q2) / (q3 - q1)
    return {"qd": qd, "deviation": abs(qd - 0.5)}


# -------------------------------------------------------------- cat_cat

def contingency(a_vals, b_vals):
    pairs = [(a, b) for a, b in zip(a_vals, b_vals)
             if a is not None and b is not None]
    rows = sorted({a for a, _ in pairs}, key=str)
    cols = sorted({b for _, b in pairs}, key=str)
    table = [[0.0] * len(cols) for _ in rows]
    for a, b in pairs:
        table[rows.index(a)][cols.index(b)] += 1
    return table, rows, cols


def cramers_v(a_vals, b_vals):
    o, rows, cols = contingency(a_vals, b_vals)
    n = sum(sum(r) for r in o)
    row_tot = [sum(r) for r in o]
    col_tot = [sum(o[i][j] for i in range(len(rows))) for j in range(len(cols))]
    chi2 = 0.0
    for i in range(len(rows)):
        for j in range(len(cols)):
            e = row_tot[i] * col_tot[j] / n
            if e > 0:
                chi2 += (o[i][j] - e) ** 2 / e
    v = math.sqrt(chi2 / (n * (min(len(rows), len(cols)) - 1)))
    return {"chi2": chi2, "v": min(v, 1.0)}


def elift(a_vals, b_vals, min_cell_support=5):
    o, rows, cols = contingency(a_vals, b_vals)
    n = sum(sum(r) for r in o)
    row_tot = [sum(r) for r in o]
    col_tot = [sum(o[i][j] for i in range(len(rows))) for j in range(len(cols))]
    cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))
             if o[i][j] >= min_cell_support]
    if not cells:
        cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))
                 if o[i][j] > 0]
    worst = 1.0
    for i, j in cells:
        lift = (o[i][j] / row_tot[i]) / (col_tot[j] / n)
        worst = max(worst, lift)
        if lift > 0:
            worst = max(worst, 1.0 / lift)
    return {"max_elift": worst}


def statistical_parity(a_vals, b_vals):
    o, rows, cols = contingency(a_vals, b_vals)
    row_tot = [sum(r) for r in o]
    max_delta = 0.0
    max_z = 0.0
    for j in range(len(cols)):
        for g in range(len(rows)):
            for h in range(g + 1, len(rows)):
                n_g, n_h = row_tot[g], row_tot[h]
                delta = abs(o[g][j] / n_g - o[h][j] / n_h)
                max_delta = max(max_delta, delta)
                pooled = (o[g][j] + o[h][j]) / (n_g + n_h)
                denom = pooled * (1 - pooled) * (1 / n_g + 1 / n_h)
                if denom > 0:
                    max_z = max(max_z, delta / math.sqrt(denom))
    return {"max_delta": max_delta, "max_z": max_z}


def _tvd(p, q):
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def lipschitz(a_vals, b_vals):
    o, rows, cols = contingency(a_vals, b_vals)
    cond = [[c / sum(r) for c in r] for r in o]
    worst = 0.0
    for g in range(len(rows)):
        for h in range(g + 1, len(rows)):
            worst = max(worst, _tvd(cond[g], cond[h]))
    return {"lipschitz": worst}


def total_variation(a_vals, b_vals):
    o, rows, cols = contingency(a_vals, b_vals)
    n = sum(sum(r) for r in o)
    overall = [sum(o[i][j] for i in range(len(rows))) / n
               for j in range(len(cols))]
    cond = [[c / sum(r) for c in r] for r in o]
    return {"tvd": max(_tvd(cond[g], overall) for g in range(len(rows)))}


# -------------------------------------------------------------- cat_num

def group_values(g_vals, y_vals):
    """Per-group outcome lists; groups with fewer than 2 members drop out."""
    groups = {}
    for g, y in zip(g_vals, y_vals):
        if g is None or y is None:
            continue
        groups.setdefault(g, []).append(float(y))
    groups = {k: v for k, v in groups.items() if len(v) >= 2}
    ordered = sorted(groups, key=lambda k: (-len(groups[k]), str(k)))
    return {k: groups[k] for k in ordered}


def max_abs_mean(g_vals, y_vals):
    groups = group_values(g_vals, y_vals)
    allv = [v for vs in groups.values() for v in vs]
    m = mean(allv)
    sd = pop_sd(allv)
    return {"n_value": max(abs(mean([(v - m) / sd for v in vs]))
                           for vs in groups.values())}


def cohens_d(g_vals, y_vals):
    groups = group_values(g_vals, y_vals)
    keys = list(groups)
    worst = 0.0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            a, b = groups[keys[i]], groups[keys[j]]
            va = sum((x - mean(a)) ** 2 for x in a) / (len(a) - 1)
            vb = sum((x - mean(b)) ** 2 for x in b) / (len(b) - 1)
            pooled = ((len(a) - 1) * va + (len(b) - 1) * vb) / (len(a) + len(b) - 2)
            worst = max(worst, abs(mean(a) - mean(b)) / math.sqrt(pooled))
    return {"d": worst}


def standardized_difference(g_vals, y_vals):
    groups = group_values(g_vals, y_vals)
    allv = [v for vs in groups.values() for v in vs]
    med = median(allv)
    mad = median([abs(v - med) for v in allv])
    keys = list(groups)
    worst = 0.0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            worst = max(worst, abs(mean(groups[keys[i]]) - mean(groups[keys[j]]))
                        / (1.4826 * mad))
    return {"sd": worst}


def causal_effect(g_vals, y_vals, cov_vals=None):
    groups = group_values(g_vals, y_vals)
    keys = list(groups)[:2]
    allv = [v for vs in groups.values() for v in vs]
    sd = pop_sd(allv)
    if cov_vals is None:
        ace = mean(groups[keys[0]]) - mean(groups[keys[1]])
    else:
        strata = {}
        for g, y, c in zip(g_vals, y_vals, cov_vals):
            if g is None or y is None or c is None or g not in keys:
                continue
            strata.setdefault(c, {keys[0]: [], keys[1]: []})[g].append(float(y))
        acc, total = 0.0, 0
        for sv in sorted(strata, key=str):
            cell = strata[sv]
            if not cell[keys[0]] or not cell[keys[1]]:
                continue
            size = len(cell[keys[0]]) + len(cell[keys[1]])
            acc += size * (mean(cell[keys[0]]) - mean(cell[keys[1]]))
            total += size
        ace = acc / total
    return {"ace": ace, "ace_std": ace / sd}


def pse(g_vals, y_vals, m_vals):
    groups = group_values(g_vals, y_vals)
    keys = list(groups)[:2]
    t, m, y = [], [], []
    for g, yv, mv in zip(g_vals, y_vals, m_vals):
        if g is None or yv is None or mv is None or g not in keys:
            continue
        t.append(1.0 if g == keys[0] else 0.0)
        m.append(float(mv))
        y.append(float(yv))
    n = len(t)
    mt = mean(t)
    a1 = (sum((t[i] - mt) * (m[i] - mean(m)) for i in range(n)) / n) \
        / (sum((x - mt) ** 2 for x in t) / n)
    design = np.array([[1.0, t[i], m[i]] for i in range(n)])
    coef, *_ = np.linalg.lstsq(design, np.array(y), rcond=None)
    ade = float(coef[1])
    aie = a1 * float(coef[2])
    sd = pop_sd(y)
    return {"ade": ade, "aie": aie, "total": ade + aie,
            "pse": max(abs(ade), abs(aie)) / sd}


# -------------------------------------------------------------- num_num

def pearson(x_vals, y_vals):
    xs, ys = paired(x_vals, y_vals)
    mx, my = mean(xs), mean(ys)
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = math.sqrt(sum((a - mx) ** 2 for a in xs)
                    * sum((b - my) ** 2 for b in ys))
    return {"r": max(-1.0, min(1.0, num / den))}


def _eq_freq_bins(vs, bins):
    edges = [quantile7(vs, i / bins) for i in range(1, bins)]
    return [sum(1 for e in edges if e <= v) for v in vs]


def _entropy_of(ps):
    return -sum(p * math.log(p) for p in ps if p > 0)


def nmi(x_vals, y_vals, bins=10):
    xs, ys = paired(x_vals, y_vals)
    bx = _eq_freq_bins(xs, bins)
    by = _eq_freq_bins(ys, bins)
    n = len(xs)
    joint = {}
    for a, b in zip(bx, by):
        joint[(a, b)] = joint.get((a, b), 0) + 1.0 / n
    px = [sum(v for (a, _), v in joint.items() if a == i) for i in range(bins)]
    py = [sum(v for (_, b), v in joint.items() if b == j) for j in range(bins)]
    hx, hy = _entropy_of(px), _entropy_of(py)
    mi = hx + hy - _entropy_of(list(joint.values()))
    value = 0.0 if hx == 0 or hy == 0 else max(0.0, min(1.0, mi / math.sqrt(hx * hy)))
    return {"nmi": value, "mi": max(0.0, mi)}


def wasserstein(x_vals, y_vals):
    xs, ys = paired(x_vals, y_vals)
    sx = sorted((v - mean(xs)) / pop_sd(xs) for v in xs)
    sy = sorted((v - mean(ys)) / pop_sd(ys) for v in ys)
    return {"w2": math.sqrt(mean([(a - b) ** 2 for a, b in zip(sx, sy)]))}


def hgr_approximation(x_vals, y_vals, bins=10, kde_grid=64, knots=257):
    """Maximal correlation on the empirical copula: each axis placed on a
    kde_grid-point lattice through `knots` of its order statistics, rows
    split bilinearly over the lattice, Gaussian smoothing at Scott's
    bandwidth for U(0, 1), equal-probability aggregation, then the SVD."""
    xs, ys = paired(x_vals, y_vals)
    n = len(xs)

    def axis(vs):
        # Order statistics at evenly spaced ranks, knot i at coordinate
        # i * (kde_grid - 1) / (knots - 1); knots sharing a value are one
        # knot at the midpoint of their coordinates.
        s = sorted(vs)
        merged = []
        for i in range(knots):
            value = s[round(i * (n - 1) / (knots - 1))]
            at = i * (kde_grid - 1) / (knots - 1)
            if merged and merged[-1][0] == value:
                merged[-1][2] = at
            else:
                merged.append([value, at, at])
        return [m[0] for m in merged], [(m[1] + m[2]) / 2 for m in merged]

    def place(v, ks, ats):
        j = max(i for i in range(len(ks)) if ks[i] <= v)
        if ks[j] == v:
            return ats[j]
        slope = (ats[j + 1] - ats[j]) / (ks[j + 1] - ks[j])
        return slope * (v - ks[j]) + ats[j]

    kx, ax = axis(xs)
    ky, ay = axis(ys)
    p = [[0.0] * kde_grid for _ in range(kde_grid)]
    for a, b in zip(xs, ys):
        tx, ty = place(a, kx, ax), place(b, ky, ay)
        i, j = min(int(tx), kde_grid - 2), min(int(ty), kde_grid - 2)
        fx, fy = tx - i, ty - j
        p[i][j] += (1 - fx) * (1 - fy) / n
        p[i][j + 1] += (1 - fx) * fy / n
        p[i + 1][j] += fx * (1 - fy) / n
        p[i + 1][j + 1] += fx * fy / n

    h = n ** (-1.0 / 6.0) / math.sqrt(12.0) * (kde_grid - 1)
    k = [[math.exp(-0.5 * ((a - b) / h) ** 2) for b in range(kde_grid)]
         for a in range(kde_grid)]
    kp = [[sum(k[a][i] * p[i][j] for i in range(kde_grid))
           for j in range(kde_grid)] for a in range(kde_grid)]
    density = [[sum(kp[a][j] * k[j][b] for j in range(kde_grid))
                for b in range(kde_grid)] for a in range(kde_grid)]
    total = sum(sum(r) for r in density)
    density = [[c / total for c in r] for r in density]

    def cut_points(marginal):
        cum = []
        acc = 0.0
        for v in marginal:
            acc += v
            cum.append(acc)
        targets = [i / bins * cum[-1] for i in range(1, bins)]
        idx = [sum(1 for c in cum if c < t) for t in targets]
        clipped = sorted({min(max(i + 1, 1), len(marginal) - 1) for i in idx})
        return clipped

    mrow = [sum(r) for r in density]
    mcol = [sum(density[i][j] for i in range(kde_grid)) for j in range(kde_grid)]
    rcuts = [0] + cut_points(mrow) + [kde_grid]
    ccuts = [0] + cut_points(mcol) + [kde_grid]
    joint = np.zeros((len(rcuts) - 1, len(ccuts) - 1))
    for i in range(len(rcuts) - 1):
        for j in range(len(ccuts) - 1):
            joint[i, j] = sum(density[a][b]
                              for a in range(rcuts[i], rcuts[i + 1])
                              for b in range(ccuts[j], ccuts[j + 1]))
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    keep_r = px > 0
    keep_c = py > 0
    q = joint[np.ix_(keep_r, keep_c)] / np.sqrt(np.outer(px[keep_r], py[keep_c]))
    sv = np.linalg.svd(q, compute_uv=False)
    hgr = float(sv[1]) if sv.size > 1 else 0.0
    return {"hgr": max(0.0, min(1.0, hgr)),
            "chi2_divergence": max(0.0, float((q ** 2).sum() - 1.0))}


def hsic(x_vals, y_vals):
    xs, ys = paired(x_vals, y_vals)
    n = len(xs)

    def gram(vs):
        d2 = [[(vs[i] - vs[j]) ** 2 for j in range(n)] for i in range(n)]
        upper = [d2[i][j] for i in range(n) for j in range(i + 1, n)
                 if d2[i][j] > 0]
        sigma2 = median(upper) if upper else 1.0
        return [[math.exp(-d2[i][j] / (2 * sigma2)) for j in range(n)]
                for i in range(n)]

    def center(k):
        row = [mean([k[i][j] for i in range(n)]) for j in range(n)]
        col = [mean(k[i]) for i in range(n)]
        grand = mean(col)
        return [[k[i][j] - row[j] - col[i] + grand for j in range(n)]
                for i in range(n)]

    kc = center(gram(xs))
    lc = center(gram(ys))
    hxy = sum(kc[i][j] * lc[i][j] for i in range(n) for j in range(n))
    hxx = sum(kc[i][j] ** 2 for i in range(n) for j in range(n))
    hyy = sum(lc[i][j] ** 2 for i in range(n) for j in range(n))
    norm = math.sqrt(hxx * hyy)
    nh = max(0.0, min(1.0, hxy / norm)) if norm > 0 else 0.0
    return {"hsic": hxy / (n - 1) ** 2, "nhsic": nh}


# ------------------------------------------------------------ CSV loader

def _try_parse_float(token):
    try:
        v = float(token)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def categories(values):
    """Reference ``Column.categories`` of a numerical column: each cell's
    code (-1 for NaN) into the distinct values, each as first seen, sorted
    by ``str``."""
    seen = list(dict.fromkeys(v for v in values if not math.isnan(v)))
    labels = sorted(seen, key=str)
    index = {v: i for i, v in enumerate(labels)}
    return [-1 if math.isnan(v) else index[v] for v in values], tuple(labels)


def infer_kind(values, na_tokens):
    """Two-pass reference type inference: "numerical" or "categorical"."""
    na = set(na_tokens)
    present = [v for v in values if v is not None and str(v).strip() not in na]
    if not present:
        return "categorical"
    parsed = [_try_parse_float(str(v).strip()) for v in present]
    numeric = [p for p in parsed if p is not None]
    if len(numeric) / len(present) < 0.95:
        return "categorical"
    distinct = set(numeric)
    if all(float(v).is_integer() for v in distinct) and len(distinct) <= 10:
        return "categorical"
    return "numerical"


def load_columns(path, na_tokens, delimiter=","):
    """Reference loader: (name, kind, cells) per column, every cell parsed
    once to infer the kind and again to convert it."""
    import csv
    na = set(na_tokens)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    header, body = rows[0], rows[1:]
    out = []
    for i, name in enumerate(header):
        raw = [row[i] for row in body]
        kind = infer_kind(raw, na)
        if kind == "numerical":
            cells = tuple(None if v.strip() in na else _try_parse_float(v.strip())
                          for v in raw)
        else:
            cells = tuple(None if v.strip() in na else v for v in raw)
        out.append((name, kind, cells))
    return out


# ------------------------------------------------------------ data tools
# The session data tools cell by cell. Float sums run left to right from int
# 0, as Python's sum added floats up to 3.11, so a sum of -0.0 reads 0.0.
# Each raises ValueError where the tool raises a typed error for a constant
# or empty column, and may raise OverflowError or return non-finite cells
# where float64 runs out.

def _row_sum(xs):
    total = 0
    for x in xs:
        total += x
    return total


def standardize(values):
    """Each cell minus the mean, over the population sd; None stays None."""
    present = drop_missing(values)
    if len(set(present)) < 2:
        raise ValueError("fewer than 2 distinct values")
    mean = _row_sum(present) / len(present)
    var = _row_sum((v - mean) ** 2 for v in present) / len(present)
    if var == 0:
        raise ValueError("zero variance")
    sd = math.sqrt(var)
    return [None if v is None else (v - mean) / sd for v in values]


def fill_median(values):
    """Each missing cell filled with ``statistics.median`` of the others."""
    present = drop_missing(values)
    if not present:
        raise ValueError("no values")
    fill = statistics.median(present)
    return [fill if v is None else v for v in values]


def group_and_aggregate(keys, values, fn):
    """The groups of ``keys`` (None missing) sorted by ``str``, and per group
    the count of its rows, or the mean, sum or median of its present values
    (None if it has none)."""
    groups = sorted({k for k in keys if k is not None}, key=str)
    out = []
    for g in groups:
        rows = [v for k, v in zip(keys, values) if k == g]
        vals = drop_missing(rows)
        if fn == "count":
            out.append(float(len(rows)))
        elif not vals:
            out.append(None)
        elif fn == "mean":
            out.append(_row_sum(vals) / len(vals))
        elif fn == "sum":
            out.append(float(_row_sum(vals)))
        else:
            out.append(float(statistics.median(vals)))
    return groups, out
