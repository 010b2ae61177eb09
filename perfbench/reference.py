"""Independent reference values and the checks that CLI reports and library
results must pass.

Nothing here calls into ``bestofn``. Deterministic quantities (summary
statistics, Boo(n) point estimates, the compare delta) are recomputed with
plain Python sums and must agree to ``REL_TOL`` relative. Confidence
interval endpoints come from seeded resampling, so they are checked against
a reference replicate distribution drawn here with another generator and a
vectorised count-matrix engine: each endpoint's rank in the reference
distribution must lie within ``Z`` binomial standard errors of its nominal
level. That admits any correct resampling stream and rejects a wrong
statistic.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

REL_TOL = 1e-12
# The Anderson-Darling statistic sums m log terms with cancellation, so a
# reimplementation agrees only to about m * eps relative.
AD_REL_TOL = 1e-9
# Standard errors allowed between a CI endpoint's reference rank and its
# level; false alarms at this width are below 1e-8 per endpoint.
Z = 6.0
AD_CRITICAL_5PCT = 0.752


def rank_weight_boon(val, test, n):
    """Boo(n) in the maximize convention: the j-th worst validation record
    weighs (j/m)^n - ((j-1)/m)^n and tied validations share their weight."""
    m = len(val)
    order = sorted(range(m), key=lambda i: val[i])
    terms = []
    start = 0
    while start < m:
        end = start
        while end < m and val[order[end]] == val[order[start]]:
            end += 1
        mean = math.fsum(test[i] for i in order[start:end]) / (end - start)
        terms.append(((end / m) ** n - (start / m) ** n) * mean)
        start = end
    return math.fsum(terms)


def std_normal_expected_max(n: int) -> float:
    """E[max of n standard normals] by the trapezoid rule on [-12, 12],
    which converges geometrically for this smooth, fast-decaying integrand."""
    h = 1.0 / 128.0
    terms = []
    for i in range(-12 * 128, 12 * 128 + 1):
        x = i * h
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        terms.append(x * math.exp(-0.5 * x * x) * cdf ** (n - 1))
    return n * h * math.fsum(terms) / math.sqrt(2.0 * math.pi)


def _mean(x):
    return math.fsum(x) / len(x)


def _std(x):
    mu = _mean(x)
    return math.sqrt(math.fsum((a - mu) ** 2 for a in x) / (len(x) - 1))


def _pearson(x, y):
    mx, my = _mean(x), _mean(y)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def _average_ranks(x):
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    start = 0
    while start < len(x):
        end = start
        while end < len(x) and x[order[end]] == x[order[start]]:
            end += 1
        for k in range(start, end):
            ranks[order[k]] = (start + end + 1) / 2.0
        start = end
    return ranks


def _linear_quantile(sorted_x, p):
    h = (len(sorted_x) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_x) - 1)
    a, b, frac = sorted_x[lo], sorted_x[hi], h - lo
    return b - (b - a) * (1.0 - frac) if frac >= 0.5 else a + (b - a) * frac


def anderson_darling(x):
    """Composite-case A2 * (1 + 4/m - 25/m^2) with erfc-based log tails."""
    m = len(x)
    mu, sd = _mean(x), _std(x)
    z = sorted((a - mu) / sd for a in x)
    log_cdf = [math.log(0.5 * math.erfc(-v / math.sqrt(2.0))) for v in z]
    log_sf = [math.log(0.5 * math.erfc(v / math.sqrt(2.0))) for v in z]
    s = math.fsum((2 * i + 1) * (log_cdf[i] + log_sf[m - 1 - i]) for i in range(m))
    return (-m - s / m) * (1.0 + 4.0 / m - 25.0 / (m * m))


def _pearson_rows(x, y):
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    return (xc * yc).sum(axis=1) / np.sqrt((xc * xc).sum(axis=1) * (yc * yc).sum(axis=1))


def _sorted_weights(m, n):
    j = np.arange(1, m + 1) / m
    return j**n - (j - 1.0 / m) ** n


def rel_err(got, want, scale=None):
    scale = max(abs(want), 1e-300) if scale is None else scale
    return abs(got - want) / scale


class Reference:
    """Reference values for one pair of pools (A baseline, B candidate).

    ``seed`` drives the reference replicate streams, which share nothing
    with the program's streams. Replicate distributions are built on first
    use and cached, so a check pays only for what it needs.
    """

    def __init__(self, a_val, a_test, b_val, b_test, minimize, seed):
        self.sign = -1.0 if minimize else 1.0
        self.raw = {"A": (np.asarray(a_val, float), np.asarray(a_test, float)),
                    "B": (np.asarray(b_val, float), np.asarray(b_test, float))}
        self.m = len(a_val)
        self.seed = seed
        self.replicates = min(20_000, max(2_000, 4_000_000 // self.m))
        self._dists = {}

    # -- deterministic values ----------------------------------------------

    def oriented(self, name):
        val, test = self.raw[name]
        return self.sign * val, self.sign * test

    def boon(self, n, name="A"):
        val, test = self.oriented(name)
        return self.sign * rank_weight_boon(val.tolist(), test.tolist(), n)

    def boon_gaussian(self, n, name="A"):
        val, test = (x.tolist() for x in self.oriented(name))
        rho = _pearson(val, test)
        return self.sign * (_mean(test) + rho * _std(test) * std_normal_expected_max(n))

    @cached_property
    def summary(self):
        val, test = (x.tolist() for x in self.raw["A"])
        st = sorted(test)
        return {
            "m": len(test),
            "mean_test": _mean(test),
            "std_test": _std(test),
            "iqr_test": _linear_quantile(st, 0.75) - _linear_quantile(st, 0.25),
            "range_test": [st[0], st[-1]],
            "spearman_val_test": _pearson(_average_ranks(val), _average_ranks(test)),
            "pearson_val_test": _pearson(val, test),
            "normality": anderson_darling(test),
        }

    def best_of_k_moments(self, k):
        """Exact mean and variance of the test score of the best-validation
        record among k with-replacement draws from pool A (oriented)."""
        val, test = self.oriented("A")
        order = np.argsort(val, kind="stable")
        sv, st = val[order], test[order]
        start = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
        end = np.r_[start[1:], self.m]
        w = (end / self.m) ** k - (start / self.m) ** k
        size = end - start
        mean_g = np.add.reduceat(st, start) / size
        sq_g = np.add.reduceat(st * st, start) / size
        mean = float(w @ mean_g)
        return mean, max(float(w @ sq_g) - mean * mean, 0.0)

    # -- reference replicate distributions ---------------------------------

    def _rng(self, tag):
        return np.random.default_rng([self.seed, 0xBE57, tag])

    def _chunks(self):
        step = max(1, 500_000 // self.m)
        for pos in range(0, self.replicates, step):
            yield min(step, self.replicates - pos)

    def boon_of_resamples(self, name, idx, ns):
        """Boo(n) of each row of resample indices ``idx`` for every n in
        ``ns``, through per-row count vectors over the validation-sorted pool
        (no per-row sort): with S_g the cumulative count up to tied group g,
        group g weighs (S_g/m)^n - (S_{g-1}/m)^n times its mean test score."""
        val, test = self.oriented(name)
        c, m = idx.shape[0], self.m
        order = np.argsort(val, kind="stable")
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        sv, st = val[order], test[order]
        start = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
        flat = (rank[idx] + m * np.arange(c)[:, None]).ravel()
        counts = np.bincount(flat, minlength=c * m).reshape(c, m).astype(float)
        cg = np.add.reduceat(counts, start, axis=1)
        tg = np.add.reduceat(counts * st, start, axis=1)
        cum = np.cumsum(cg, axis=1)
        mean = np.divide(tg, cg, out=np.zeros_like(tg), where=cg > 0)
        return {n: self.sign * (((cum / m) ** n - ((cum - cg) / m) ** n) * mean).sum(axis=1)
                for n in ns}

    def _bootstrap_counts(self, name, tag, ns):
        """Percentile-bootstrap replicates of Boo(n) for every n in ``ns``
        from one resample set."""
        rng = self._rng(tag)
        parts = [self.boon_of_resamples(name, rng.integers(0, self.m, size=(c, self.m)), ns)
                 for c in self._chunks()]
        return {n: np.concatenate([p[n] for p in parts]) for n in ns}

    def dist(self, kind, n):
        """Reference replicate values: ``kind`` is one of bootstrap,
        gaussian, smoothed, compare, mc."""
        key = (kind, n)
        if key in self._dists:
            return self._dists[key]
        if kind == "bootstrap":
            # One resample set serves every n that `boon --n 1,5,20` asks for.
            ns = sorted({n, 1, 5, 20})
            self._dists.update({("bootstrap", k): v
                                for k, v in self._bootstrap_counts("A", 1, ns).items()})
        elif kind == "compare":
            a = self._bootstrap_counts("A", 2, [n])[n]
            b = self._bootstrap_counts("B", 3, [n])[n]
            self._dists[key] = b - a
        elif kind == "gaussian":
            self._dists[key] = self._gaussian_bootstrap(n)
        elif kind == "smoothed":
            self._dists[key] = self._smoothed_bootstrap(n)
        elif kind == "mc":
            self._dists[key] = self._monte_carlo(n)
        else:
            raise ValueError(kind)
        return self._dists[key]

    def _gaussian_bootstrap(self, n):
        val, test = self.oriented("A")
        e_n = std_normal_expected_max(n)
        rng = self._rng(4)
        out = []
        for c in self._chunks():
            idx = rng.integers(0, self.m, size=(c, self.m))
            v, t = val[idx], test[idx]
            value = t.mean(axis=1) + _pearson_rows(v, t) * t.std(axis=1, ddof=1) * e_n
            out.append(self.sign * value)
        return np.concatenate(out)

    def _smoothed_bootstrap(self, n):
        raw_val, raw_test = self.raw["A"]
        factor = self.m ** (-1.0 / 6.0)
        h_val, h_test = raw_val.std(ddof=1) * factor, raw_test.std(ddof=1) * factor
        val, test = self.oriented("A")
        w = _sorted_weights(self.m, n)
        rng = self._rng(5)
        out = []
        for c in self._chunks():
            idx = rng.integers(0, self.m, size=(c, self.m))
            noise = rng.standard_normal((c, self.m, 2))
            v = val[idx] + h_val * noise[:, :, 0]
            t = test[idx] + h_test * noise[:, :, 1]
            t_sorted = np.take_along_axis(t, np.argsort(v, axis=1), axis=1)
            out.append(self.sign * (t_sorted @ w))
        return np.concatenate(out)

    def _monte_carlo(self, n):
        """Boo(n) (maximize convention, as the library evaluates it) of
        pools simulated from the bivariate-normal fit of raw pool A."""
        val, test = (x.tolist() for x in self.raw["A"])
        mu_v, mu_t, sd_v, sd_t = _mean(val), _mean(test), _std(val), _std(test)
        rho = max(-1.0, min(1.0, _pearson(val, test)))
        w = _sorted_weights(self.m, n)
        rng = self._rng(6)
        out = []
        for c in self._chunks():
            z = rng.standard_normal((c, self.m, 2))
            v = mu_v + sd_v * z[:, :, 0]
            t = mu_t + sd_t * (rho * z[:, :, 0] + math.sqrt(1.0 - rho * rho) * z[:, :, 1])
            out.append(np.take_along_axis(t, np.argsort(v, axis=1), axis=1) @ w)
        return np.concatenate(out)


def ci_errors(label, ci, ref_values, level, replicates, method):
    """Problems with one CI dict ({lo, hi, level, method, replicates})."""
    errors = []
    if ci is None:
        return [f"{label}: missing CI"]
    if ci["level"] != level or ci["replicates"] != replicates or ci["method"] != method:
        errors.append(f"{label}: CI metadata {ci['level']}/{ci['replicates']}/{ci['method']}")
    if not ci["lo"] <= ci["hi"]:
        errors.append(f"{label}: CI lo {ci['lo']!r} > hi {ci['hi']!r}")
    ref = np.sort(ref_values)
    r = ref.size
    for p, x in (((1.0 - level) / 2.0, ci["lo"]), ((1.0 + level) / 2.0, ci["hi"])):
        rank = (np.searchsorted(ref, x, "left") + np.searchsorted(ref, x, "right")) / (2.0 * r)
        tol = Z * math.sqrt(p * (1.0 - p) * (1.0 / replicates + 1.0 / r)) + 1.0 / replicates + 1.0 / r
        # Below the first or above the last of many reference replicates is
        # far out whatever the program's replicate count.
        if abs(rank - p) > tol or not ref[0] <= x <= ref[-1]:
            errors.append(f"{label}: CI endpoint {x!r} sits at reference quantile "
                          f"{rank:.4f}, expected {p:.4f} +/- {tol:.4f}")
    return errors


def _close(errors, label, got, want, tol=REL_TOL, scale=None):
    if got is None or rel_err(got, want, scale) > tol:
        errors.append(f"{label}: got {got!r}, reference {want!r}")


def check_summarize(report, ref):
    errors = []
    s, want = report["summary"], ref.summary
    if s["m"] != want["m"]:
        errors.append(f"summary m: got {s['m']}, want {want['m']}")
    scale = abs(want["mean_test"])
    for key in ("mean_test", "std_test", "iqr_test", "spearman_val_test", "pearson_val_test"):
        _close(errors, f"summary {key}", s[key], want[key],
               scale=max(abs(want[key]), 1e-300) if key.endswith("val_test") else scale)
    for i in (0, 1):
        _close(errors, f"summary range_test[{i}]", s["range_test"][i], want["range_test"][i])
    normality = s["normality"]
    if normality is None:
        errors.append("summary normality missing")
    else:
        _close(errors, "summary normality", normality["statistic"], want["normality"], AD_REL_TOL)
        if abs(want["normality"] - AD_CRITICAL_5PCT) > 1e-6 and (
            normality["reject_at_5pct"] != (want["normality"] > AD_CRITICAL_5PCT)
        ):
            errors.append("summary normality verdict disagrees with its statistic")
    return errors


def check_boon(report, ref, ns, gaussian, replicates, level):
    errors = []
    estimates = report["estimates"]
    if [e["n"] for e in estimates] != list(ns):
        return [f"boon: n values {[e['n'] for e in estimates]}, want {list(ns)}"]
    for e in estimates:
        n = e["n"]
        want = ref.boon_gaussian(n) if gaussian else ref.boon(n)
        _close(errors, f"boon n={n} value", e["value"], want)
        if e["extrapolative"] != (ref.m < n) or e["m"] != ref.m:
            errors.append(f"boon n={n}: m/extrapolative flag wrong")
        dist = ref.dist("gaussian" if gaussian else "bootstrap", n)
        errors += ci_errors(f"boon n={n}", e["ci"], dist, level, replicates, "bootstrap")
    return errors


def check_compare(report, ref, n, replicates, level):
    errors = []
    c = report["comparison"]
    a, b = ref.boon(n, "A"), ref.boon(n, "B")
    _close(errors, "compare delta", c["delta"], b - a, scale=max(abs(a), abs(b)))
    errors += ci_errors("compare", c["ci"], ref.dist("compare", n), level, replicates, "bootstrap")
    if c["significant"] == (c["ci"]["lo"] <= 0.0 <= c["ci"]["hi"]):
        errors.append("compare: significance flag disagrees with the CI")
    return errors


def check_curve(report, ref, m_max, samples_per_m):
    errors = []
    points = report["curve"]
    if [p["m"] for p in points] != list(range(1, m_max + 1)):
        return ["curve: wrong m values"]
    for p in points:
        mean, var = ref.best_of_k_moments(p["m"])
        want = ref.sign * mean
        tol = Z * math.sqrt(var / samples_per_m) + REL_TOL * abs(want)
        if abs(p["expected_best_test"] - want) > tol:
            errors.append(f"curve m={p['m']}: {p['expected_best_test']!r} is not within "
                          f"{tol:.3g} of the exact Boo({p['m']}) {want!r}")
        if not p["ci_lo"] <= p["ci_hi"]:
            errors.append(f"curve m={p['m']}: band lo > hi")
    return errors
