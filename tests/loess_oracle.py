"""Per-point LOESS, the brute-force oracle for `infoeq.timeseries.loess_smooth`.

One argsort, one tricube weighting and one `lstsq` per target point, in
unscaled coordinates x = t_j - t_i. The window is the ceil(span*n)
nearest points by a stable argsort of |t - t_i|, so on equal distances
the earlier (left) point wins. A fit whose weighted design has rank
below degree+1 by `lstsq`'s default rcond raises SingularFit.
"""

import numpy as np

from infoeq import SingularFit

# the array path may differ from the oracle by LOESS_TOL times the largest
# |v| in the window: its normal equations in radius-scaled coordinates
# agree with lstsq to ~1.5e-14 of that on the bundled series
LOESS_TOL = 1e-12


def loess_oracle(ts, config, points=None):
    """(values, scales) at the given point indices (default: all).

    scales[j] is the largest |v| in point j's window, the size that an
    agreement tolerance is written relative to.
    """
    t, v = ts.t, ts.v
    q = config.window(t.size)
    points = range(t.size) if points is None else points
    values, scales = [], []
    for i in points:
        d = np.abs(t - t[i])
        idx = np.argsort(d, kind="stable")[:q]
        radius = d[idx[-1]]
        w = (1.0 - np.clip(d[idx] / radius, 0.0, 1.0) ** 3) ** 3
        pos = w > 0.0
        x = t[idx][pos] - t[i]
        sw = np.sqrt(w[pos])
        design = np.vander(x, config.degree + 1, increasing=True) * sw[:, None]
        beta, _, rank, _ = np.linalg.lstsq(design, v[idx][pos] * sw, rcond=None)
        if rank < config.degree + 1:
            raise SingularFit(f"local fit at t={t[i]} has rank {rank} < {config.degree + 1}")
        values.append(beta[0])
        scales.append(np.max(np.abs(v[idx])))
    return np.array(values), np.array(scales)
