"""Frozen 40-digit reference values for the standard sweep.

``EXACT`` maps (m, k) to (|Q(e)|, eta1, eta2) computed by the
arbitrary-precision recomputation in ``recompute`` below (mpmath, 40
decimal digits, pure-python banded Cholesky).  The values were generated
by running this file directly (about 40 s for the M = 1000 sweep):

    python3 tests/oracle_exact.py 1000 $(seq 0 50)
    python3 tests/oracle_exact.py 100 0 15 28 32   # M = 100 rows, EXACT_ETA1_M100
    python3 tests/oracle_exact.py 10000 0 28 32    # about 35 s
    python3 tests/oracle_exact.py 100000 0 28 32   # about 5 min, 1.4 GB
    python3 tests/oracle_exact.py 1000000 0 28 32 --window   # about 3 s

and are correct to the 10 digits listed; the script prints rows in the
form pasted below.  ``--window`` solves the production window at
truncation level 1e-45 and adds the far field of y . M_a y in exact
integers; it reproduces the full-chain M = 1e4 and 1e5 rows to all 10
digits, and it alone reaches M = 1e6, whose whole chain would need
about 14 GB.  Tests compare production doubles against these, which
separates our round-off from the reference digits'.
"""

import math

EXACT = {
    (1000, 0): (3.627632784e-02, 3.899207778e-02, 3.999783300e-02),
    (1000, 1): (1.096375161e-01, 1.243981412e-01, 1.965087151e-01),
    (1000, 2): (3.375761669e-02, 3.872272005e-02, 5.101699699e-02),
    (1000, 3): (5.521648776e-03, 6.725534666e-03, 8.151822991e-03),
    (1000, 4): (3.468604956e-03, 4.343595453e-03, 5.422006704e-03),
    (1000, 5): (1.496046798e-04, 3.742963064e-04, 6.199483585e-04),
    (1000, 6): (5.418584673e-04, 7.156248849e-04, 9.187940045e-04),
    (1000, 7): (1.670957175e-04, 2.420581448e-04, 3.277405055e-04),
    (1000, 8): (1.227067082e-04, 1.675383230e-04, 2.193195597e-04),
    (1000, 9): (5.689594129e-05, 7.964496210e-05, 1.057723667e-04),
    (1000, 10): (3.287187777e-05, 4.540984064e-05, 5.984185607e-05),
    (1000, 11): (1.697956384e-05, 2.360789478e-05, 3.122657613e-05),
    (1000, 12): (9.270338386e-06, 1.284760927e-05, 1.696151084e-05),
    (1000, 13): (4.922270589e-06, 6.832840010e-06, 9.029211057e-06),
    (1000, 14): (2.650118129e-06, 3.675804444e-06, 4.855070354e-06),
    (1000, 15): (1.416914369e-06, 1.966114204e-06, 2.597488486e-06),
    (1000, 16): (7.602040948e-07, 1.054650237e-06, 1.393163275e-06),
    (1000, 17): (4.071567373e-07, 5.649167798e-07, 7.462828792e-07),
    (1000, 18): (2.182579784e-07, 3.028107618e-07, 4.000161018e-07),
    (1000, 19): (1.169472015e-07, 1.622565306e-07, 2.143456678e-07),
    (1000, 20): (6.267636550e-08, 8.695824196e-08, 1.148735559e-07),
    (1000, 21): (3.358695033e-08, 4.659939935e-08, 6.155895242e-08),
    (1000, 22): (1.799951917e-08, 2.497291866e-08, 3.298977861e-08),
    (1000, 23): (9.645826216e-09, 1.338284765e-08, 1.767905428e-08),
    (1000, 24): (5.169206158e-09, 7.171873455e-09, 9.474207934e-09),
    (1000, 25): (2.770162985e-09, 3.843388293e-09, 5.077204498e-09),
    (1000, 26): (1.484527555e-09, 2.059667520e-09, 2.720867940e-09),
    (1000, 27): (7.955554709e-10, 1.103771988e-09, 1.458108145e-09),
    (1000, 28): (4.263370130e-10, 5.915097652e-10, 7.813979614e-10),
    (1000, 29): (2.284732845e-10, 3.169890913e-10, 4.187498632e-10),
    (1000, 30): (1.224384729e-10, 1.698739521e-10, 2.244073870e-10),
    (1000, 31): (6.561457754e-11, 9.103517393e-11, 1.202595532e-10),
    (1000, 32): (3.516274675e-11, 4.878560340e-11, 6.444690116e-11),
    (1000, 33): (1.884365903e-11, 2.614412588e-11, 3.453699002e-11),
    (1000, 34): (1.009828648e-11, 1.401059488e-11, 1.850831723e-11),
    (1000, 35): (5.411655404e-12, 7.508255156e-12, 9.918577295e-12),
    (1000, 36): (2.900097394e-12, 4.023661815e-12, 5.315349557e-12),
    (1000, 37): (1.554157508e-12, 2.156273867e-12, 2.848487242e-12),
    (1000, 38): (8.328704988e-13, 1.155543683e-12, 1.526499712e-12),
    (1000, 39): (4.463339550e-13, 6.192539932e-13, 8.180487303e-13),
    (1000, 40): (2.391896456e-13, 3.318572148e-13, 4.383909933e-13),
    (1000, 41): (1.281813448e-13, 1.778417454e-13, 2.349330252e-13),
    (1000, 42): (6.869217563e-14, 9.530510413e-14, 1.259002288e-13),
    (1000, 43): (3.681202597e-14, 5.107385137e-14, 6.746972926e-14),
    (1000, 44): (1.972750526e-14, 2.737039446e-14, 3.615691894e-14),
    (1000, 45): (1.057193821e-14, 1.466775018e-14, 1.937643446e-14),
    (1000, 46): (5.665484610e-15, 7.860423633e-15, 1.038379993e-14),
    (1000, 47): (3.036124052e-15, 4.212388329e-15, 5.564661612e-15),
    (1000, 48): (1.627053976e-15, 2.257412102e-15, 2.982093170e-15),
    (1000, 49): (8.719355977e-16, 1.209743499e-15, 1.598098913e-15),
    (1000, 50): (4.672688785e-16, 6.482995874e-16, 8.564186265e-16),
    (100, 28): (4.263370130e-10, 5.915078072e-10, 7.813979614e-10),
    (100, 32): (3.516274675e-11, 4.878544193e-11, 6.444690116e-11),
    (10000, 0): (3.627632784e-02, 3.899207778e-02, 3.999783300e-02),
    (10000, 28): (4.263370130e-10, 5.915097674e-10, 7.813979614e-10),
    (10000, 32): (3.516274675e-11, 4.878560358e-11, 6.444690116e-11),
    (100000, 0): (3.627632784e-02, 3.899207778e-02, 3.999783300e-02),
    (100000, 28): (4.263370130e-10, 5.915097674e-10, 7.813979614e-10),
    (100000, 32): (3.516274675e-11, 4.878560358e-11, 6.444690116e-11),
    (1000000, 0): (3.627632784e-02, 3.899207778e-02, 3.999783300e-02),
    (1000000, 28): (4.263370130e-10, 5.915097674e-10, 7.813979614e-10),
    (1000000, 32): (3.516274675e-11, 4.878560358e-11, 6.444690116e-11),
}

# eta1 is the only quantity with a visible M dependence (7th digit);
# |Q(e)| and eta2 agree between M=100 and M=1000 to all 10 digits.
EXACT_ETA1_M100 = {0: 3.899207061e-02, 15: 1.966107639e-06}


# truncation level of the window mode, five decades below the production one
WINDOW_EPS = 1e-45


def _wells_ymy(m):
    """b . M_a b over the free atoms of the chain of half-size m, summed in
    exact integers (k0 = 1, k1 = k2 = 2, a0 = 1; clamped atoms count as 0)."""
    b = [0, 0] + [i - 1 if i <= 0 else i for i in range(-m + 3, m - 1)] + [0, 0]
    nn = sum((y - x) ** 2 for x, y in zip(b, b[1:]))
    nnn = sum((y - x) ** 2 for x, y in zip(b, b[2:]))
    return sum(x * x for x in b) + 2 * nn + 2 * nnn


def _window(m, k):
    """Half-size of the production window of the region -K+1 .. K at
    truncation level WINDOW_EPS, and what y . M_a y over the whole chain adds
    to the same product over that window: beyond it y = b to WINDOW_EPS.

    The window rule, restated here so that this mode checks the library
    rather than reusing it: every field decays like lam^|i| or faster, with
    lam + 1/lam = 2 + t.  For the default springs (k0 = 1, k12 = 10,
    k2 = 2) the atomistic symbol gives the slowest decay, t = 2 k0 / (k12 +
    sqrt(k12^2 + 4 k0 k2)).  The window holds the decay width w =
    ceil(ln(1/eps) / phi), phi = -ln lam = 2 asinh(sqrt(t)/2), past the
    region's span rounded up to a power of two (at least 64), unless the
    chain is shorter."""
    t = 2.0 / (10.0 + math.sqrt(108.0))
    w = math.ceil(math.log(1.0 / WINDOW_EPS) / (2.0 * math.asinh(0.5 * math.sqrt(t))))
    m_w = min(m, w + (1 << max(6, (k - 1).bit_length())))
    return m_w, _wells_ymy(m) - _wells_ymy(m_w)


def recompute(m, k_values, dps=40, window=False):
    """Regenerate reference rows with mpmath (slow; regeneration tool only).

    With ``window`` the rows of the chain of half-size m are computed on the
    window of the largest K (see ``_window``), which no smaller region's
    fields outgrow; otherwise on the whole chain.
    """
    from mpmath import mp, mpf, sqrt

    mp.dps = dps
    m_chain, far = m, 0
    if window:
        m, far = _window(m, max(k_values))
    k0, k1, k2, a0 = mpf(1), mpf(2), mpf(2), mpf(1)
    k12 = k1 + 4 * k2
    n_at, n_bond, n_free = 2 * m, 2 * m - 1, 2 * m - 4
    atoms = list(range(-m + 1, m + 1))
    a_vec = [i * a0 for i in atoms]
    b_vec = [(i - 1) * a0 if i <= 0 else i * a0 for i in atoms]
    ybc = [mpf(0)] * n_at
    ybc[0], ybc[1], ybc[-2], ybc[-1] = -m * a0, (-m + 1) * a0, (m - 1) * a0, m * a0

    def ea_bands():
        d = [k1 + 2 * k2] * n_bond
        d[0] = d[-1] = k1 + k2
        return [d, [k2] * (n_bond - 1)]

    def eac_bands(k):
        da = [1 if (-k + 1 <= i <= k) else 0 for i in atoms]
        d = []
        for p in range(n_bond):
            v = k12 * (2 - da[p] - da[p + 1]) / 2 + k1 * (da[p] + da[p + 1]) / 2
            if p >= 1:
                v += k2 * (da[p - 1] + da[p + 1]) / 2
            if p <= n_bond - 2:
                v += k2 * (da[p] + da[p + 2]) / 2
            d.append(v)
        return [d, [k2 * (da[p] + da[p + 2]) / 2 for p in range(n_bond - 1)]]

    # symmetric band matrices are lists of bands: bands[d][j] is entry (j + d, j)
    def band_matvec(bands, x):
        y = [a * xi for a, xi in zip(bands[0], x)]
        for d, off in enumerate(bands[1:], 1):
            for i, a in enumerate(off):
                y[i] += a * x[i + d]
                y[i + d] += a * x[i]
        return y

    def chol(bands):
        """Lower Cholesky factor in the same layout."""
        n, w = len(bands[0]), len(bands) - 1
        lb = [list(band) for band in bands]
        for j in range(n):
            s = sum(lb[t][j - t] ** 2 for t in range(1, min(w, j) + 1))
            lb[0][j] = sqrt(lb[0][j] - s)
            for d in range(1, min(w, n - 1 - j) + 1):
                terms = range(1, min(w - d, j) + 1)
                s = sum(lb[d + t][j - t] * lb[t][j - t] for t in terms)
                lb[d][j] = (lb[d][j] - s) / lb[0][j]
        return lb

    def chol_solve(lb, b):
        n, w = len(lb[0]), len(lb) - 1
        y = list(b)
        for i in range(n):
            s = sum(lb[t][i - t] * y[i - t] for t in range(1, min(w, i) + 1))
            y[i] = (y[i] - s) / lb[0][i]
        for i in reversed(range(n)):
            s = sum(lb[t][i] * y[i + t] for t in range(1, min(w, n - 1 - i) + 1))
            y[i] = (y[i] - s) / lb[0][i]
        return y

    def d_apply(x):
        return [x[i + 1] - x[i] for i in range(len(x) - 1)]

    def dt_apply(w):
        y = [mpf(0)] * (len(w) + 1)
        for i, wi in enumerate(w):
            y[i] -= wi
            y[i + 1] += wi
        return y

    def reduced(e):
        ed, eo = e
        diag = [mpf(0)] * n_at
        o1 = [mpf(0)] * (n_at - 1)
        o2 = [mpf(0)] * (n_at - 2)
        for p in range(n_bond):
            diag[p] += ed[p]
            diag[p + 1] += ed[p]
            o1[p] -= ed[p]
        for p in range(n_bond - 1):
            diag[p + 1] -= 2 * eo[p]
            o1[p] += eo[p]
            o1[p + 1] += eo[p]
            o2[p] -= eo[p]
        for p in range(n_at):
            diag[p] += k0
        t = [ybc[i] - a_vec[i] for i in range(n_at)]
        w = dt_apply(band_matvec(e, d_apply(t)))
        f = [-(w[i] + k0 * (ybc[i] - b_vec[i])) for i in range(n_at)]
        return [diag[2:-2], o1[2 : n_at - 3], o2[2 : n_at - 4]], f[2:-2]

    def dot(u, v):
        return sum(ui * vi for ui, vi in zip(u, v))

    ea = ea_bands()
    ma_bands, fa = reduced(ea)
    fa_f = chol(ma_bands)
    ea_f = chol(ea)
    q = [mpf(0)] * n_free
    q[m - 3], q[m - 2] = mpf(-1), mpf(1)
    ya = chol_solve(fa_f, fa)

    rows = {}
    for k in k_values:
        eac = eac_bands(k)
        mac_bands, fac = reduced(eac)
        fc_f = chol(mac_bands)
        yac = chol_solve(fc_f, fac)
        gac = chol_solve(fc_f, q)
        qe = dot(q, ya) - dot(q, yac)

        ma = lambda v: band_matvec(ma_bands, v)
        ra = [fa[i] - v for i, v in enumerate(ma(yac))]
        rha = [q[i] - v for i, v in enumerate(ma(gac))]
        first = dot(gac, ra)

        jy = [mpf(0), mpf(0)] + list(yac) + [mpf(0), mpf(0)]
        jg = [mpf(0), mpf(0)] + list(gac) + [mpf(0), mpf(0)]
        zy = d_apply([jy[i] + ybc[i] - a_vec[i] for i in range(n_at)])
        zg = d_apply(jg)
        pz = lambda z: [
            z[i] - v for i, v in enumerate(chol_solve(ea_f, band_matvec(eac, z)))
        ]
        pzy, pzg = pz(zy), pz(zg)
        enorm = lambda v: sqrt(dot(v, band_matvec(ea, v)))
        npy, npg = enorm(pzy), enorm(pzg)
        sig = sqrt(npg / npy)
        eup = enorm([sig * pzy[i] + pzg[i] / sig for i in range(n_bond)])
        eum = enorm([sig * pzy[i] - pzg[i] / sig for i in range(n_bond)])
        ny2 = dot(yac, ma(yac)) + far
        ng2, gmy = dot(gac, ma(gac)), dot(gac, ma(yac))
        lows = []
        for sgn in (1, -1):
            r = [sig * ra[i] + sgn * rha[i] / sig for i in range(n_free)]
            av, bv = dot(r, yac), dot(r, gac)
            th = (av * gmy - bv * ny2) / (bv * gmy - av * ng2)
            v0 = [yac[i] + th * gac[i] for i in range(n_free)]
            lows.append(dot(v0, r) / sqrt(ny2 + 2 * th * gmy + th * th * ng2))
        elp, elm = lows
        eta1 = max(
            abs(first + elp**2 / 4 - eum**2 / 4),
            abs(first + eup**2 / 4 - elm**2 / 4),
        )
        eta2 = abs(first) + npy * npg
        rows[(m_chain, k)] = (abs(qe), eta1, eta2)
    return rows


def sci(x):
    """10 significant digits as d.ddddddddde-XX, the form EXACT uses."""
    from mpmath import mp

    mant, _, exp = mp.nstr(
        x, 10, strip_zeros=False, min_fixed=1, max_fixed=0,
        show_zero_exponent=True,
    ).partition("e")
    return f"{mant}e{int(exp or 0):+03d}"


if __name__ == "__main__":
    import sys

    window = "--window" in sys.argv
    args = [int(s) for s in sys.argv[1:] if s != "--window"]
    m, ks = (args[0], args[1:]) if args else (1000, [0, 20, 40])
    for (mm, k), row in recompute(m, ks, window=window).items():
        print(f"({mm}, {k}): ({', '.join(sci(v) for v in row)}),")
