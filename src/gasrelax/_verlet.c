/* The wall potential, the wall force, the velocity-Verlet step and the
 * inverse CDF of the wall marginal in gasrelax, the step in one fused pass.
 *
 * Every result is bit for bit what the former NumPy expressions gave, so the
 * operation order below is part of the contract.  Potential: u*u, u2*u2,
 * (u4*u4)*u4, 1/x, the sum of the two walls, the product with delta.
 * Force: u*u, u2*u2, ((u4*u4)*u4)*u, 1/x, the sum of the two walls, the
 * product with 12 delta, then + h.  Inverse CDF: the Hermite cubic as the
 * sum, left to right, of its four basis terms (see hermite below).  Build
 * with -ffp-contract=off (a fused multiply-add rounds once where the NumPy
 * passes rounded twice) and never with fast-math options, which reassociate.
 * The clones only widen the vector registers: every lane makes the same
 * correctly rounded IEEE operations as scalar code.
 */

#include <math.h>
#include <stddef.h>

/* one clone per vector width, picked at load time for the running CPU */
#define KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))

static inline double recip_pow12(double u)
{
    double u2 = u * u;
    double u4 = u2 * u2;
    return 1.0 / ((u4 * u4) * u4);
}

static inline double recip_pow13(double u)
{
    double u2 = u * u;
    double u4 = u2 * u2;
    return 1.0 / (((u4 * u4) * u4) * u);
}

/* 12 delta [(z + L/2)^-13 + (z - L/2)^-13], with c12 = 12 delta */
static inline double force(double z, double half, double c12)
{
    return (recip_pow13(z + half) + recip_pow13(z - half)) * c12;
}

/* delta [(z + L/2)^-12 + (z - L/2)^-12] */
KERNEL void wall_potential(const double *restrict z, double *restrict out,
                           ptrdiff_t n, double half, double delta)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = delta * (recip_pow12(z[i] + half) + recip_pow12(z[i] - half));
}

KERNEL void wall_force(const double *restrict z, double *restrict out,
                       ptrdiff_t n, double half, double c12)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = force(z[i], half, c12);
}

/* Advance n independent particles by up to `steps` velocity-Verlet steps.
 *
 * f holds the force plus h at the current z on entry and on return.  Each
 * step kicks p by half a step, drifts z, evaluates the force and kicks
 * again.  A step after which some |z| is not below guard (NaN included) is
 * the last one made; the return value is the number of steps completed
 * before it, so `steps` means no breach.
 */
KERNEL long verlet_steps(double *restrict z, double *restrict p,
                         double *restrict f, ptrdiff_t n, long steps,
                         double half_dt, double dt_over_m, double half,
                         double c12, double h, double guard)
{
    for (long s = 0; s < steps; s++) {
        int breach = 0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double pi = p[i] + f[i] * half_dt;
            double zi = z[i] + pi * dt_over_m;
            double fi = force(zi, half, c12) + h;
            breach |= !(fabs(zi) < guard);
            z[i] = zi;
            f[i] = fi;
            p[i] = pi + fi * half_dt;
        }
        if (breach)
            return s;
    }
    return steps;
}

/* values per inverse_cdf pass: the copy of u and the bracket indices of one
 * chunk stay in L1, so the three passes over it read no main memory */
#define INVERSE_CDF_CHUNK 512

const ptrdiff_t inverse_cdf_chunk = INVERSE_CDF_CHUNK;

/* clip(searchsorted(x, u, "right") - 1, 0, k - 2) over the k sorted knots
 * x: a NaN u sorts after every knot, as in NumPy */
static ptrdiff_t bracket(const double *x, ptrdiff_t k, double u)
{
    ptrdiff_t lo = 0, hi = k;
    while (lo < hi) {
        ptrdiff_t mid = lo + (hi - lo) / 2;
        if (u < x[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo < 1)
        return 0;
    return lo - 1 < k - 2 ? lo - 1 : k - 2;
}

/* (2t^3 - 3t^2 + 1) y0 + (t^3 - 2t^2 + t) m0 + (-2t^3 + 3t^2) y1
 * + (t^3 - t^2) m1, with the tangents m0, m1 already scaled by dx */
static inline double hermite(double t, double y0, double m0, double y1,
                             double m1)
{
    double t2 = t * t;
    double t3 = t2 * t;
    return (2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (t3 - 2.0 * t2 + t) * m0
        + (-2.0 * t3 + 3.0 * t2) * y1 + (t3 - t2) * m1;
}

/* out[i] = the monotone-cubic inverse of the CDF knots (inv_u, inv_z) with
 * tangents inv_m at u[i], for i < n; out may be u itself.
 *
 * guide[j] is the bracket of every u in [j, j+1) / cells, or -1 when a knot
 * splits that cell.  A u outside [0, 1), a NaN or a -1 cell falls back to
 * the binary search over all k knots, so every value is the one that
 * search gives.  Each chunk is copied, bracketed and then interpolated.
 */
KERNEL void inverse_cdf(const double *u, double *out, ptrdiff_t n,
                        const double *restrict inv_u,
                        const double *restrict inv_z,
                        const double *restrict inv_m,
                        const ptrdiff_t *restrict guide, ptrdiff_t k,
                        ptrdiff_t cells)
{
    double uc[INVERSE_CDF_CHUNK];
    ptrdiff_t idx[INVERSE_CDF_CHUNK];
    double width = (double)cells;

    for (ptrdiff_t start = 0; start < n; start += INVERSE_CDF_CHUNK) {
        ptrdiff_t len = n - start;
        if (len > INVERSE_CDF_CHUNK)
            len = INVERSE_CDF_CHUNK;
        for (ptrdiff_t i = 0; i < len; i++) {
            double ui = u[start + i];
            double cell = ui * width;
            uc[i] = ui;
            idx[i] = cell >= 0.0 && cell < width ? guide[(ptrdiff_t)cell] : -1;
        }
        for (ptrdiff_t i = 0; i < len; i++)
            if (idx[i] < 0)
                idx[i] = bracket(inv_u, k, uc[i]);
        for (ptrdiff_t i = 0; i < len; i++) {
            ptrdiff_t j = idx[i];
            double x0 = inv_u[j];
            double dx = inv_u[j + 1] - x0;
            double t = (uc[i] - x0) / dx;
            out[start + i] = hermite(t, inv_z[j], inv_m[j] * dx,
                                     inv_z[j + 1], inv_m[j + 1] * dx);
        }
    }
}
