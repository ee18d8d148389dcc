/* The wall potential, the wall force and the velocity-Verlet step of
 * gasrelax, the step in one fused pass.
 *
 * Every result is bit for bit what the former NumPy expressions gave, so the
 * operation order below is part of the contract.  Potential: u*u, u2*u2,
 * (u4*u4)*u4, 1/x, the sum of the two walls, the product with delta.
 * Force: u*u, u2*u2, ((u4*u4)*u4)*u, 1/x, the sum of the two walls, the
 * product with 12 delta, then + h.  Build with -ffp-contract=off (a fused
 * multiply-add rounds once where the NumPy passes rounded twice) and never
 * with fast-math options, which reassociate.  The clones only widen the
 * vector registers: every lane makes the same correctly rounded IEEE
 * operations as scalar code.
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
