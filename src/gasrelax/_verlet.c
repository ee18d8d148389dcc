/* The wall potential and force with their per-row sums, the weighted sums
 * of the quadrature panels, the velocity-Verlet trajectory of given or
 * sampled states with its records and their energy drift, the inverse CDF
 * of the wall marginal with the guide table it reads, and NumPy's Philox
 * stream with the states it samples and their force and momentum sums, in
 * gasrelax.  The inverse CDF is one table of 3 rows of k values, C order:
 * the CDF knots u, the heights z and the tangents m; its guide has
 * GUIDE_CELLS entries.
 *
 * Each job has one body, which the other entries call: wall_sums owns the
 * wall and its row sums, philox_uniforms the stream's doubles, guide_table
 * the brackets the inverse CDF starts from, inverse_cdf the heights the
 * doubles give, heights and normals the states drawn from the stream,
 * verlet_records the trajectory, which loads its states or draws them a
 * block at a time, and sampled_momentum_sums the momentum sums.  Each
 * entry takes the model's parameters as they are and forms its own
 * coefficients: 12 delta, dt/2, 1/sqrt(beta) and the guard; the particle
 * mass is the unit.  Each entry's prototype, `KERNEL <type> <name>(<params>)`
 * from the start of a line, with pointer, double and ptrdiff_t parameters,
 * is its only signature: gasrelax._kernel reads the ctypes of each call from
 * it.
 *
 * Every result is bit for bit what the former NumPy expressions gave, so the
 * operation order below is part of the contract.  Potential: u*u, u2*u2,
 * (u4*u4)*u4, 1/x, the sum of the two walls, the product with delta.
 * Force: u*u, u2*u2, ((u4*u4)*u4)*u, 1/x, the sum of the two walls, the
 * product with 12 delta, then + h.  Row sums: 0.0 plus NumPy's pairwise sum
 * of the row (see pairwise below), as np.sum(axis=-1) adds a C-contiguous
 * row.  Panel sums: a forward chain of fma() from +0.0, as OpenBLAS's
 * AVX-512 ddot adds a short row (see kronrod_sums below).  Inverse CDF: the
 * Hermite cubic as the sum, left to right, of its four basis terms (see
 * hermite below).  Normals: NumPy's own code, linked from its
 * libnpyrandom.a (see normals below).  Energy drift: the drift monitor's
 * NumPy arithmetic (see relative_drift below).  Build with
 * -ffp-contract=off (a fused multiply-add rounds once where the NumPy
 * passes rounded twice) and -fno-builtin-fma (libm's fma() stays a call, so
 * the library holds no fused instruction at all), and never with fast-math
 * options, which reassociate.  The clones only widen the vector registers:
 * every lane makes the same correctly rounded IEEE operations as scalar
 * code.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <numpy/random/bitgen.h>

/* NumPy's normal deviate, loc + scale * its ziggurat standard normal, from
 * numpy/random/lib/libnpyrandom.a (declared in numpy/random/distributions.h,
 * which also needs Python.h); Generator.normal makes each value with it */
extern double random_normal(bitgen_t *bitgen_state, double loc, double scale);

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
static inline double potential(double z, double half, double delta)
{
    return delta * (recip_pow12(z + half) + recip_pow12(z - half));
}

/* NumPy's pairwise summation stops splitting at this many values */
#define PAIRWISE_LEAF 128

enum term { VALUE, SQUARE, POTENTIAL, FORCE };

/* NumPy's pairwise sum of the terms a[i], a[i]*a[i], V(a[i]) or F(a[i]),
 * i < n, with c = delta for V and 12 delta for F.
 *
 * Fewer than 8 values are added in sequence from -0.0; up to 128 values in
 * 8 accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and then
 * the rest in sequence; longer runs split at n/2 - (n/2)%8.  np.sum adds
 * the result to 0.0, so callers do too: that turns a row of -0.0 into +0.0.
 * The terms are made one leaf of at most 128 values at a time.
 */
static KERNEL double pairwise(const double *a, ptrdiff_t n, enum term kind,
                              double half, double c)
{
    if (n > PAIRWISE_LEAF) {
        ptrdiff_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(a, n2, kind, half, c)
            + pairwise(a + n2, n - n2, kind, half, c);
    }
    double t[PAIRWISE_LEAF];
    if (kind == SQUARE) {
        for (ptrdiff_t i = 0; i < n; i++)
            t[i] = a[i] * a[i];
        a = t;
    } else if (kind == POTENTIAL) {
        for (ptrdiff_t i = 0; i < n; i++)
            t[i] = potential(a[i], half, c);
        a = t;
    } else if (kind == FORCE) {
        for (ptrdiff_t i = 0; i < n; i++)
            t[i] = force(a[i], half, c);
        a = t;
    }
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    double r[8];
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    ptrdiff_t i;
    for (i = 8; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3]))
        + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* The wall potential (is_force = 0) or the wall force (is_force != 0) of
 * strength delta over each of `rows` row-major rows of z of n values, into
 * out[i]: the term itself when n is 1, else 0.0 plus the pairwise sum of
 * the row's terms.  Returns how many values are not strictly inside
 * (-half, half), NaN included; the results of a row holding one are not
 * meaningful.
 */
KERNEL ptrdiff_t wall_sums(const double *restrict z, double *restrict out,
                           ptrdiff_t rows, ptrdiff_t n, ptrdiff_t is_force,
                           double half, double delta)
{
    double c = is_force ? 12.0 * delta : delta;
    ptrdiff_t outside = 0;
    if (n == 1) {
        for (ptrdiff_t i = 0; i < rows; i++) {
            outside += !(fabs(z[i]) < half);
            out[i] = is_force ? force(z[i], half, c)
                : potential(z[i], half, c);
        }
        return outside;
    }
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *zi = z + i * n;
        for (ptrdiff_t j = 0; j < n; j++)
            outside += !(fabs(zi[j]) < half);
        out[i] = 0.0 + pairwise(zi, n, is_force ? FORCE : POTENTIAL, half, c);
    }
    return outside;
}

/* The Kronrod and Gauss sums of each of `rows` rows of 7 values, row-major:
 * k[i] = sum wk[j] pairs[7i + j] over j < 7 and g[i] = sum wg[j]
 * pairs[7i + 2j + 1] over j < 3, each a forward chain of fma() from +0.0.
 * That is how OpenBLAS's AVX-512 ddot adds so short a row, so these are the
 * bits of np.dot(wk[:7], row) and np.dot(wg[:3], row[1::2]) there.
 */
KERNEL void kronrod_sums(const double *restrict pairs, ptrdiff_t rows,
                         const double *restrict wk,
                         const double *restrict wg, double *restrict k,
                         double *restrict g)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *row = pairs + 7 * i;
        double ki = 0.0, gi = 0.0;
        for (int j = 0; j < 7; j++)
            ki = fma(wk[j], row[j], ki);
        for (int j = 0; j < 3; j++)
            gi = fma(wg[j], row[2 * j + 1], gi);
        k[i] = ki;
        g[i] = gi;
    }
}

/* The drift monitor's relative drift of an energy e from its initial e0,
 * |e - e0| / max(|e0|, tiny), tiny the least normal double
 * (np.finfo(float).tiny): a NaN |e0| stays NaN, as in np.maximum */
static inline double relative_drift(double e, double e0)
{
    double scale = fabs(e0);
    if (scale < DBL_MIN)
        scale = DBL_MIN;
    return fabs(e - e0) / scale;
}

/* B = sum p and H1 = (sum p^2/2 + sum V(z)) - h sum z of each of `rows`
 * rows of n values: B into b[i], and H1 into e[i] unless e is NULL.  At the
 * first record, each H1 is kept in e0[i] first.  *drift is raised to each
 * row's relative_drift from e0[i], and a NaN one stays, as np.max keeps it.
 */
static inline void record(const double *z, const double *p, ptrdiff_t rows,
                          ptrdiff_t n, double half, double delta, double h,
                          double *b, double *e, double *e0, int first,
                          double *drift)
{
    double most = *drift;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *zi = z + i * n, *pi = p + i * n;
        double kinetic = 0.5 * (0.0 + pairwise(pi, n, SQUARE, half, delta));
        double wall = 0.0 + pairwise(zi, n, POTENTIAL, half, delta);
        double field = h * (0.0 + pairwise(zi, n, VALUE, half, delta));
        double ei = (kinetic + wall) - field;
        b[i] = 0.0 + pairwise(pi, n, VALUE, half, delta);
        if (e)
            e[i] = ei;
        if (first)
            e0[i] = ei;
        double d = relative_drift(ei, e0[i]);
        if (d > most || isnan(d))
            most = d;
    }
    *drift = most;
}

/* f = the force plus h at z */
static inline void forces(const double *restrict z, double *restrict f,
                          ptrdiff_t n, double half, double c12, double h)
{
    for (ptrdiff_t i = 0; i < n; i++)
        f[i] = force(z[i], half, c12) + h;
}

/* Up to `steps` velocity-Verlet steps of n independent particles.
 *
 * f holds the force plus h at z on entry and on return.  Each step kicks p
 * by half a step, drifts z, evaluates the force and kicks again, in one
 * pass.  A step after which some |z| is not below guard (NaN included) is
 * the last one made, and 1 is returned; 0 means no breach.
 */
static inline int advance(double *restrict z, double *restrict p,
                          double *restrict f, ptrdiff_t n, ptrdiff_t steps,
                          double half_dt, double dt, double half,
                          double c12, double h, double guard)
{
    for (ptrdiff_t s = 0; s < steps; s++) {
        int breach = 0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double pi = p[i] + f[i] * half_dt;
            double zi = z[i] + pi * dt;
            double fi = force(zi, half, c12) + h;
            breach |= !(fabs(zi) < guard);
            z[i] = zi;
            f[i] = fi;
            p[i] = pi + fi * half_dt;
        }
        if (breach)
            return 1;
    }
    return 0;
}

/* values per block, which stays in L1: a verlet_records block's z, p and
 * force (12 KiB), drawn or loaded, through every record; an inverse_cdf
 * pass's copy of u and its bracket indices, so its passes over them read no
 * main memory; and the heights that sampled_force_sums draws, inverts and
 * sums at once.  In verlet_records and sampled_force_sums, whole rows of at
 * most BLOCK values form one block, and a longer row is a block of its own
 * in the caller's scratch. */
#define BLOCK 512

const ptrdiff_t block = BLOCK;

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

/* cells of the inverse-CDF guide over u in [0, 1); a power of two, so
 * u * GUIDE_CELLS is exact and its floor is the cell that holds u */
#define GUIDE_CELLS (1 << 16)

const ptrdiff_t guide_cells = GUIDE_CELLS;

/* guide[j] = the bracket of the left edge j / GUIDE_CELLS of cell j of u,
 * for j < GUIDE_CELLS: the last i <= k - 2 with inv_u[i] <= j / GUIDE_CELLS,
 * 0 if there is none.  One merge pass over the k >= 2 knots (the table's
 * first row), which for increasing knots gives what a binary search does;
 * any knots give a bracket in [0, k - 2].
 */
KERNEL void guide_table(const double *restrict inv_u, ptrdiff_t k,
                        int32_t *restrict guide)
{
    ptrdiff_t i = 0;
    for (ptrdiff_t j = 0; j < GUIDE_CELLS; j++) {
        double edge = (double)j / GUIDE_CELLS;
        while (i < k - 2 && inv_u[i + 1] <= edge)
            i++;
        guide[j] = (int32_t)i;
    }
}

/* The monotone-cubic inverse at u[i], into out[i], for i < n, of the
 * table's k CDF knots inv_u, heights inv_z and tangents inv_m; out may be u
 * itself.
 *
 * guide is guide_table's of the knots, so the bracket of a u in [j, j+1) /
 * GUIDE_CELLS is guide[j] stepped up past every knot inv_u[i + 1] <= u, as
 * long as i < k - 2: a step for each knot inside the cell, at most
 * k / GUIDE_CELLS on average; a u below 0 or NaN starts from cell 0, one of
 * 1 or more from the last.  Every value is the one a binary search gives
 * (for a NaN, NaN).  Each block (see BLOCK) of u is copied and bracketed in
 * one pass, then interpolated.
 */
KERNEL void inverse_cdf(const double *u, double *out, ptrdiff_t n,
                        const double *restrict table,
                        const int32_t *restrict guide, ptrdiff_t k)
{
    const double *inv_u = table, *inv_z = table + k, *inv_m = table + 2 * k;
    double uc[BLOCK];
    ptrdiff_t idx[BLOCK];

    for (ptrdiff_t start = 0; start < n; start += BLOCK) {
        ptrdiff_t len = n - start;
        if (len > BLOCK)
            len = BLOCK;
        for (ptrdiff_t i = 0; i < len; i++) {
            double ui = u[start + i];
            double cell = ui * GUIDE_CELLS;
            ptrdiff_t j = guide[!(cell >= 0.0) ? 0
                                : cell < GUIDE_CELLS ? (ptrdiff_t)cell
                                : GUIDE_CELLS - 1];
            while (j < k - 2 && ui >= inv_u[j + 1])
                j++;
            uc[i] = ui;
            idx[i] = j;
        }
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

/* NumPy's Philox4x64-10 (Salmon et al., SC 2011).  The state is that of
 * numpy.random.Philox word for word: the key, the 256-bit counter, the
 * buffer of the last block made and the position in it of the word read
 * next, 4 when all are spent.  When the buffer is spent, the counter is
 * raised, with carry, and ten rounds make the next block, so stream value
 * i of a fresh state of (key, counter) is word i % 4 of the block of
 * counter + 1 + i / 4.  A double is the top 53 bits of a word times 2^-53,
 * as NumPy's random() forms it.
 */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

struct philox {
    uint64_t key[2], ctr[4], block[4];
    uint64_t next;  /* the word of block read next; 4 when all are spent */
};

/* the next block of the stream */
static inline void philox_block(struct philox *s)
{
    for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++)
        ;
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int r = 0; r < 10; r++) {
        unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * c0;
        unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    s->block[0] = c0;
    s->block[1] = c1;
    s->block[2] = c2;
    s->block[3] = c3;
    s->next = 0;
}

static inline uint64_t philox_word(struct philox *s)
{
    if (s->next == 4)
        philox_block(s);
    return s->block[s->next++];
}

/* a word as a double in [0, 1): its top 53 bits times 2^-53 */
static inline double word_double(uint64_t w)
{
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

static inline double philox_double(struct philox *s)
{
    return word_double(philox_word(s));
}

/* out[i] = the next value of *s as a double, for i < n; *s is left past
 * them.  The words left in the buffer are read first, then whole blocks
 * straight into out, then the rest one at a time. */
KERNEL void philox_uniforms(struct philox *restrict s, double *restrict out,
                            ptrdiff_t n)
{
    ptrdiff_t i = 0;
    for (; i < n && s->next < 4; i++)
        out[i] = philox_double(s);
    for (; i + 4 <= n; i += 4) {
        philox_block(s);
        for (int w = 0; w < 4; w++)
            out[i + w] = word_double(s->block[w]);
        s->next = 4;
    }
    for (; i < n; i++)
        out[i] = philox_double(s);
}

/* *s moved past its next m values, as if they were read: the words left in
 * the buffer, then whole blocks by raising the counter with carry, as
 * rng.philox_state(key, counter + blocks) starts, then the rest of one
 * block. */
static inline void philox_skip(struct philox *s, ptrdiff_t m)
{
    for (; m > 0 && s->next < 4; m--)
        s->next++;
    uint64_t carry = (uint64_t)(m / 4);
    for (int i = 0; i < 4 && carry; i++) {
        s->ctr[i] += carry;
        carry = s->ctr[i] < carry;
    }
    if (m % 4) {
        philox_block(s);
        s->next = (uint64_t)(m % 4);
    }
}

/* z[i] == 0.0 dropped: z[i + 1 .. len) move down one place, and the next
 * value of *s fills z[len - 1].  Kept out of line, so that heights' loop
 * runs as fast as without it: a value is 0.0 with probability 2^-53. */
static __attribute__((noinline, cold)) void drop_zero(struct philox *s,
                                                      double *z, ptrdiff_t i,
                                                      ptrdiff_t len)
{
    memmove(z + i, z + i + 1, (size_t)(len - i - 1) * sizeof *z);
    philox_uniforms(s, z + len - 1, 1);
}

/* z[i] = the inverse CDF of the next value of *s that is not 0.0, for
 * i < len: a 0.0, which would put a particle on the wall, is skipped.
 * Returns how many were skipped. */
static inline ptrdiff_t heights(struct philox *s, double *z, ptrdiff_t len,
                                const double *restrict table,
                                const int32_t *restrict guide, ptrdiff_t k)
{
    ptrdiff_t skipped = 0;
    philox_uniforms(s, z, len);
    for (ptrdiff_t i = 0; i < len; i++)
        for (; z[i] == 0.0; skipped++)
            drop_zero(s, z, i, len);
    inverse_cdf(z, z, len, table, guide, k);
    return skipped;
}

/* the callbacks of NumPy's bitgen_t on a struct philox; a normal deviate
 * reads 64-bit words and doubles only, so no 32-bit one is given */
static uint64_t bitgen_word(void *s)
{
    return philox_word(s);
}

static double bitgen_double(void *s)
{
    return philox_double(s);
}

/* out[i] = NumPy's random_normal(0.0, sigma) on the stream of *s, for
 * i < n, with sigma = 1 / sqrt(beta), the momentum scale of
 * exp(-beta p^2 / 2) at unit mass: the bits of rng.normal(0.0, sigma, n),
 * ziggurat tail and wedges included */
static inline void normals(struct philox *s, double *out, ptrdiff_t n,
                           double beta)
{
    double sigma = 1.0 / sqrt(beta);
    bitgen_t bitgen = {s, bitgen_word, NULL, bitgen_double, bitgen_word};
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = random_normal(&bitgen, 0.0, sigma);
}

/* The force sum [B, H0] of each of `rows` states of n heights, into out[i]:
 * wall_sums of the row's forces, the bits of poisson_B_H0.  That adds 0.0
 * once more, which only changes a one-value row of force -0.0, and none
 * strictly inside the box gives one: its two wall terms have opposite
 * signs.
 *
 * The heights are drawn by heights (see there) from the stream of *s, row
 * by row, and *s is left past the last value read.  Each block of rows
 * (see BLOCK) is drawn, inverted and summed before the next starts, a long
 * row's heights held in scratch, which has room for n values.  Returns how
 * many heights are not strictly inside (-half, half), as wall_sums does.
 */
KERNEL ptrdiff_t sampled_force_sums(struct philox *s, double *restrict out,
                                    ptrdiff_t rows, ptrdiff_t n,
                                    double *restrict scratch,
                                    double half, double delta,
                                    const double *restrict table,
                                    const int32_t *restrict guide,
                                    ptrdiff_t k)
{
    double buf[BLOCK];
    double *z = n <= BLOCK ? buf : scratch;
    ptrdiff_t per_block = n <= BLOCK ? BLOCK / n : 1;
    ptrdiff_t outside = 0;
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += per_block) {
        ptrdiff_t nr = rows - r0 < per_block ? rows - r0 : per_block;
        heights(s, z, nr * n, table, guide, k);
        outside += wall_sums(z, out + r0, nr, n, 1, half, delta);
    }
    return outside;
}

/* `rows` states of n particles from the stream of *s, row-major: heights
 * into z, momenta into p.  The heights are those sampled_force_sums sums,
 * drawn and inverted by one heights call; the momenta are NumPy's normals
 * (see normals), drawn on from where the heights stopped.  *s is left past
 * the last value read.
 */
KERNEL void sampled_states(struct philox *s, double *restrict z,
                           double *restrict p, ptrdiff_t rows, ptrdiff_t n,
                           double beta, const double *restrict table,
                           const int32_t *restrict guide, ptrdiff_t k)
{
    heights(s, z, rows * n, table, guide, k);
    normals(s, p, rows * n, beta);
}

/* b[i] = 0.0 plus the pairwise sum of the n momenta of row i (see
 * sampled_states), drawn row after row from the stream of *s, for
 * i < rows: the bits of rng.normal(0.0, sigma, (rows, n)).sum(axis=1),
 * sigma as in normals.  Each row is drawn into `row`, which has room for n
 * values.  *s is left past the last value read.
 */
KERNEL void sampled_momentum_sums(struct philox *s, double *restrict b,
                                  ptrdiff_t rows, ptrdiff_t n, double beta,
                                  double *restrict row)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        normals(s, row, n, beta);
        b[i] = 0.0 + pairwise(row, n, VALUE, 0.0, 0.0);
    }
}

/* 1 if some |z[i]|, i < n, is not below guard, NaN included */
static inline int beyond(const double *z, ptrdiff_t n, double guard)
{
    int out = 0;
    for (ptrdiff_t i = 0; i < n; i++)
        out |= !(fabs(z[i]) < guard);
    return out;
}

/* Evolve `rows` independent rows of n >= 1 particles of unit mass through
 * records 0 .. n_records - 1 that lie `steps` velocity-Verlet steps of dt
 * apart; record 0 is the initial state.
 *
 * The states are loaded or drawn.  Loaded (z not NULL): z and p are the
 * caller's, row-major and changed in place, and s, beta and the table are
 * not read; if some initial |z| is not below wall_guard * half (NaN
 * included), 0 is returned and nothing is written.  Drawn (z and p NULL):
 * each block's states are those that sampled_states draws from *s with the
 * marginal's table, made just before the block steps: its heights by
 * heights, on from where the last block's stopped, and its momenta by
 * normals from a second cursor that starts rows * n values past *s, where
 * the heights end unless one was skipped.  If one was, the whole run is
 * made again with that cursor where they do end, so the common run reads
 * each value once.  A drawn block with an initial |z| not below the guard
 * returns 0, the earlier blocks' records written.  *s is left past the
 * heights.
 *
 * Row i's B at record r goes to b[r * rows + i], and its H1 to
 * e[r * rows + i] unless e is NULL.  drift[r] is the largest relative_drift
 * of the rows' H1 at record r from their H1 at record 0, NaN if any is NaN:
 * the bits of np.max over the rows of the drift monitor's NumPy arithmetic.
 *
 * The rows are stepped in blocks (see BLOCK), a long row's force, and its
 * states when drawn, held in scratch, which has room for 3n values.  Each
 * block runs through every record before the next starts, one advance call
 * per record.  A block stops after the step that breaches the guard (see
 * advance), and later blocks stop before that record.  Returns the first
 * record whose steps breached in any block, n_records if none did: every
 * row's records below it are written, and drift[r] of those records covers
 * every row; the later records are not written, or not for every row.
 */
KERNEL ptrdiff_t verlet_records(double *restrict z, double *restrict p,
                                struct philox *s, double beta,
                                const double *restrict table,
                                const int32_t *restrict guide, ptrdiff_t k,
                                ptrdiff_t rows, ptrdiff_t n,
                                double *restrict scratch,
                                ptrdiff_t n_records, ptrdiff_t steps,
                                double dt, double half,
                                double delta, double h, double wall_guard,
                                double *restrict b, double *restrict e,
                                double *restrict drift)
{
    double zbuf[BLOCK], pbuf[BLOCK], fbuf[BLOCK], e0[BLOCK];
    int long_row = n > BLOCK;
    double *f = long_row ? scratch : fbuf;
    double half_dt = 0.5 * dt;
    double guard = wall_guard * half, c12 = 12.0 * delta;
    ptrdiff_t per_block = long_row ? 1 : BLOCK / n;
    struct philox start, momenta;

    if (z && beyond(z, rows * n, guard))
        return 0;
    if (!z)
        start = *s;

    /* a run that skips as many heights as the one before it is the last */
    for (ptrdiff_t skip = 0;;) {
        ptrdiff_t end = n_records, skipped = 0;
        if (!z) {
            *s = momenta = start;
            philox_skip(&momenta, rows * n + skip);
        }
        for (ptrdiff_t rec = 0; rec < n_records; rec++)
            drift[rec] = 0.0;

        for (ptrdiff_t r0 = 0; r0 < rows; r0 += per_block) {
            ptrdiff_t nr = rows - r0 < per_block ? rows - r0 : per_block;
            double *zb, *pb;
            if (z) {
                zb = z + r0 * n;
                pb = p + r0 * n;
            } else {
                zb = long_row ? scratch + n : zbuf;
                pb = long_row ? scratch + 2 * n : pbuf;
                skipped += heights(s, zb, nr * n, table, guide, k);
                if (beyond(zb, nr * n, guard))
                    return 0;
                normals(&momenta, pb, nr * n, beta);
            }

            forces(zb, f, nr * n, half, c12, h);
            record(zb, pb, nr, n, half, delta, h, b + r0, e ? e + r0 : NULL,
                   e0, 1, drift);
            for (ptrdiff_t rec = 1; rec < end; rec++) {
                if (advance(zb, pb, f, nr * n, steps, half_dt, dt, half, c12,
                            h, guard)) {
                    end = rec;
                    break;
                }
                record(zb, pb, nr, n, half, delta, h, b + rec * rows + r0,
                       e ? e + rec * rows + r0 : NULL, e0, 0, drift + rec);
            }
        }
        if (skipped == skip)
            return end;
        skip = skipped;
    }
}
