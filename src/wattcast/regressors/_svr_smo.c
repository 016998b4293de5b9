/* The SMO loop of SvrModel (see _numpy_loop in svr.py), run in one call.

   K is the symmetric n x n kernel matrix, row-major. theta, score, off_up
   and off_low hold 2n values each, in the state _smo sets up: the stacked
   duals [a; a*], the KKT score, and the up- and low-set offsets (0 or -inf,
   0 or +inf). The loop updates them in place, stores whether the KKT gap
   fell to tol in *converged and returns the iteration count.

   Every value sees the floating-point operations of the numpy loop, in the
   same order, provided the compiler fuses no multiply-add (build with
   -ffp-contract=off). Each step makes one pass over the 2n scores: it
   subtracts step * (K[i] - K[j]) from both halves and finds the next pair
   on the way, the first argmax of score + off_up and the first argmin of
   score + off_low, as numpy's argmax and argmin pick them:

   - the pass keeps LANES-wide running extrema of each half over blocks of
     BLOCK indices, taking the last n % LANES indices of the last block one
     at a time, and remembers the first block that reached each extremum,
     so a tie goes to the lowest index; that block is then searched for the
     first index holding the extremum. No lane width changes which pair is
     found, only how fast;
   - a set whose every value is -inf (or +inf) gives index 0, since no
     later block beats the first;
   - a non-finite score, the only way a NaN can enter score + off, sends
     the pass to a scalar rescan with numpy's rule that the first NaN wins.

   The vectors use the vector extension of gcc and clang. */

#include <math.h>
#include <stddef.h>
#include <string.h>

#define BLOCK 64 /* a multiple of LANES */
#define LANES 4

typedef double vd __attribute__((vector_size(LANES * sizeof(double))));
typedef long long vl __attribute__((vector_size(LANES * sizeof(long long))));

typedef struct {
    long up, low;
} Pair;

typedef struct {
    double best;
    long block;
} Extremum;

static inline vd load(const double *p)
{
    vd v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, vd v)
{
    memcpy(p, &v, sizeof v);
}

/* v where v > m (v < m), else m: a lane keeps its earlier value on a tie */
static inline vd keep_max(vd v, vd m)
{
    vl gt = (vl)(v > m);
    return (vd)(((vl)v & gt) | ((vl)m & ~gt));
}

static inline vd keep_min(vd v, vd m)
{
    vl lt = (vl)(v < m);
    return (vd)(((vl)v & lt) | ((vl)m & ~lt));
}

/* x in every lane */
static inline vd splat(double x)
{
    vd v;
    for (int l = 0; l < LANES; l++)
        v[l] = x;
    return v;
}

/* the largest (smallest) lane of v */
static inline double lane_max(vd v)
{
    double m = v[0];
    for (int l = 1; l < LANES; l++)
        if (v[l] > m)
            m = v[l];
    return m;
}

static inline double lane_min(vd v)
{
    double m = v[0];
    for (int l = 1; l < LANES; l++)
        if (v[l] < m)
            m = v[l];
    return m;
}

/* numpy's argmax (sign > 0) or argmin (sign < 0) of score + off */
static long numpy_arg(const double *score, const double *off, long m, int sign)
{
    long at = 0;
    double best = score[0] + off[0];
    for (long k = 1; k < m && best == best; k++) {
        double v = score[k] + off[k];
        if (v != v || (sign > 0 ? v > best : v < best)) {
            best = v;
            at = k;
        }
    }
    return at;
}

/* the first index in [k0, k1) of the half starting at h where
   score + off equals best */
static long first_equal(const double *score, const double *off, long h, long k0,
                        long k1, double best)
{
    long k = k0;
    while (k < k1 - 1 && score[h + k] + off[h + k] != best)
        k++;
    return h + k;
}

/* Subtract (ki - kj) * step from both halves of score unless ki is NULL,
   then return the next pair. */
static Pair
scan(const double *ki, const double *kj, double step, long n, double *score,
     const double *off_up, const double *off_low)
{
    double *lo = score, *hi = score + n;
    const vd vstep = splat(step), inf = splat(INFINITY);
    Extremum up_lo = {-INFINITY, 0}, up_hi = {-INFINITY, 0};
    Extremum low_lo = {INFINITY, 0}, low_hi = {INFINITY, 0};
    vd sum = {0};
    double tail_sum = 0.0;

    for (long k0 = 0; k0 < n; k0 += BLOCK) {
        const long k1 = k0 + BLOCK < n ? k0 + BLOCK : n;
        vd max_lo = -inf, max_hi = -inf, min_lo = inf, min_hi = inf;
        long k = k0;
        for (; k + LANES <= k1; k += LANES) {
            vd a = load(lo + k), b = load(hi + k);
            if (ki) {
                vd d = (load(ki + k) - load(kj + k)) * vstep;
                a = a - d;
                b = b - d;
                store(lo + k, a);
                store(hi + k, b);
            }
            sum = sum + a + b;
            max_lo = keep_max(a + load(off_up + k), max_lo);
            max_hi = keep_max(b + load(off_up + n + k), max_hi);
            min_lo = keep_min(a + load(off_low + k), min_lo);
            min_hi = keep_min(b + load(off_low + n + k), min_hi);
        }
        double bmax_lo = lane_max(max_lo), bmax_hi = lane_max(max_hi);
        double bmin_lo = lane_min(min_lo), bmin_hi = lane_min(min_hi);
        for (; k < k1; k++) { /* the last n % LANES indices */
            double a = lo[k], b = hi[k], v;
            if (ki) {
                double d = (ki[k] - kj[k]) * step;
                a = a - d;
                b = b - d;
                lo[k] = a;
                hi[k] = b;
            }
            tail_sum += a + b;
            if ((v = a + off_up[k]) > bmax_lo) bmax_lo = v;
            if ((v = b + off_up[n + k]) > bmax_hi) bmax_hi = v;
            if ((v = a + off_low[k]) < bmin_lo) bmin_lo = v;
            if ((v = b + off_low[n + k]) < bmin_hi) bmin_hi = v;
        }
        if (bmax_lo > up_lo.best) up_lo = (Extremum){bmax_lo, k0};
        if (bmax_hi > up_hi.best) up_hi = (Extremum){bmax_hi, k0};
        if (bmin_lo < low_lo.best) low_lo = (Extremum){bmin_lo, k0};
        if (bmin_hi < low_hi.best) low_hi = (Extremum){bmin_hi, k0};
    }

    /* a non-finite score makes the sum non-finite */
    for (int l = 0; l < LANES; l++)
        tail_sum += sum[l];
    if (!isfinite(tail_sum))
        return (Pair){numpy_arg(score, off_up, 2 * n, 1),
                      numpy_arg(score, off_low, 2 * n, -1)};

    /* every index of the upper half comes after every index of the lower */
    const long up_half = up_hi.best > up_lo.best ? n : 0;
    const long low_half = low_hi.best < low_lo.best ? n : 0;
    const Extremum up = up_half ? up_hi : up_lo, low = low_half ? low_hi : low_lo;
    const long up_end = up.block + BLOCK < n ? up.block + BLOCK : n;
    const long low_end = low.block + BLOCK < n ? low.block + BLOCK : n;
    return (Pair){first_equal(score, off_up, up_half, up.block, up_end, up.best),
                  first_equal(score, off_low, low_half, low.block, low_end, low.best)};
}

long svr_smo(const double *K, long n, double C, double tol, double tau, long max_iter,
             double *theta, double *score, double *off_up, double *off_low,
             int *converged)
{
    long iterations = 0;
    *converged = 0;
    if (n < 1)
        return 0;
    Pair pair = scan(NULL, NULL, 0.0, n, score, off_up, off_low);
    while (iterations < max_iter) {
        const long i = pair.up, j = pair.low;
        const double m_val = score[i], big_m = score[j];
        if (m_val - big_m <= tol) {
            *converged = 1;
            break;
        }

        const long ki = i % n, kj = j % n;
        const double eta = K[ki * n + ki] + K[kj * n + kj] - 2.0 * K[ki * n + kj];
        /* Python's max(eta, tau) and min(step, cap_i, cap_j): the first
           argument wins unless a later one compares strictly beyond it, so
           a NaN eta or step stays NaN */
        const double denom = tau > eta ? tau : eta;
        double step = (m_val - big_m) / denom;
        const double cap_i = i < n ? C - theta[i] : theta[i];
        const double cap_j = j < n ? theta[j] : C - theta[j];
        if (cap_i < step)
            step = cap_i;
        if (cap_j < step)
            step = cap_j;

        theta[i] += i < n ? step : -step;
        theta[j] -= j < n ? step : -step;
        const long touched[2] = {i, j};
        for (int t = 0; t < 2; t++) {
            const long k = touched[t];
            const int below_c = theta[k] < C, above_0 = theta[k] > 0;
            const int in_up = k < n ? below_c : above_0;
            const int in_low = k < n ? above_0 : below_c;
            off_up[k] = in_up ? 0.0 : -INFINITY;
            off_low[k] = in_low ? 0.0 : INFINITY;
        }
        /* K is symmetric, so the contiguous rows stand in for its columns */
        pair = scan(K + ki * n, K + kj * n, step, n, score, off_up, off_low);
        iterations++;
    }
    return iterations;
}
