/* One epoch of per-sample SGD with momentum for MlpModel (see mlp.py), and
   the training RMSE of the weights it leaves.

   theta and vel share the packed layout
   [W_aug = [w_in | b_in] (h x (p+1)), w_out (h), b_out]; x_aug holds n rows
   of p+1 values whose last value is 1.0; work holds mlp_work_size(p, h)
   doubles.

   The hidden units run as vector lanes. At the start of a call W_aug and its
   velocity are copied, transposed, into (p+1) x hp blocks whose rows are
   padded with zeros to hp, h rounded up to LANES; at the end both blocks are
   copied back. A row's forward pass adds W[j, :] * x[j] to every hidden sum
   for j ascending, and its update sets v[j, :] = v * momentum
   - (delta * x[j]) * lr, then w += v, one input at a time. The padding lanes
   hold zero weights and zero deltas and never reach the output.

   Every weight sees the same floating-point operations, in the same order,
   as the numpy loop in mlp.py, provided the compiler fuses no multiply-add
   (build with -ffp-contract=off). Only the two dot products of a row are
   summed in plain loop order, where numpy calls BLAS; each hidden sum adds
   its terms for j ascending whatever the lane width, so the weights are the
   same bits as a loop over one hidden unit at a time.

   The returned RMSE runs each row's forward pass as training does. With
   train == 0 the call only scores the weights it was given.

   mlp_sigmoid is the activation alone, elementwise, for predictions.

   The sigmoid's exp is vexp below, not libm's, so its bits are the same on
   every host; table holds the 2^(j/N) values it reads (see mlp.py).

   The lane vectors use the vector extension of gcc and clang. Vectors pass
   through pointers, since gcc notes (-Wpsabi) every function that takes or
   returns one by value when the target lacks the vector width. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 8
#define LOG_N 7
#define N (1 << LOG_N) /* exp table entries */

typedef double vd __attribute__((vector_size(LANES * sizeof(double)), may_alias));
typedef long long vl __attribute__((vector_size(LANES * sizeof(long long))));
typedef unsigned long long vu __attribute__((vector_size(LANES * sizeof(long long))));

/* exp of every lane of *x into *y, by Tang's table-driven method (ACM TOMS
   15(2), 1989) as a fixed sequence of IEEE operations; mlp.py's _exp does
   the same operations on arrays. x is clamped to [-746, 710], where exp
   rounds to 0 and to inf; a NaN stays NaN. With k = round(x N / ln 2), by
   the 1.5 * 2^52 shift that leaves k in the low bits, j = k mod N and
   m = floor(k / N):
     exp(x) = 2^m * 2^(j/N) * exp(r),  r = x - k (ln 2 / N)_hi - k (ln 2 / N)_lo.
   (ln 2 / N)_hi has 28 significant bits, so k times it is exact, and |r| is
   about ln 2 / 2N at most. exp(r) - 1 is the degree-5 Taylor polynomial;
   2^(j/N) is table[j] + table[N + j]. (ki >> LOG_N) << 52 is m in the
   exponent field, the shift's own bits falling off the top; 2^m is put
   together from it as 2^(m - m/2) * 2^(m/2), m/2 rounded down, so that a
   subnormal result rounds once and m = 1024 overflows. The index is masked
   before any load, so a NaN lane never reads outside the table. */
static void vexp(vd *y, const vd *x, const double *table)
{
    vd v = *x;
    for (int i = 0; i < LANES; i++)
        v[i] = v[i] < -746.0 ? -746.0 : v[i] > 710.0 ? 710.0 : v[i];
    vd kd = v * 0x1.71547652b82fep7 + 0x1.8p52;
    const vu ki = (vu)kd, j = ki & (N - 1);
    kd -= 0x1.8p52;
    const vd r = (v - kd * 0x1.62e42ffp-8) - kd * -0x1.718432a1b0e26p-42;
    vd hi, tail;
    for (int i = 0; i < LANES; i++) {
        hi[i] = table[j[i]];
        tail[i] = table[N + j[i]];
    }
    const vd p = r + r * r * (0.5 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120))));
    const vu m = (ki >> LOG_N) << 52, half = (vu)((vl)m >> 1) & -(1ULL << 52);
    *y = (hi + (tail + hi * p)) * (vd)(m - half + (0x3ffULL << 52)) * (vd)(half + (0x3ffULL << 52));
}

/* 1 / (1 + exp(-z)) of every lane */
static void vsigmoid(vd *act, const vd *z, const double *table)
{
    const vd minus = -*z;
    vd e;
    vexp(&e, &minus, table);
    *act = 1.0 / (1.0 + e);
}

static long vectors(long h)
{
    return (h + LANES - 1) / LANES;
}

/* the two weight blocks, the activations and the deltas, in vectors of
   hv = vectors(h) */
static long block_vectors(long p, long hv)
{
    return (2 * (p + 1) + 2) * hv;
}

/* z and act may be the same array, at any alignment */
void mlp_sigmoid(const double *z, long n, double *act, const double *table)
{
    for (long i = 0; i < n; i += LANES) {
        const size_t bytes = (n - i < LANES ? n - i : LANES) * sizeof(double);
        vd v = {0.0};
        memcpy(&v, z + i, bytes);
        vsigmoid(&v, &v, table);
        memcpy(act + i, &v, bytes);
    }
}

long mlp_work_size(long p, long h)
{
    /* one vector of slack to align the blocks */
    return (block_vectors(p, vectors(h)) + 1) * LANES;
}

/* one row's forward pass: the hidden sums x[j] * W[j, :] added for j
   ascending, then the bias W[p, :]; their sigmoids into act (a padding
   lane's is 0.5); returns sum(w_out * act) without the output bias */
static double forward(const vd *W, long hv, long p, long h, const double *x,
                      const double *w_out, vd *act, const double *table)
{
    for (long b = 0; b < hv; b++) {
        vd acc = {0.0};
        for (long j = 0; j < p; j++)
            acc += W[j * hv + b] * x[j];
        act[b] = acc + W[p * hv + b];
    }
    /* every sum first, then every sigmoid: measured faster than one loop */
    for (long b = 0; b < hv; b++)
        vsigmoid(&act[b], &act[b], table);
    const double *as = (const double *)act;
    double out = 0.0;
    for (long i = 0; i < h; i++)
        out += w_out[i] * as[i];
    return out;
}

double mlp_epoch(const double *x_aug, const double *y, long n, long p, long h,
                 int train, double lr, double momentum, double *theta, double *vel,
                 double *work, const double *table)
{
    const long cols = p + 1, size = h * cols, hv = vectors(h), hp = hv * LANES;
    double *w_out = theta + size, *v_out = vel + size;
    vd *W = (vd *)(((uintptr_t)work + sizeof(vd) - 1) & ~(uintptr_t)(sizeof(vd) - 1));
    vd *V = W + cols * hv, *act = V + cols * hv, *delta = act + hv;
    double *Ws = (double *)W, *Vs = (double *)V;
    double *as = (double *)act, *ds = (double *)delta;

    memset(W, 0, block_vectors(p, hv) * sizeof(vd));
    for (long i = 0; i < h; i++)
        for (long j = 0; j < cols; j++) {
            Ws[j * hp + i] = theta[i * cols + j];
            Vs[j * hp + i] = vel[i * cols + j];
        }

    for (long r = 0; train && r < n; r++) {
        const double *x = x_aug + r * cols;
        const double err = forward(W, hv, p, h, x, w_out, act, table) + theta[size + h] - y[r];
        const double step = lr * err;
        for (long i = 0; i < h; i++) {
            double d = w_out[i] * err;
            d *= as[i];
            d *= 1.0 - as[i];
            ds[i] = d;
        }

        /* gradients are complete: vel = vel * momentum - grad; theta += vel */
        for (long j = 0; j < cols; j++) {
            const double xj = x[j];
            for (long b = 0; b < hv; b++) {
                const vd v = V[j * hv + b] * momentum - (delta[b] * xj) * lr;
                V[j * hv + b] = v;
                W[j * hv + b] += v;
            }
        }
        for (long i = 0; i < h; i++) {
            v_out[i] = v_out[i] * momentum - as[i] * step;
            w_out[i] += v_out[i];
        }
        v_out[h] = v_out[h] * momentum - step;
        theta[size + h] += v_out[h];
    }

    for (long i = 0; i < h; i++)
        for (long j = 0; j < cols; j++) {
            theta[i * cols + j] = Ws[j * hp + i];
            vel[i * cols + j] = Vs[j * hp + i];
        }

    /* the training RMSE of the weights the epoch leaves */
    double total = 0.0;
    for (long r = 0; r < n; r++) {
        const double err = forward(W, hv, p, h, x_aug + r * cols, w_out, act, table)
                           + theta[size + h] - y[r];
        total += err * err;
    }
    return sqrt(total / n);
}
