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

   The lane vectors use the vector extension of gcc and clang. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 8

typedef double vd __attribute__((vector_size(LANES * sizeof(double)), may_alias));

static long vectors(long h)
{
    return (h + LANES - 1) / LANES;
}

/* the two weight blocks, the hidden sums, the activations and the deltas,
   in vectors of hv = vectors(h) */
static long block_vectors(long p, long hv)
{
    return (2 * (p + 1) + 3) * hv;
}

long mlp_work_size(long p, long h)
{
    /* one vector of slack to align the blocks */
    return (block_vectors(p, vectors(h)) + 1) * LANES;
}

/* one row's forward pass: the hidden sums x[j] * W[j, :] added for j
   ascending, then the bias W[p, :]; the activations into act; returns
   sum(w_out * act) without the output bias */
static double forward(const vd *W, long hv, long p, long h, const double *x,
                      const double *w_out, vd *z, double *act)
{
    for (long b = 0; b < hv; b++) {
        vd acc = {0.0};
        for (long j = 0; j < p; j++)
            acc += W[j * hv + b] * x[j];
        z[b] = acc + W[p * hv + b];
    }
    const double *zs = (const double *)z;
    double out = 0.0;
    for (long i = 0; i < h; i++) {
        act[i] = 1.0 / (1.0 + exp(-zs[i]));
        out += w_out[i] * act[i];
    }
    return out;
}

double mlp_epoch(const double *x_aug, const double *y, long n, long p, long h,
                 int train, double lr, double momentum, double *theta, double *vel,
                 double *work)
{
    const long cols = p + 1, size = h * cols, hv = vectors(h), hp = hv * LANES;
    double *w_out = theta + size, *v_out = vel + size;
    vd *W = (vd *)(((uintptr_t)work + sizeof(vd) - 1) & ~(uintptr_t)(sizeof(vd) - 1));
    vd *V = W + cols * hv, *z = V + cols * hv, *act = z + hv, *delta = act + hv;
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
        const double err = forward(W, hv, p, h, x, w_out, z, as) + theta[size + h] - y[r];
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
        const double err = forward(W, hv, p, h, x_aug + r * cols, w_out, z, as)
                           + theta[size + h] - y[r];
        total += err * err;
    }
    return sqrt(total / n);
}
