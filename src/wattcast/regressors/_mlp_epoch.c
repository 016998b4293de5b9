/* One epoch of per-sample SGD with momentum for MlpModel (see mlp.py).

   theta and vel share the packed layout
   [W_aug = [w_in | b_in] (h x (p+1)), w_out (h), b_out]; x_aug holds n rows
   of p+1 values whose last value is 1.0; work holds 2h doubles.

   Every weight sees the same floating-point operations, in the same order,
   as the numpy loop in mlp.py, provided the compiler fuses no multiply-add
   (build with -ffp-contract=off). Only the two dot products are summed in
   plain loop order, where numpy calls BLAS. */

#include <math.h>

void mlp_epoch(const double *x_aug, const double *y, long n, long p, long h,
               double lr, double momentum, double *theta, double *vel,
               double *work)
{
    const long cols = p + 1, size = h * cols;
    double *w_out = theta + size, *v_out = vel + size;
    double *act = work, *delta = work + h;

    for (long r = 0; r < n; r++) {
        const double *x = x_aug + r * cols;
        double out = 0.0;
        for (long i = 0; i < h; i++) {
            const double *w = theta + i * cols;
            double z = 0.0;
            for (long j = 0; j < p; j++)
                z += w[j] * x[j];
            z += w[p];
            act[i] = 1.0 / (1.0 + exp(-z));
            out += w_out[i] * act[i];
        }
        const double err = out + theta[size + h] - y[r];
        const double step = lr * err;
        for (long i = 0; i < h; i++) {
            double d = w_out[i] * err;
            d *= act[i];
            d *= 1.0 - act[i];
            delta[i] = d;
        }

        /* gradients are complete: vel = vel * momentum - grad; theta += vel */
        for (long i = 0; i < h; i++) {
            double *w = theta + i * cols, *v = vel + i * cols;
            for (long j = 0; j < cols; j++) {
                v[j] = v[j] * momentum - (delta[i] * x[j]) * lr;
                w[j] += v[j];
            }
        }
        for (long i = 0; i < h; i++) {
            v_out[i] = v_out[i] * momentum - act[i] * step;
            w_out[i] += v_out[i];
        }
        v_out[h] = v_out[h] * momentum - step;
        theta[size + h] += v_out[h];
    }
}
