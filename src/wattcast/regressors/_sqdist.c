/* Squared Euclidean distances between the rows of two matrices.
 *
 * D[i, j] = sum over k of (A[i, k] - B[j, k])^2, summed from k = 0 upward
 * with one rounding per subtraction, product and addition, as scipy's
 * cdist(A, B, "sqeuclidean") sums it; built with -ffp-contract=off, no
 * product is fused into its addition, so D equals cdist's output bit for bit.
 *
 * B arrives packed in blocks of LANES rows, feature-major within a block:
 * element (b, k, l) is B[b * LANES + l, k], zero past B's last row. One
 * LANES-wide vector then holds feature k of LANES rows, and a tile of ROWS
 * rows of A against one block keeps ROWS vector accumulators in registers.
 * Padded lanes are computed and never stored.
 *
 * With upper set, only the cells j >= i are stored: a tile starts at the
 * block that holds its first row, and the cells it computes left of the
 * diagonal are dropped. The caller's D keeps whatever those cells held.
 */

#include <string.h>

#define LANES 8
#define ROWS 4

typedef double v8 __attribute__((vector_size(LANES * sizeof(double))));

/* rows (<= ROWS) rows of A, the first of them row i, against the blocks of
   Bp, into rows rows of D */
static inline __attribute__((always_inline)) void
tile(const double *A, long i, long rows, const double *Bp, long nb, long d, int upper,
     double *D)
{
    long blocks = (nb + LANES - 1) / LANES;
    for (long b = upper ? i / LANES : 0; b < blocks; b++) {
        const double *block = Bp + b * d * LANES;
        v8 acc[ROWS];
        for (long r = 0; r < rows; r++)
            acc[r] = (v8){0};
        for (long k = 0; k < d; k++) {
            v8 column;
            memcpy(&column, block + k * LANES, sizeof column);
            for (long r = 0; r < rows; r++) {
                v8 diff = A[r * d + k] - column;
                acc[r] += diff * diff;
            }
        }
        long first = b * LANES;
        long width = nb - first < LANES ? nb - first : LANES;
        for (long r = 0; r < rows; r++) {
            double *out = D + r * nb + first;
            /* lanes left of row i + r's diagonal cell */
            long skip = upper && i + r > first ? i + r - first : 0;
            /* one vector store for a whole block: gcc compiles a memcpy of
               a variable length here to a slow rep movs */
            if (skip == 0 && width == LANES)
                memcpy(out, &acc[r], sizeof acc[r]);
            else
                for (long l = skip; l < width; l++)
                    out[l] = acc[r][l];
        }
    }
}

static inline __attribute__((always_inline)) void
distances(const double *A, long na, const double *Bp, long nb, long d, int upper, double *D)
{
    long i = 0;
    for (; i + ROWS <= na; i += ROWS)
        tile(A + i * d, i, ROWS, Bp, nb, d, upper, D + i * nb);
    /* a constant row count per call lets each tile keep its accumulators
       in registers */
    switch (na - i) {
    case 3: tile(A + i * d, i, 3, Bp, nb, d, upper, D + i * nb); break;
    case 2: tile(A + i * d, i, 2, Bp, nb, d, upper, D + i * nb); break;
    case 1: tile(A + i * d, i, 1, Bp, nb, d, upper, D + i * nb); break;
    }
}

void sq_distances(const double *A, long na, const double *Bp, long nb, long d, int upper,
                  double *D)
{
    /* a constant flag per call lets each copy drop the other's stores */
    if (upper)
        distances(A, na, Bp, nb, d, 1, D);
    else
        distances(A, na, Bp, nb, d, 0, D);
}
