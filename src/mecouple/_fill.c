/* The compiled stages of mecouple.pairwise.min_entropy_coupling.

   _native.py compiles this file with -O2 -ffp-contract=off -fPIC -shared
   and alone calls it, through one ctypes wrapper per entry point: meet(),
   prepare(), fill() and check(); a coupling calls the last three.
   -ffp-contract=off keeps GCC from fusing a + b*c into one FMA, which
   rounds once where the written expression rounds twice. Every sum runs in
   the order of the numpy expression or the test reference it replaced, so
   the floats are theirs bit for bit.

   prepare() orients the pair and cuts it into segments (segments(), its
   static helper), then writes the meet z = a ∧ b (meet()) and returns m,
   the number of z_j > 0. It writes k and swapped to info; k = 0 means no
   component differs by more than eps, and then z is not written and idx
   holds (n + 1, 1).

   fill() is the greedy kernel on the caller's pair (a, b), swapped set
   where b holds the last differing component; idx holds the segment
   boundaries (1-based). z_j in segment s gives at most one diagonal part,
   on (j, j), and at most one push, a remainder carried to a lower line:
   side = (s odd) != swapped reads b_j and pushes to (j, line), !side reads
   a_j and pushes to (line, j). Only the components z_j > 0, m at most,
   give pieces: the buffers rows, cols and vals hold 2m cells, the FIFO 3m
   values (frows, fcols, fvals). The diagonal parts fill the buffers
   downward from slot 2m - 1, so, as j falls, their keys row * n + col
   ascend from d. A push writes the value and its own line at w, a pop or
   flush the receiving line at r: [0, r) is placed, [r, w) still carried.
   Receiving lines fall, so placed keys descend in push order. After the
   leftover check, one forward merge of the diagonal run and the placed
   remainders, newest first, writes the pieces row-major to [0, count), in
   place: the write index is dk - d plus the remainders taken, at most
   r <= m <= d, so it never passes dk.

   check() is the post-condition. It shares no code or state with fill()
   and sees only the pieces handed to it (count cells, whoever wrote them)
   and the marginals a and b: not z, the segments or the FIFO. It refuses
   an index outside [0, n) and a key row * n + col that does not strictly
   ascend, piece by piece. It then sums each axis in piece order, as
   np.bincount does, and writes each axis's worst deviation from a or b
   (NaN if any is NaN, as np.maximum.reduce) to out[0] and out[1]. It
   returns the number of values above eps. The total and the support size
   are pairwise.py's.

   A negative return is an error code, which _native.py raises from its
   ERRORS table: the offending value goes to bad[0] (fill) or the piece's
   index to out[2] (check), the 0-based component to bad[1]; a segment
   outside 0..n is refused before it is read. A buffer may be empty: none
   of its elements is then read or written. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define NEGATIVE_REMAINDER (-1)
#define MASS_UNPLACED (-2)
#define BAD_SEGMENT (-3)
#define NEGATIVE_MEET (-4)
#define OUT_OF_RANGE (-5)
#define OUT_OF_ORDER (-6)
#define NO_MEMORY (-7)

/* The boundaries n + 1 = idx[0] > ... > idx[k] = 1: reading the suffix sums
   d of a - b downward from a virtual non-negative sign above n, a segment
   ends wherever the sign of d beyond eps flips (taken for b - a when
   swapped, which negates every d exactly); smaller ones extend it. k = 0
   when no component differs beyond eps; idx then holds (n + 1, 1). idx has
   room for n + 2 entries: k <= n, and n = 0 still writes two. */
static int64_t segments(const double *a, const double *b, int64_t n, double eps,
                        int64_t *idx, int64_t *swapped)
{
    int64_t last = n - 1, k = 0;
    while (last >= 0 && !(fabs(a[last] - b[last]) > eps))
        last--;
    idx[0] = n + 1;
    *swapped = last >= 0 && a[last] < b[last];
    if (last < 0) {
        idx[1] = 1;
        return 0;
    }
    int neg = 0;
    double d = 0.0;
    for (int64_t j = n - 1; j >= 0; j--) {
        d += a[j] - b[j];
        if (fabs(d) > eps && (*swapped ? d > 0.0 : d < 0.0) != neg) {
            neg = !neg;
            idx[++k] = j + 2;
        }
    }
    idx[++k] = 1;
    return k;
}

/* First differences of the smaller prefix sum, sequential sums as cumsum's,
   the minimum as np.minimum's (a NaN wins); a difference in [-eps, 0) reads
   0.0, and one below -eps is refused. */
int64_t meet(const double *a, const double *b, int64_t n, double eps, double *z)
{
    double sa = 0.0, sb = 0.0, prev = 0.0;
    int64_t m = 0;
    for (int64_t j = 0; j < n; j++) {
        sa = j ? sa + a[j] : a[j];
        sb = j ? sb + b[j] : b[j];
        double low = (sa < sb || sa != sa) ? sa : sb;
        double zj = j ? low - prev : low;
        prev = low;
        if (zj < 0.0) {
            if (zj < -eps)
                return NEGATIVE_MEET;
            zj = 0.0;
        }
        z[j] = zj;
        m += zj > 0.0;
    }
    return m;
}

int64_t prepare(const double *a, const double *b, int64_t n, double eps, double *z,
                int64_t *idx, int64_t *info)
{
    info[0] = segments(a, b, n, eps, idx, info + 1);
    return info[0] ? meet(a, b, n, eps, z) : 0;
}

int64_t fill(const double *a, const double *b, const double *z, int64_t n, const int64_t *idx,
             int64_t k, double eps, double eps_sum, int swapped, int64_t m, int64_t *rows,
             int64_t *cols, double *vals, int64_t *fifo, double *bad)
{
    int64_t *frows = fifo, *fcols = fifo + m, d = 2 * m, r = 0, w = 0;
    double *fvals = (double *)(fifo + 2 * m);
    for (int64_t s = 1; s <= k; s++) {
        int side = (s % 2 == 1) != swapped;
        const double *x_of = side ? b : a;
        int64_t *own = side ? frows : fcols, *line = side ? fcols : frows;
        int64_t lo = idx[s] - 1, hi = idx[s - 1] - 1; /* components lo..hi-1 */
        if (lo < 0 || lo > hi || hi > n)
            return BAD_SEGMENT;
        for (int64_t j = hi - 1; j >= lo; j--) {
            double zj = z[j];
            if (!(zj > 0.0))
                continue;
            double x = x_of[j], x_low = x - eps;
            /* every carried value is above eps, so the first pop starts the
               sum; without a pop, the diagonal part is x */
            if (r < w && fvals[r] < x_low) {
                double acc = fvals[r];
                line[r++] = j;
                while (r < w && acc + fvals[r] < x_low) {
                    acc += fvals[r];
                    line[r++] = j;
                }
                x -= acc;
            }
            if (x > eps) {
                rows[--d] = j;
                cols[d] = j;
                vals[d] = x;
            }
            double rem = zj - x;
            if (rem > eps) {
                own[w] = j;
                fvals[w++] = rem;
            } else if (rem < -eps_sum) {
                bad[0] = rem;
                bad[1] = (double)j;
                return NEGATIVE_REMAINDER;
            }
        }
        if (lo != 0)
            for (; r < w; r++)
                line[r] = lo - 1;
    }
    double leftover = 0.0;
    for (int64_t i = r; i < w; i++)
        leftover += fvals[i];
    if (!(leftover <= eps_sum)) {
        bad[0] = leftover;
        return MASS_UNPLACED;
    }
    int64_t count = 0, dk = d, rk = r - 1;
    for (; count < r + 2 * m - d; count++) {
        if (rk < 0 || (dk < 2 * m && rows[dk] * n + cols[dk] < frows[rk] * n + fcols[rk])) {
            rows[count] = rows[dk];
            cols[count] = cols[dk];
            vals[count] = vals[dk++];
        } else {
            rows[count] = frows[rk];
            cols[count] = fcols[rk];
            vals[count] = fvals[rk--];
        }
    }
    return count;
}

/* max(dev, |got - want|), where a NaN, once seen, stays */
static double worse(double dev, double got, double want)
{
    double d = fabs(got - want);
    return (d > dev || d != d) ? d : dev;
}

int64_t check(const int64_t *rows, const int64_t *cols, const double *vals, int64_t count,
              const double *a, const double *b, int64_t n, double eps, double *out)
{
    for (int64_t i = 0; i < count; i++) {
        out[2] = (double)i;
        if (rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n)
            return OUT_OF_RANGE;
        /* both cells lie in [0, n)^2, so neither key overflows */
        if (i && rows[i] * n + cols[i] <= rows[i - 1] * n + cols[i - 1])
            return OUT_OF_ORDER;
    }
    /* rows ascend, so each row's pieces are one run, summed in order */
    double dev = 0.0;
    for (int64_t line = 0, i = 0; line < n; line++) {
        double got = 0.0;
        for (; i < count && rows[i] == line; i++)
            got += vals[i];
        dev = worse(dev, got, a[line]);
    }
    out[0] = dev;
    double *sums = calloc((size_t)n, sizeof(double));
    if (!sums && n)
        return NO_MEMORY;
    for (int64_t i = 0; i < count; i++)
        sums[cols[i]] += vals[i];
    dev = 0.0;
    for (int64_t line = 0; line < n; line++)
        dev = worse(dev, sums[line], b[line]);
    free(sums);
    out[1] = dev;
    int64_t nnz = 0;
    for (int64_t i = 0; i < count; i++)
        nnz += vals[i] > eps;
    return nnz;
}
