/* The greedy fill of mecouple.pairwise.min_entropy_coupling.

   pairwise.py compiles this file with -O2 -ffp-contract=off -fPIC -shared
   and calls fill() through ctypes. -ffp-contract=off keeps GCC from fusing
   a + b*c into one FMA, which rounds once where the written expression
   rounds twice. The loop makes the double operations of the test reference
   loop in tests/util.py in the same order, and matches its pieces bit for bit.

   (a, b) is the caller's pair, swapped set where b holds the last
   differing component; idx holds InversionPoints.indices (1-based). z_j in
   segment s gives at most one diagonal part, on (j, j), and at most one
   push, a remainder carried to a lower line: side = (s odd) != swapped
   reads b_j and pushes to (j, line), !side reads a_j and pushes to (line, j).

   Only the components z_j > 0, m at most, give pieces: the buffers rows, cols
   and vals hold 2m cells, the FIFO 3m values (frows, fcols, fvals). The
   diagonal parts fill the buffers downward from slot 2m - 1, so, as j
   falls, their keys row * n + col ascend from d. A push writes the value
   and its own line at w, a pop or flush the receiving line at r: [0, r) is
   placed, [r, w) still carried. Receiving lines fall, so placed keys
   descend in push order. After the leftover check, one forward merge of
   the diagonal run and the placed remainders, newest first, writes the
   pieces row-major to [0, count), in place: the write index is dk - d plus
   the remainders taken, at most r <= m <= d, so it never passes dk.

   Returns count, or a negative code that pairwise._fill raises as
   InternalInvariant, with the offending value in bad[0] and the 0-based
   component in bad[1]; a segment outside 0..n is refused before it is read. */

#include <stdint.h>

#define NEGATIVE_REMAINDER (-1)
#define MASS_UNPLACED (-2)
#define BAD_SEGMENT (-3)

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
