/* The greedy fill of mecouple.pairwise._couple_oriented.

   pairwise.py compiles this file with -O2 -ffp-contract=off -fPIC -shared
   and calls fill() through ctypes. -ffp-contract=off is required: GCC fuses
   a + b*c into one FMA by default on targets that have one, and the fused
   result rounds once where the written expression rounds twice, so it would
   change floats. The loop makes the same double operations in the same
   order as the test reference, tests/util.py's reference_couple_oriented,
   and its pieces are compared with that reference's bit for bit.

   Component z_j reads b_j in odd segments and a_j in even ones, and gives
   at most one diagonal part, on (j, j), and at most one push: a remainder
   carried to a lower line, on (j, line) in odd segments and (line, j) in
   even ones. So the caller's buffers rows, cols and vals of 2n hold every
   piece as a 0-based cell: the diagonal parts fill [*first, n) downward
   from slot n - 1, their keys ascending, and the remainders [n, w) upward
   in push order. That region is the FIFO: a push writes the value and the
   component's own line, a pop or a flush only the line that receives it;
   [n, r) is placed, [r, w) still carried, the oldest first. idx holds the
   k + 1 segment boundaries of InversionPoints.indices (1-based,
   decreasing). Returns r, so the pieces are [*first, r), or a negative
   code, which pairwise._fill raises as InternalInvariant: with the
   offending value in bad[0] (and the 0-based component in bad[1]), or, for
   a segment outside 0..n, before anything is read or written there. */

#include <stdint.h>

#define NEGATIVE_REMAINDER (-1)
#define MASS_UNPLACED (-2)
#define BAD_SEGMENT (-3)

int64_t fill(const double *a, const double *b, const double *z, int64_t n,
             const int64_t *idx, int64_t k, double eps, double eps_sum,
             int64_t *rows, int64_t *cols, double *vals, int64_t *first, double *bad)
{
    int64_t d = n, r = n, w = n;
    for (int64_t s = 1; s <= k; s++) {
        int odd = s % 2 == 1;
        const double *m = odd ? b : a;
        int64_t *own = odd ? rows : cols, *line = odd ? cols : rows;
        int64_t lo = idx[s] - 1, hi = idx[s - 1] - 1; /* components lo..hi-1 */
        if (lo < 0 || lo > hi || hi > n)
            return BAD_SEGMENT;
        for (int64_t j = hi - 1; j >= lo; j--) {
            double zj = z[j];
            if (zj <= 0.0)
                continue;
            double x = m[j], x_low = x - eps;
            /* every carried value is above eps, so the first pop starts the
               sum; without a pop, the diagonal part is x */
            if (r < w && vals[r] < x_low) {
                double acc = vals[r];
                line[r++] = j;
                while (r < w && acc + vals[r] < x_low) {
                    acc += vals[r];
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
                vals[w++] = rem;
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
        leftover += vals[i];
    if (!(leftover <= eps_sum)) {
        bad[0] = leftover;
        return MASS_UNPLACED;
    }
    *first = d;
    return r;
}
