/* The greedy fill of mecouple.pairwise._couple_oriented.

   pairwise.py compiles this file with -O2 -ffp-contract=off -fPIC -shared
   and calls fill() through ctypes. -ffp-contract=off is required: GCC fuses
   a + b*c into one FMA by default on targets that have one, and the fused
   result rounds once where the written expression rounds twice, so it would
   change floats. The loop makes the same double operations in the same
   order as the test reference, tests/util.py's reference_couple_oriented,
   and its pieces are compared with that reference's bit for bit.

   m holds the marginal each component reads: b_j in odd segments, a_j in
   even ones. The loop overwrites m[j] with z_j's diagonal part (0.0 where
   z_j is not positive) and writes to lines the line that receives each
   carried remainder, in push order; a line recorded in an even segment is
   stored as line - n. idx holds the k + 1 segment boundaries of
   InversionPoints.indices (1-based, decreasing). fifo is scratch for the
   carried remainders, at most one per component, so n doubles suffice:
   fifo[r..w) is carried, the oldest first. Returns the number of lines, or
   a negative code, which pairwise._fill raises as InternalInvariant: with
   the offending value in bad[0] (and the 0-based component in bad[1]), or,
   for a segment outside 0..n, before anything is read or written there. */

#include <stdint.h>

#define NEGATIVE_REMAINDER (-1)
#define MASS_UNPLACED (-2)
#define BAD_SEGMENT (-3)

int64_t fill(double *m, const double *z, int64_t n, const int64_t *idx, int64_t k,
             double eps, double eps_sum, double *fifo, int64_t *lines, double *bad)
{
    int64_t r = 0, w = 0, count = 0;
    for (int64_t s = 1; s <= k; s++) {
        int64_t shift = s % 2 == 1 ? 0 : n;
        int64_t lo = idx[s] - 1, hi = idx[s - 1] - 1; /* components lo..hi-1 */
        if (lo < 0 || lo > hi || hi > n)
            return BAD_SEGMENT;
        for (int64_t j = hi - 1; j >= lo; j--) {
            double zj = z[j];
            if (zj <= 0.0) {
                m[j] = 0.0;
                continue;
            }
            double x = m[j], x_low = x - eps;
            /* every carried value is above eps, so the first pop starts the
               sum; without a pop, the diagonal part is x and stays in place */
            if (r < w && fifo[r] < x_low) {
                double acc = fifo[r++];
                lines[count++] = j - shift;
                while (r < w && acc + fifo[r] < x_low) {
                    acc += fifo[r++];
                    lines[count++] = j - shift;
                }
                x = m[j] = x - acc;
            }
            double rem = zj - x;
            if (rem > eps) {
                fifo[w++] = rem;
            } else if (rem < -eps_sum) {
                bad[0] = rem;
                bad[1] = (double)j;
                return NEGATIVE_REMAINDER;
            }
        }
        if (lo != 0)
            for (; r < w; r++)
                lines[count++] = lo - 1 - shift;
    }
    double leftover = 0.0;
    for (; r < w; r++)
        leftover += fifo[r];
    if (!(leftover <= eps_sum)) {
        bad[0] = leftover;
        return MASS_UNPLACED;
    }
    return count;
}
