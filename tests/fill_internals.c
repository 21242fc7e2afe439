/* Exported wrappers around static functions of src/mecouple/_fill.c, which
   no entry point of the extension module reaches on its own: the oracle's
   rounding and the greedy kernel on boundaries the caller hands it.
   tests/test_fill_internals.py builds this file with _native._CFLAGS into a
   shared object and calls it through ctypes; the production module is
   built from _fill.c alone. */

#include "../src/mecouple/_fill.c"

/* rounded() of each of count values */
void round_each(const double *x, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = rounded(x[i]);
}

int64_t fill_on(const double *a, const double *b, const double *z, int64_t n, const int64_t *idx,
                int64_t k, double eps, double eps_sum, int64_t swapped, int64_t m, int64_t *rows,
                int64_t *cols, double *vals, int64_t *fifo, double *bad)
{
    return fill(a, b, z, n, idx, k, eps, eps_sum, swapped, m, rows, cols, vals, fifo, bad);
}
