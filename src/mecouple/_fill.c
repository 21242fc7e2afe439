/* The compiled stages of mecouple.pairwise.min_entropy_coupling, and the
   search of mecouple.oracle.exact_min_entropy.

   _native.py compiles this file with -O2 -ffp-contract=off -fPIC -shared
   and Python.h's include path into the CPython extension module
   mecouple._fill, and alone calls it, through one wrapper per entry point:
   meet(), prepare(), fill(), check() and oracle(); a coupling calls
   prepare(), fill() and check(). The module's functions, at the end of this
   file, take numpy arrays through the buffer protocol and refuse a wrong
   argument before the stage runs; the stages are static, and only
   PyInit__fill is exported. -ffp-contract=off keeps GCC from fusing a + b*c
   into one FMA, which rounds once where the written expression rounds twice.
   Every sum runs in the order of the numpy expression or the test
   reference it replaced, so the floats are theirs bit for bit.

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

   oracle() is the exact search over every greedy fill of the marginals
   res[0..n) (rows) and res[n..n + m) (columns), as tests/util.py's
   reference_exact_min_entropy runs it: the active lines are those above
   eps, cells are tried row-major over them, a move retires the column
   where c < r and the row otherwise, each -v log2 v term and h + sub sum
   is the reference's, and the first strictly better move is kept. States
   are memoised by key, one word per residual: 0 where it rounds to zero at
   digits decimals (-0.0 too), otherwise the bits of the rounded value, the
   rounding done by printing and reading back, as Python's round does, so
   two keys are equal exactly when the reference's tuples are. It writes the
   optimum to *opt and replays the stored first moves from res, which it
   consumes, into the zeroed n x m matrix mat. The replay can reach a key
   the search never stored only if two states of one memo class lead apart
   (the reference raises KeyError there); oracle() returns UNSOLVED_STATE.
   Every buffer is sized from n + m on the heap: the per-depth keys and
   line lists take 32 (n + m)^2 bytes.

   A negative return is an error code, which _native.py raises from its
   ERRORS table: the offending value goes to bad[0] (fill) or the piece's
   index to out[2] (check), the 0-based component to bad[1], and the module
   hands them back as Python numbers beside the code. fill() refuses
   boundaries that do not fall strictly from idx[0] = n + 1 to idx[k] = 1
   with k >= 1 before it reads the segment they cut wrongly. A
   buffer may be empty: none of its elements is then read or written. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define NEGATIVE_REMAINDER (-1)
#define MASS_UNPLACED (-2)
#define BAD_SEGMENT (-3)
#define NEGATIVE_MEET (-4)
#define OUT_OF_RANGE (-5)
#define OUT_OF_ORDER (-6)
#define NO_MEMORY (-7)
#define UNSOLVED_STATE (-8)

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
static int64_t meet(const double *a, const double *b, int64_t n, double eps, double *z)
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

static int64_t prepare(const double *a, const double *b, int64_t n, double eps, double *z,
                       int64_t *idx, int64_t *info)
{
    info[0] = segments(a, b, n, eps, idx, info + 1);
    return info[0] ? meet(a, b, n, eps, z) : 0;
}

static int64_t fill(const double *a, const double *b, const double *z, int64_t n,
                    const int64_t *idx, int64_t k, double eps, double eps_sum, int swapped,
                    int64_t m, int64_t *rows, int64_t *cols, double *vals, int64_t *fifo,
                    double *bad)
{
    int64_t *frows = fifo, *fcols = fifo + m, d = 2 * m, r = 0, w = 0;
    double *fvals = (double *)(fifo + 2 * m);
    if (k < 1 || idx[0] != n + 1 || idx[k] != 1)
        return BAD_SEGMENT;
    for (int64_t s = 1; s <= k; s++) {
        int side = (s % 2 == 1) != swapped;
        const double *x_of = side ? b : a;
        int64_t *own = side ? frows : fcols, *line = side ? fcols : frows;
        int64_t lo = idx[s] - 1, hi = idx[s - 1] - 1; /* components lo..hi-1 */
        if (lo < 0 || lo >= hi || hi > n)
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

static int64_t check(const int64_t *rows, const int64_t *cols, const double *vals,
                     int64_t count, const double *a, const double *b, int64_t n, double eps,
                     double *out)
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

/* -- oracle() ------------------------------------------------------------- */

/* An active line of a search state: its index (columns are n + j), its
   residual and the residual's -v log2 v term. */
typedef struct {
    int64_t line;
    double v, h;
} Line;

/* A slot of a WordMap: a residual's bits and its key word + 1, 0 where
   empty; strtod never reads back the one pattern, all ones, that wraps. */
typedef struct {
    uint64_t bits, word;
} WordSlot;

/* Open addressing over mask + 1 slots, doubled at half load. */
typedef struct {
    WordSlot *slots;
    int64_t mask, len;
} WordMap;

/* A memo entry: its key's hash, the optimal completion, and its first move
   i * m + j (-1 for none). */
typedef struct {
    uint64_t hash;
    double best;
    int64_t choice;
} Entry;

typedef struct {
    int64_t n, m, width, err;
    double eps;
    int digits;
    WordMap by_value;
    uint64_t *keys;      /* the key of the state at depth d at keys + d * width */
    Line *lines;         /* its rows, then its columns, at lines + d * width */
    Entry *entries;      /* the memo: len of room entries, entry e's key at */
    uint64_t *memo_keys; /* memo_keys + e * width; its slot holds e + 1 */
    int64_t *slots, mask, len, room;
} Search;

static int64_t fib(uint64_t x, int64_t mask)
{
    return (int64_t)((x * 0x9E3779B97F4A7C15u) >> 32) & mask;
}

/* the slot of bits in map, which holds it or is empty */
static WordSlot *word_slot(const WordMap *map, uint64_t bits)
{
    int64_t at = fib(bits, map->mask);
    while (map->slots[at].word && map->slots[at].bits != bits)
        at = (at + 1) & map->mask;
    return map->slots + at;
}

/* bits -> word into map; 0, or NO_MEMORY */
static int64_t word_put(WordMap *map, uint64_t bits, uint64_t word)
{
    if (2 * (map->len + 1) > map->mask + 1) {
        WordMap grown = {calloc(2 * (size_t)(map->mask + 1), sizeof(WordSlot)),
                         2 * map->mask + 1, map->len};
        if (!grown.slots)
            return NO_MEMORY;
        for (int64_t at = 0; at <= map->mask; at++)
            if (map->slots[at].word)
                *word_slot(&grown, map->slots[at].bits) = map->slots[at];
        free(map->slots);
        *map = grown;
    }
    *word_slot(map, bits) = (WordSlot){bits, word + 1};
    map->len++;
    return 0;
}

/* x printed with digits decimals and read back into *r: Python's
   round(x, digits), which also rounds the decimal correctly and an exact
   tie to even; 0, or NO_MEMORY */
static int64_t rounded(double x, int digits, double *r)
{
    char small[64], *text = small;
    int len = snprintf(small, sizeof small, "%.*f", digits, x);
    if (len >= (int)sizeof small) {
        if (!(text = malloc((size_t)len + 1)))
            return NO_MEMORY;
        snprintf(text, (size_t)len + 1, "%.*f", digits, x);
    }
    *r = strtod(text, NULL);
    if (text != small)
        free(text);
    return 0;
}

/* The key word of residual x: 0 where x rounds to zero (-0.0 too), else
   the bits of the rounded value, equal exactly where the values are. Each
   distinct x is rounded once. Sets s->err when out of memory. */
static uint64_t word_of(Search *s, double x)
{
    uint64_t bits, word = 0;
    memcpy(&bits, &x, sizeof bits);
    WordSlot *known = word_slot(&s->by_value, bits);
    if (known->word)
        return known->word - 1;
    double r;
    if (rounded(x, s->digits, &r) < 0) {
        s->err = NO_MEMORY;
        return 0;
    }
    if (r != 0.0)
        memcpy(&word, &r, sizeof word);
    if (word_put(&s->by_value, bits, word) < 0)
        s->err = NO_MEMORY;
    return word;
}

static uint64_t hash_key(const uint64_t *key, int64_t width)
{
    uint64_t h = 0xCBF29CE484222325u;
    for (int64_t x = 0; x < width; x++)
        h = (h ^ key[x]) * 0x100000001B3u;
    return h;
}

/* the slot of the key hashing to h in the memo, which holds its entry or is
   empty */
static int64_t *memo_slot(const Search *s, const uint64_t *key, uint64_t h)
{
    int64_t at = fib(h, s->mask), e;
    size_t size = (size_t)s->width * sizeof *key;
    while ((e = s->slots[at]) &&
           (s->entries[e - 1].hash != h || memcmp(s->memo_keys + (e - 1) * s->width, key, size)))
        at = (at + 1) & s->mask;
    return s->slots + at;
}

/* the memo's entry for key, or NULL */
static const Entry *memo_find(const Search *s, const uint64_t *key)
{
    int64_t e = *memo_slot(s, key, hash_key(key, s->width));
    return e ? s->entries + e - 1 : NULL;
}

/* key's entry into the memo, its arrays doubled when full and its slots at
   half load; sets s->err when out of memory */
static void memo_add(Search *s, const uint64_t *key, double best, int64_t choice)
{
    int64_t w = s->width;
    if (s->len == s->room) {
        Entry *entries = realloc(s->entries, 2 * (size_t)s->room * sizeof *entries);
        if (entries)
            s->entries = entries;
        uint64_t *keys = entries ? realloc(s->memo_keys, 2 * (size_t)(s->room * w) * sizeof *keys)
                                 : NULL;
        if (!keys) {
            s->err = NO_MEMORY;
            return;
        }
        s->memo_keys = keys;
        s->room *= 2;
    }
    if (2 * (s->len + 1) > s->mask + 1) {
        int64_t *slots = calloc(2 * (size_t)(s->mask + 1), sizeof *slots);
        if (!slots) {
            s->err = NO_MEMORY;
            return;
        }
        free(s->slots);
        s->slots = slots;
        s->mask = 2 * s->mask + 1;
        for (int64_t e = 0; e < s->len; e++)
            *memo_slot(s, s->memo_keys + e * w, s->entries[e].hash) = e + 1;
    }
    int64_t e = s->len++;
    s->entries[e] = (Entry){hash_key(key, w), best, choice};
    memcpy(s->memo_keys + e * w, key, (size_t)w * sizeof *key);
    *memo_slot(s, key, s->entries[e].hash) = e + 1;
}

/* from's count lines into to, the one at pos set to residual v, or left out
   where v is at eps or below; the number written */
static int64_t cut(Line *to, const Line *from, int64_t count, int64_t pos, double v, double eps)
{
    int64_t k = 0;
    for (int64_t x = 0; x < count; x++)
        if (x != pos)
            to[k++] = from[x];
        else if (v > eps)
            to[k++] = (Line){from[x].line, v, -v * log2(v)};
    return k;
}

/* The optimal completion of the state at depth d, with nr rows and nc
   columns, both non-empty, at s->lines + d * width and its key at s->keys +
   d * width. Each move sets the child's key at depth d + 1 and looks it up;
   on a miss, the child's lines are written there and it is solved. A depth
   holds at most width - d active lines, as each move retires one. Returns
   0.0 once s->err is set. */
static double solve(Search *s, int64_t d, int64_t nr, int64_t nc)
{
    int64_t w = s->width, choice = -1;
    uint64_t *key = s->keys + d * w, *child = key + w;
    Line *rows = s->lines + d * w, *cols = rows + nr, *next = rows + w;
    double eps = s->eps, best = INFINITY;
    memcpy(child, key, (size_t)w * sizeof *key);
    for (int64_t pi = 0; pi < nr; pi++) {
        Line r = rows[pi];
        for (int64_t pj = 0; pj < nc; pj++) {
            Line c = cols[pj];
            double h;
            /* v = c.v retires the column where c.v < r.v, v = r.v the row
               otherwise; the other line keeps the difference */
            int col_out = c.v < r.v;
            double left = col_out ? r.v - c.v : c.v - r.v, term = col_out ? c.h : r.h;
            if (col_out ? nc == 1 || (left <= eps && nr == 1)
                        : nr == 1 || (left <= eps && nc == 1)) {
                h = term + 0.0; /* the fill is done; + 0.0 turns -0.0 into 0.0 */
            } else {
                child[r.line] = col_out ? word_of(s, left) : 0;
                child[c.line] = col_out ? 0 : word_of(s, left);
                const Entry *hit = memo_find(s, child);
                double sub;
                if (hit) {
                    sub = hit->best;
                } else {
                    int64_t cr = cut(next, rows, nr, pi, col_out ? left : 0.0, eps);
                    int64_t cc = cut(next + cr, cols, nc, pj, col_out ? 0.0 : left, eps);
                    sub = solve(s, d + 1, cr, cc);
                }
                child[r.line] = key[r.line];
                child[c.line] = key[c.line];
                h = term + sub;
            }
            if (s->err)
                return 0.0;
            if (h < best) {
                best = h;
                choice = r.line * s->m + (c.line - s->n);
            }
        }
    }
    memo_add(s, key, best, choice);
    return best;
}

/* whether any of count residuals is above eps */
static int any_above(const double *res, int64_t count, double eps)
{
    for (int64_t x = 0; x < count; x++)
        if (res[x] > eps)
            return 1;
    return 0;
}

static int64_t search(Search *s, double *res, double *mat, double *opt)
{
    int64_t n = s->n, m = s->m, w = s->width, nr = 0, nc = 0;
    double eps = s->eps;
    *opt = 0.0;
    if (!n || !m) /* nothing to search or replay */
        return 0;
    s->by_value = (WordMap){calloc(16, sizeof(WordSlot)), 15, 0};
    s->keys = calloc((size_t)w * (size_t)w, sizeof *s->keys);
    s->lines = calloc((size_t)w * (size_t)w, sizeof *s->lines);
    s->room = 64;
    s->mask = 127;
    s->entries = calloc((size_t)s->room, sizeof *s->entries);
    s->memo_keys = calloc((size_t)(s->room * w), sizeof *s->memo_keys);
    s->slots = calloc((size_t)s->mask + 1, sizeof *s->slots);
    if (!(s->by_value.slots && s->keys && s->lines && s->entries && s->memo_keys && s->slots))
        return NO_MEMORY;
    for (int64_t x = 0; x < w; x++)
        if (res[x] > eps)
            s->lines[x < n ? nr++ : n + nc++] = (Line){x, res[x], -res[x] * log2(res[x])};
    memmove(s->lines + nr, s->lines + n, (size_t)nc * sizeof *s->lines);
    if (nr && nc) {
        for (int64_t x = 0; x < w; x++)
            s->keys[x] = word_of(s, res[x]);
        if (!s->err)
            *opt = solve(s, 0, nr, nc);
        if (s->err)
            return s->err;
    }
    /* replay the stored choices to materialize one optimal fill */
    while (any_above(res, n, eps) && any_above(res + n, m, eps)) {
        for (int64_t x = 0; x < w; x++)
            s->keys[x] = word_of(s, res[x]);
        if (s->err)
            return s->err;
        const Entry *e = memo_find(s, s->keys);
        if (!e || e->choice < 0)
            return UNSOLVED_STATE;
        int64_t i = e->choice / m, j = n + e->choice % m;
        double v = res[j] < res[i] ? res[j] : res[i];
        mat[e->choice] = v;
        res[i] -= v;
        res[j] -= v;
    }
    return 0;
}

static int64_t oracle(double *res, int64_t n, int64_t m, double eps, int digits, double *mat,
                      double *opt)
{
    Search s = {.n = n, .m = m, .width = n + m, .eps = eps, .digits = digits};
    int64_t code = search(&s, res, mat, opt);
    free(s.by_value.slots);
    free(s.keys);
    free(s.lines);
    free(s.entries);
    free(s.memo_keys);
    free(s.slots);
    return code;
}

/* -- the module ----------------------------------------------------------- */

/* The arguments of one call: the arrays taken so far, released together, and
   whether one argument was refused, which skips the ones after it. */
typedef struct {
    const char *fn;
    Py_buffer views[8]; /* fill() takes the most arrays, eight */
    int held, failed;
    Py_ssize_t len; /* the item count of the array last taken */
} Call;

static int arity(const char *fn, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, want, nargs);
    return -1;
}

/* arg as a C-contiguous array of 8-byte items, float64 for kind 'd' and 'D',
   int64 for 'i' and 'I', writable for the capitals: its address, or NULL
   with c->failed and TypeError or ValueError set. An input (lower case)
   holds need items, an output at least need; need < 0 takes any length. */
static void *take(Call *c, PyObject *arg, const char *name, char kind, Py_ssize_t need)
{
    if (c->failed)
        return NULL;
    Py_buffer *view = c->views + c->held;
    int writable = kind == 'D' || kind == 'I', real = kind == 'd' || kind == 'D';
    c->failed = 1;
    if (PyObject_GetBuffer(arg, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT |
                                          (writable ? PyBUF_WRITABLE : 0)) < 0) {
        PyErr_Clear();
    } else {
        c->held++;
        const char *f = view->format ? view->format : "B";
        f += *f == '@' || *f == '=';
        if (view->itemsize == 8 && f[0] && !f[1] && strchr(real ? "d" : "lq", f[0])) {
            c->len = view->len / 8;
            if (need < 0 || c->len == need || (writable && c->len > need)) {
                c->failed = 0;
                return view->buf;
            }
            PyErr_Format(PyExc_ValueError, "%s(): %s has %zd items, %s %zd", c->fn, name,
                         c->len, writable ? "fewer than" : "not", need);
            return NULL;
        }
    }
    PyErr_Format(PyExc_TypeError, "%s(): %s must be a C-contiguous%s %s array", c->fn, name,
                 writable ? " writable" : "", real ? "float64" : "int64");
    return NULL;
}

/* arg as a double; TypeError where it is not a real number */
static double number(Call *c, PyObject *arg, const char *name)
{
    if (c->failed)
        return 0.0;
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) {
        c->failed = 1;
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s(): %s must be a real number", c->fn, name);
        }
    }
    return x;
}

/* arg as an integer in lo..hi; TypeError where it is not an integer,
   ValueError outside */
static int64_t integer(Call *c, PyObject *arg, const char *name, int64_t lo, int64_t hi)
{
    if (c->failed)
        return 0;
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(arg, &overflow);
    c->failed = 1;
    if (x == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s(): %s must be an integer", c->fn, name);
        }
    } else if (overflow || x < lo || x > hi) {
        PyErr_Format(PyExc_ValueError, "%s(): %s = %R lies outside %lld..%lld", c->fn, name,
                     arg, (long long)lo, (long long)hi);
    } else {
        c->failed = 0;
    }
    return c->failed ? 0 : x;
}

/* result, the arrays released */
static PyObject *finish(Call *c, PyObject *result)
{
    while (c->held)
        PyBuffer_Release(c->views + --c->held);
    return result;
}

/* Each entry point takes its stage's arguments in order, less the lengths
   its arrays give (n, and k, count or the oracle's m), refuses them all
   before the stage runs, and runs the stage without the interpreter lock.
   It returns the stage's return, with the stage's scalar out-parameters
   after it in a tuple. */

/* meet(a, b, eps, z) -> m */
static PyObject *py_meet(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Call c = {.fn = "meet"};
    if (arity(c.fn, nargs, 4) < 0)
        return NULL;
    const double *a = take(&c, args[0], "a", 'd', -1);
    int64_t n = c.len, m;
    const double *b = take(&c, args[1], "b", 'd', n);
    double eps = number(&c, args[2], "eps"), *z = take(&c, args[3], "z", 'D', n);
    if (c.failed)
        return finish(&c, NULL);
    Py_BEGIN_ALLOW_THREADS
    m = meet(a, b, n, eps, z);
    Py_END_ALLOW_THREADS
    return finish(&c, PyLong_FromLongLong(m));
}

/* prepare(a, b, eps, z, idx) -> (m, k, swapped) */
static PyObject *py_prepare(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Call c = {.fn = "prepare"};
    if (arity(c.fn, nargs, 5) < 0)
        return NULL;
    const double *a = take(&c, args[0], "a", 'd', -1);
    int64_t n = c.len, m, info[2];
    const double *b = take(&c, args[1], "b", 'd', n);
    double eps = number(&c, args[2], "eps"), *z = take(&c, args[3], "z", 'D', n);
    int64_t *idx = take(&c, args[4], "idx", 'I', n + 2);
    if (c.failed)
        return finish(&c, NULL);
    Py_BEGIN_ALLOW_THREADS
    m = prepare(a, b, n, eps, z, idx, info);
    Py_END_ALLOW_THREADS
    return finish(&c, Py_BuildValue("(LLL)", (long long)m, (long long)info[0],
                                    (long long)info[1]));
}

/* fill(a, b, z, idx, eps, eps_sum, swapped, m, rows, cols, vals, fifo)
   -> (count, bad value, its 0-based component); m lies in 0..n */
static PyObject *py_fill(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Call c = {.fn = "fill"};
    if (arity(c.fn, nargs, 12) < 0)
        return NULL;
    const double *a = take(&c, args[0], "a", 'd', -1);
    int64_t n = c.len, count;
    const double *b = take(&c, args[1], "b", 'd', n), *z = take(&c, args[2], "z", 'd', n);
    const int64_t *idx = take(&c, args[3], "idx", 'i', -1);
    int64_t k = c.len - 1;
    double eps = number(&c, args[4], "eps"), eps_sum = number(&c, args[5], "eps_sum");
    int swapped = (int)integer(&c, args[6], "swapped", 0, 1);
    int64_t m = integer(&c, args[7], "m", 0, n);
    int64_t *rows = take(&c, args[8], "rows", 'I', 2 * m);
    int64_t *cols = take(&c, args[9], "cols", 'I', 2 * m);
    double *vals = take(&c, args[10], "vals", 'D', 2 * m);
    int64_t *fifo = take(&c, args[11], "fifo", 'I', 3 * m);
    double bad[2] = {0.0, 0.0};
    if (c.failed)
        return finish(&c, NULL);
    Py_BEGIN_ALLOW_THREADS
    count = fill(a, b, z, n, idx, k, eps, eps_sum, swapped, m, rows, cols, vals, fifo, bad);
    Py_END_ALLOW_THREADS
    return finish(&c, Py_BuildValue("(LdL)", (long long)count, bad[0], (long long)bad[1]));
}

/* check(rows, cols, vals, a, b, eps) -> (nnz, row deviation, column
   deviation, the index of the piece refused) */
static PyObject *py_check(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Call c = {.fn = "check"};
    if (arity(c.fn, nargs, 6) < 0)
        return NULL;
    const double *vals = take(&c, args[2], "vals", 'd', -1);
    int64_t count = c.len, nnz;
    const int64_t *rows = take(&c, args[0], "rows", 'i', count);
    const int64_t *cols = take(&c, args[1], "cols", 'i', count);
    const double *a = take(&c, args[3], "a", 'd', -1);
    int64_t n = c.len;
    const double *b = take(&c, args[4], "b", 'd', n);
    double eps = number(&c, args[5], "eps"), out[3] = {0.0, 0.0, 0.0};
    if (c.failed)
        return finish(&c, NULL);
    Py_BEGIN_ALLOW_THREADS
    nnz = check(rows, cols, vals, count, a, b, n, eps, out);
    Py_END_ALLOW_THREADS
    return finish(&c, Py_BuildValue("(LddL)", (long long)nnz, out[0], out[1], (long long)out[2]));
}

/* oracle(res, n, eps, digits, mat) -> (code, optimum): the first n of res
   are the rows' marginal, the rest the columns' */
static PyObject *py_oracle(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Call c = {.fn = "oracle"};
    if (arity(c.fn, nargs, 5) < 0)
        return NULL;
    double *res = take(&c, args[0], "res", 'D', -1);
    int64_t n = integer(&c, args[1], "n", 0, c.len), m = c.len - n, code;
    double eps = number(&c, args[2], "eps");
    int digits = (int)integer(&c, args[3], "digits", 0, INT_MAX);
    double *mat = take(&c, args[4], "mat", 'D', n * m), opt = 0.0;
    if (c.failed)
        return finish(&c, NULL);
    Py_BEGIN_ALLOW_THREADS
    code = oracle(res, n, m, eps, digits, mat, &opt);
    Py_END_ALLOW_THREADS
    return finish(&c, Py_BuildValue("(Ld)", (long long)code, opt));
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef entry_points[] = {
    ENTRY(meet, "meet(a, b, eps, z) -> m"),
    ENTRY(prepare, "prepare(a, b, eps, z, idx) -> (m, k, swapped)"),
    ENTRY(fill, "fill(a, b, z, idx, eps, eps_sum, swapped, m, rows, cols, vals, fifo)"
                " -> (count, bad value, bad component)"),
    ENTRY(check, "check(rows, cols, vals, a, b, eps) -> (nnz, row dev, column dev, piece)"),
    ENTRY(oracle, "oracle(res, n, eps, digits, mat) -> (code, optimum)"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "mecouple._fill",
    .m_size = -1,
    .m_methods = entry_points,
};

PyMODINIT_FUNC PyInit__fill(void)
{
    return PyModule_Create(&module);
}
