/* Compiled STOMP sweep kernel.
 *
 * One reseed segment of the self-join sweep: rows [start, stop) of the
 * dot-product recurrence
 *
 *     QT[i, j] = QT[i-1, j-1] - T[i-1]*T[j-1] + T[i+m-1]*T[j+m-1]
 *
 * advanced in place, each row reduced to its best match.  This is a line
 * by line transcription of the numpy row-block kernel in kernels.py; the
 * two must stay bit-for-bit identical, which constrains the code more
 * than it first appears:
 *
 *  - every floating-point expression keeps the numpy operation order
 *    (the recurrence is (qt - a*u) + b*v, parenthesised);
 *  - the build MUST use -ffp-contract=off: a fused multiply-add in the
 *    recurrence or in the Dekker two_product below would change roundings
 *    (two_product is *wrong* under contraction, not just different);
 *  - each row's winner is the *first* maximum of its selection scores,
 *    matching np.argmax: the ascending scans use a strict '>', the scalar
 *    fused row scans descending with '>=', and the vector row (below)
 *    folds 64-column block maxima with '>=' while walking descending,
 *    then rescans the lowest block holding the maximum ascending for the
 *    first score '==' to it.  All three pick the smallest index holding
 *    the maximum (a +0.0 / -0.0 tie included) and never pick a NaN;
 *  - selection scores of constant columns/rows are injected exactly like
 *    the numpy kernel does (0.5*m*sigma_i, 1.0/0.5), never computed.
 *
 * The row routine is chosen once per process (repro_row_path): on x86-64
 * CPUs with AVX2, four columns per instruction through GCC/Clang vector
 * extensions compiled for AVX2 by a per-function target attribute; the
 * scalar fused loop everywhere else (the same vector code built for
 * 128-bit SSE2 was slower than the scalar loop, and other architectures
 * are unmeasured).  No fma in the target: it would change roundings.
 * Building with -DREPRO_SCALAR_ROWS keeps the scalar loop everywhere (the
 * test suite pins both paths against each other).
 *
 * The entry points are loaded via ctypes (see _native.py); they hold no
 * state and release the GIL for the whole segment by construction.
 * Further down, under the same rules: the AB-join and SCRIMP entries, and
 * VALMOD's partial-profile store (a sweep that hands its rows to the
 * base-pass ingest, the ingest itself, the per-length advance and the
 * per-row minimum).
 */

#include <math.h>
#include <string.h>

typedef long long i64;

/* Dekker's two_product / two_sum, matching repro.stats.distance exactly. */
static void two_product(double a, double b, double *p, double *e) {
    const double SPLIT = 134217729.0; /* 2**27 + 1 */
    double prod = a * b;
    double a_big = SPLIT * a;
    double a_hi = a_big - (a_big - a);
    double a_lo = a - a_hi;
    double b_big = SPLIT * b;
    double b_hi = b_big - (b_big - b);
    double b_lo = b - b_hi;
    *p = prod;
    *e = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo;
}

static void two_sum(double a, double b, double *s, double *e) {
    double sum = a + b;
    double v = sum - a;
    *s = sum;
    *e = (a - (sum - v)) + (b - v);
}

/* Scalar transcription of distances_from_dot_products at one element. */
static double winner_distance(double qt_best, double window, double query_mean,
                              double target_mean, double query_std,
                              double target_std, int compensated,
                              double sqrt_window) {
    double centered, correlation, squared;
    if (query_std == 0.0)
        return (target_std == 0.0) ? 0.0 : sqrt_window;
    if (target_std == 0.0)
        return sqrt_window;
    if (compensated) {
        double coeff, coeff_err, product, product_err, base, sum_err;
        two_product(window, query_mean, &coeff, &coeff_err);
        two_product(coeff, target_mean, &product, &product_err);
        two_sum(qt_best, -product, &base, &sum_err);
        centered = base + (sum_err - product_err - coeff_err * target_mean);
    } else {
        centered = qt_best - (window * query_mean) * target_mean;
    }
    correlation = centered / ((window * query_std) * target_std);
    if (correlation < -1.0)
        correlation = -1.0;
    else if (correlation > 1.0)
        correlation = 1.0;
    squared = (2.0 * window) * (1.0 - correlation);
    if (squared < 0.0)
        squared = 0.0;
    return sqrt(squared);
}

/* ------------------------------------------------------------------ */
/* The common-case row: advance + select in one pass                  */
/* ------------------------------------------------------------------ */

/* One row of the common case (a row after its segment's seed, query not
 * constant, no constant column): qt advances in place from row off - 1 to
 * row off over the columns u (the series itself, or series B of a join),
 *
 *     qt[j] = (qt[j-1] - a*u[j-1]) + b*u[j+m-1],   qt[0] = first,
 *
 * and the row's selection scores (qt[j] - row_coef*means[j]) * inv_stds[j]
 * outside the exclusion zone [lo, hi) are reduced to their first maximum:
 * *best and *best_sel are updated only by a score >= *best_sel, exactly
 * like the descending scalar scan, so callers seed them as that scan did. */
typedef struct {
    const double *u, *means, *inv_stds;
    i64 window, count, lo, hi;
    double a, b, row_coef, first;
} row_args;

#define ROW_SCALAR 0
#define ROW_AVX2 1

/* The scalar fused loop: descending, '>=' keeps the smallest index.  The
 * arguments are copied to locals, which the stores into qt cannot alias. */
static void scalar_row(const row_args *r, double *qt, i64 *best_out,
                       double *best_sel_out) {
    const double *u = r->u, *means = r->means, *inv_stds = r->inv_stds;
    const double a = r->a, b = r->b, row_coef = r->row_coef;
    const i64 m1 = r->window - 1, lo = r->lo, hi = r->hi;
    i64 j, best = *best_out;
    double best_sel = *best_sel_out;
    for (j = r->count - 1; j >= 1; j--) {
        double q = (qt[j - 1] - a * u[j - 1]) + b * u[j + m1];
        qt[j] = q;
        if (j < lo || j >= hi) {
            double sel = (q - row_coef * means[j]) * inv_stds[j];
            if (sel >= best_sel) {
                best_sel = sel;
                best = j;
            }
        }
    }
    qt[0] = r->first;
    if (0 < lo || 0 >= hi) {
        double sel = (qt[0] - row_coef * means[0]) * inv_stds[0];
        if (sel >= best_sel) {
            best_sel = sel;
            best = 0;
        }
    }
    *best_out = best;
    *best_sel_out = best_sel;
}

#if !defined(REPRO_SCALAR_ROWS) && defined(__GNUC__) && defined(__x86_64__)
#define HAVE_VECTOR_ROWS 1
#define ROW_TARGET __attribute__((target("avx2")))

typedef double v4d __attribute__((vector_size(32)));
typedef long long v4i __attribute__((vector_size(32)));

/* Columns per block of the maximum fold; a multiple of the 4 lanes. */
#define ROW_BLOCK 64

ROW_TARGET static inline v4d load4(const double *p) {
    v4d v;
    memcpy(&v, p, sizeof v);
    return v;
}

ROW_TARGET static inline void store4(double *p, v4d v) { memcpy(p, &v, sizeof v); }

/* The first j of [from, to) whose recomputed score == target, or -1. */
static i64 first_equal(const row_args *r, const double *qt, i64 from, i64 to,
                       double target) {
    i64 j;
    for (j = from; j < to; j++)
        if ((qt[j] - r->row_coef * r->means[j]) * r->inv_stds[j] == target)
            return j;
    return -1;
}

/* Advance columns [from, to) descending, four at a time: each chunk loads
 * the old qt[s-1 .. s+2] before it stores qt[s .. s+3], and every lower
 * column is still old.  With `score`, also fold the block maxima: a
 * strict '>' per lane (a NaN never enters), and a block replaces the
 * running maximum (*top, block [*top_lo, *top_hi)) when its own is '>='
 * it, so the lowest block holding the maximum is kept. */
ROW_TARGET static void vector_range(const row_args *r, double *qt, i64 from, i64 to,
                                    int score, double *top, i64 *top_lo,
                                    i64 *top_hi) {
    const double *u = r->u, *means = r->means, *inv_stds = r->inv_stds;
    const double a = r->a, b = r->b, row_coef = r->row_coef;
    const i64 m1 = r->window - 1;
    const v4d va = {a, a, a, a}, vb = {b, b, b, b};
    const v4d vc = {row_coef, row_coef, row_coef, row_coef};
    i64 end = to;
    while (end > from) {
        i64 begin = (end - from > ROW_BLOCK) ? end - ROW_BLOCK : from;
        v4d acc = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
        double block_max = -INFINITY;
        i64 s, j, k;
        for (s = end - 4; s >= begin; s -= 4) {
            v4d q = (load4(qt + s - 1) - va * load4(u + s - 1)) + vb * load4(u + s + m1);
            store4(qt + s, q);
            if (score) {
                v4d sel = (q - vc * load4(means + s)) * load4(inv_stds + s);
                v4i wins = (v4i)(sel > acc);
                acc = (v4d)(((v4i)sel & wins) | ((v4i)acc & ~wins));
            }
        }
        for (j = s + 3; j >= begin; j--) {
            double q = (qt[j - 1] - a * u[j - 1]) + b * u[j + m1];
            qt[j] = q;
            if (score) {
                double sel = (q - row_coef * means[j]) * inv_stds[j];
                if (sel > block_max)
                    block_max = sel;
            }
        }
        if (score) {
            for (k = 0; k < 4; k++)
                if (acc[k] > block_max)
                    block_max = acc[k];
            if (block_max >= *top) {
                *top = block_max;
                *top_lo = begin;
                *top_hi = end;
            }
        }
        end = begin;
    }
}

/* scalar_row's contract in three descending ranges -- [hi, count) scored,
 * [lo, hi) advanced only, [1, lo) scored -- then column 0. */
ROW_TARGET static void vector_row(const row_args *r, double *qt, i64 *best,
                                  double *best_sel) {
    i64 count = r->count;
    i64 lo = r->lo < 1 ? 1 : r->lo, hi = r->hi < lo ? lo : r->hi;
    i64 top_lo = 0, top_hi = 0, j;
    double top = -INFINITY;
    if (hi > count)
        hi = count;
    vector_range(r, qt, hi, count, 1, &top, &top_lo, &top_hi);
    vector_range(r, qt, lo, hi, 0, &top, &top_lo, &top_hi);
    vector_range(r, qt, 1, lo, 1, &top, &top_lo, &top_hi);
    if (top > -INFINITY) {
        j = first_equal(r, qt, top_lo, top_hi, top);
    } else {
        /* Every score is -inf or NaN (or there is none): the first -inf,
         * the one the descending '>=' scan would end on. */
        j = first_equal(r, qt, 1, lo, top);
        if (j < 0)
            j = first_equal(r, qt, hi, count, top);
    }
    if (j >= 0 && top >= *best_sel) {
        *best_sel = top;
        *best = j;
    }
    qt[0] = r->first;
    if (0 < r->lo || 0 >= r->hi) {
        double sel = (qt[0] - r->row_coef * r->means[0]) * r->inv_stds[0];
        if (sel >= *best_sel) {
            *best_sel = sel;
            *best = 0;
        }
    }
}
#endif

/* Which row routine this process runs: ROW_AVX2 or ROW_SCALAR, decided
 * on the first call. */
static int row_path(void) {
    static int path = -1;
    if (path < 0) {
#ifdef HAVE_VECTOR_ROWS
        __builtin_cpu_init();
        path = __builtin_cpu_supports("avx2") ? ROW_AVX2 : ROW_SCALAR;
#else
        path = ROW_SCALAR;
#endif
    }
    return path;
}

int repro_row_path(void) { return row_path(); }

static void sweep_row(const row_args *r, double *qt, i64 *best, double *best_sel) {
#ifdef HAVE_VECTOR_ROWS
    if (row_path() == ROW_AVX2) {
        vector_row(r, qt, best, best_sel);
        return;
    }
#endif
    scalar_row(r, qt, best, best_sel);
}

/* Row `off` of a self-join sweep into profile[0] / indices[0]: advanced
 * from row off - 1 when `advance`, then reduced to its first maximum. */
static void stomp_row(const double *values, i64 window, i64 count,
                      const double *means, const double *stds,
                      const double *inv_stds, const double *coef,
                      const double *first_col, double *qt, i64 off, int advance,
                      i64 radius, int compensated, int has_const,
                      double *profile, i64 *indices) {
    double window_d = (double)window;
    i64 j, lo, hi, best = -1;
    double best_sel = -INFINITY;
    double query_std = stds[off];
    lo = off - radius;
    if (lo < 0)
        lo = 0;
    hi = off + radius + 1;
    if (hi > count)
        hi = count;
    if (advance && query_std != 0.0 && !has_const) {
        row_args r = {values, means, inv_stds, window, count, lo, hi,
                      values[off - 1], values[off + window - 1], coef[off],
                      first_col[off]};
        sweep_row(&r, qt, &best, &best_sel);
    } else {
        if (advance) {
            double a = values[off - 1];
            double b = values[off + window - 1];
            for (j = count - 1; j >= 1; j--)
                qt[j] = (qt[j - 1] - a * values[j - 1]) + b * values[j + window - 1];
            qt[0] = first_col[off];
        }
        if (query_std == 0.0) {
            for (j = 0; j < count; j++) {
                double sel;
                if (j >= lo && j < hi)
                    continue;
                sel = (stds[j] == 0.0) ? 1.0 : 0.5;
                if (sel > best_sel) {
                    best_sel = sel;
                    best = j;
                }
            }
        } else {
            double row_coef = coef[off];
            double half_wq = 0.5 * (window_d * query_std);
            for (j = 0; j < count; j++) {
                double sel;
                if (j >= lo && j < hi)
                    continue;
                sel = (stds[j] == 0.0)
                          ? half_wq
                          : (qt[j] - row_coef * means[j]) * inv_stds[j];
                if (sel > best_sel) {
                    best_sel = sel;
                    best = j;
                }
            }
        }
    }
    if (best >= 0 && best_sel != -INFINITY) {
        *profile = winner_distance(qt[best], window_d, means[off], means[best],
                                   query_std, stds[best], compensated,
                                   sqrt(window_d));
        *indices = best;
    }
}

void repro_stomp_segment(const double *values, i64 window, i64 count,
                         const double *means, const double *stds,
                         const double *inv_stds, const double *coef,
                         const double *first_col, double *qt, i64 start,
                         i64 stop, i64 radius, int compensated, int has_const,
                         double *profile, i64 *indices) {
    i64 off;
    for (off = start; off < stop; off++)
        stomp_row(values, window, count, means, stds, inv_stds, coef, first_col, qt,
                  off, off > start, radius, compensated, has_const,
                  profile + (off - start), indices + (off - start));
}

/* One reseed segment of an AB-join sweep: rows [start, stop) of series A
 * advanced against all of series B with the cross-series recurrence
 *
 *     QT[i, j] = QT[i-1, j-1] - A[i-1]*B[j-1] + A[i+m-1]*B[j+m-1]
 *
 * Transcribed from the numpy join kernel in kernels.py under the same
 * bit-for-bit constraints as repro_stomp_segment above.  Both series are
 * pre-shifted by B's global mean on the Python side; there is no
 * exclusion zone (the series are distinct), so every row has a winner. */
void repro_ab_join_segment(const double *values_a, const double *values_b,
                           i64 window, i64 count_b, const double *means_a,
                           const double *stds_a, const double *means_b,
                           const double *stds_b, const double *inv_stds_b,
                           const double *coef_a, const double *first_col,
                           double *qt, i64 start, i64 stop, int compensated,
                           int has_const, double *profile, i64 *indices) {
    double window_d = (double)window;
    double sqrt_window = sqrt(window_d);
    i64 off;
    for (off = start; off < stop; off++) {
        i64 j, best = 0;
        double best_sel = -INFINITY;
        double query_std = stds_a[off];
        if (off > start && query_std != 0.0 && !has_const) {
            /* The common-case row routine, with B as the columns and an
             * empty exclusion zone. */
            row_args r = {values_b, means_b, inv_stds_b, window, count_b, count_b,
                          count_b, values_a[off - 1], values_a[off + window - 1],
                          coef_a[off], first_col[off]};
            sweep_row(&r, qt, &best, &best_sel);
        } else {
            if (off > start) {
                double a = values_a[off - 1];
                double b = values_a[off + window - 1];
                for (j = count_b - 1; j >= 1; j--)
                    qt[j] =
                        (qt[j - 1] - a * values_b[j - 1]) + b * values_b[j + window - 1];
                qt[0] = first_col[off];
            }
            if (query_std == 0.0) {
                for (j = 0; j < count_b; j++) {
                    double sel = (stds_b[j] == 0.0) ? 1.0 : 0.5;
                    if (sel > best_sel) {
                        best_sel = sel;
                        best = j;
                    }
                }
            } else {
                double row_coef = coef_a[off];
                double half_wq = 0.5 * (window_d * query_std);
                for (j = 0; j < count_b; j++) {
                    double sel = (stds_b[j] == 0.0)
                                     ? half_wq
                                     : (qt[j] - row_coef * means_b[j]) * inv_stds_b[j];
                    if (sel > best_sel) {
                        best_sel = sel;
                        best = j;
                    }
                }
            }
        }
        profile[off - start] =
            winner_distance(qt[best], window_d, means_a[off], means_b[best],
                            query_std, stds_b[best], compensated, sqrt_window);
        indices[off - start] = best;
    }
}

/* A sequence of SCRIMP diagonals folded into the profile state in order.
 *
 * Per diagonal d: dot products via one running product sum (the same
 * sequential accumulation as np.cumsum), distances through the shared
 * winner_distance transcription, then a row pass (entry j learns about
 * j + d) followed by a column pass (entry j + d learns about j), both
 * with strict '<' so earlier updates keep ties — the exact application
 * order of the historical Python loop, hence bit-identical state.
 * csum (n + 1 doubles) and dist (count doubles) are caller-provided
 * scratch. */
void repro_scrimp_block(const double *values, i64 n, i64 window, i64 count,
                        const double *means, const double *stds,
                        const i64 *diagonals, i64 num_diagonals, int compensated,
                        double *csum, double *dist, double *distances,
                        i64 *indices) {
    double window_d = (double)window;
    double sqrt_window = sqrt(window_d);
    i64 t, i, j;
    for (t = 0; t < num_diagonals; t++) {
        i64 d = diagonals[t];
        i64 cnt = count - d;
        i64 len = n - d;
        double acc = 0.0;
        if (cnt <= 0)
            continue;
        csum[0] = 0.0;
        for (i = 0; i < len; i++) {
            acc += values[i] * values[i + d];
            csum[i + 1] = acc;
        }
        for (j = 0; j < cnt; j++) {
            double qt = csum[j + window] - csum[j];
            dist[j] = winner_distance(qt, window_d, means[j], means[j + d], stds[j],
                                      stds[j + d], compensated, sqrt_window);
        }
        for (j = 0; j < cnt; j++) {
            if (dist[j] < distances[j]) {
                distances[j] = dist[j];
                indices[j] = j + d;
            }
        }
        for (j = 0; j < cnt; j++) {
            if (dist[j] < distances[j + d]) {
                distances[j + d] = dist[j];
                indices[j + d] = j;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* VALMOD's partial-profile store (repro.core.partial_profile)        */
/* ------------------------------------------------------------------ */

/* Candidate order of the retention rule: a ranks below b when its base
 * correlation is smaller, or equal with a larger offset. */
static int ranks_below(double corr_a, i64 off_a, double corr_b, i64 off_b) {
    return corr_a < corr_b || (corr_a == corr_b && off_a > off_b);
}

/* Min-heap on the retention order: the root is the lowest-ranked entry. */
static void heap_swap(double *corr, i64 *off, i64 a, i64 b) {
    double c = corr[a];
    i64 o = off[a];
    corr[a] = corr[b];
    off[a] = off[b];
    corr[b] = c;
    off[b] = o;
}

static void heap_sift_down(double *corr, i64 *off, i64 size, i64 pos) {
    for (;;) {
        i64 left = 2 * pos + 1, right = left + 1, low = pos;
        if (left < size && ranks_below(corr[left], off[left], corr[low], off[low]))
            low = left;
        if (right < size && ranks_below(corr[right], off[right], corr[low], off[low]))
            low = right;
        if (low == pos)
            return;
        heap_swap(corr, off, pos, low);
        pos = low;
    }
}

static void heap_sift_up(double *corr, i64 *off, i64 pos) {
    while (pos > 0) {
        i64 parent = (pos - 1) / 2;
        if (!ranks_below(corr[pos], off[pos], corr[parent], off[parent]))
            return;
        heap_swap(corr, off, pos, parent);
        pos = parent;
    }
}

/* Scalar transcription of PartialProfileStore.ingest_centered_profile for
 * one row: base correlations through the centered_dot_products arithmetic
 * (Dekker-compensated when the store decided so), constant neighbours
 * pinned at 1.0, clip to [-1, 1], then the retention rule of the module
 * docstring -- the first `capacity` candidates in (correlation
 * descending, offset ascending) order, stored in that order.  The
 * candidates stream through a heap of the best `capacity` so far
 * (heap_corr / heap_off are capacity-sized caller scratch); `ceiling`
 * tracks the largest correlation turned away or pushed out, which never
 * exceeds the heap root's, so a candidate below it changes nothing.  The
 * row's output pointers are already offset to the row. */
static void retain_row(const double *qt, i64 count, i64 off, i64 length,
                       const double *means, const double *stds, i64 radius,
                       int compensated, i64 capacity, double *heap_corr,
                       i64 *heap_off, i64 *neighbors, double *dots,
                       double *corrs, double *ceiling_out,
                       unsigned char *complete, unsigned char *unbounded,
                       unsigned char *populated) {
    double length_d = (double)length;
    double sigma_i = stds[off];
    double mu_i, coeff, coeff_err = 0.0, denom_i;
    double ceiling = -INFINITY, root_corr = -INFINITY;
    i64 lo, hi, j, k, size = 0, root_off = -1;
    i64 candidates, constant_candidates = 0, constant_kept = 0;
    int part;
    *populated = 1;
    if (sigma_i <= 0.0) {
        *unbounded = 1;
        return;
    }
    lo = off - radius;
    if (lo < 0)
        lo = 0;
    hi = off + radius + 1;
    if (hi > count)
        hi = count;
    candidates = count - (hi - lo);
    if (candidates == 0) {
        *complete = 1;
        return;
    }
    mu_i = means[off];
    denom_i = length_d * sigma_i;
    if (compensated)
        two_product(length_d, mu_i, &coeff, &coeff_err);
    else
        coeff = length_d * mu_i;
    /* The candidates: [0, lo) and [hi, count). */
    for (part = 0; part < 2; part++) {
        i64 first = part ? hi : 0, last = part ? count : lo;
        for (j = first; j < last; j++) {
            double corr;
            if (stds[j] <= 0.0) {
                corr = 1.0;
                constant_candidates++;
            } else {
                double centered;
                if (compensated) {
                    double product, product_err, base, sum_err;
                    two_product(coeff, means[j], &product, &product_err);
                    two_sum(qt[j], -product, &base, &sum_err);
                    centered = base + (sum_err - product_err - coeff_err * means[j]);
                } else {
                    centered = qt[j] - coeff * means[j];
                }
                corr = centered / (denom_i * stds[j]);
                if (corr < -1.0)
                    corr = -1.0;
                else if (corr > 1.0)
                    corr = 1.0;
            }
            if (size < capacity) {
                heap_corr[size] = corr;
                heap_off[size] = j;
                heap_sift_up(heap_corr, heap_off, size);
                size++;
            } else if (corr < ceiling) {
                continue;
            } else if (ranks_below(root_corr, root_off, corr, j)) {
                if (root_corr > ceiling)
                    ceiling = root_corr;
                heap_corr[0] = corr;
                heap_off[0] = j;
                heap_sift_down(heap_corr, heap_off, capacity, 0);
            } else {
                if (corr > ceiling)
                    ceiling = corr;
                continue;
            }
            root_corr = heap_corr[0];
            root_off = heap_off[0];
        }
    }
    if (candidates <= capacity) {
        *complete = 1;
    } else {
        *ceiling_out = ceiling;
        for (k = 0; k < size; k++)
            if (stds[heap_off[k]] <= 0.0)
                constant_kept++;
        if (constant_kept < constant_candidates)
            *unbounded = 1;
    }
    /* Heap sort: repeatedly park the lowest-ranked root at the end, which
     * leaves the entries best first. */
    for (k = size - 1; k > 0; k--) {
        heap_swap(heap_corr, heap_off, 0, k);
        heap_sift_down(heap_corr, heap_off, k, 0);
    }
    for (k = 0; k < size; k++) {
        neighbors[k] = heap_off[k];
        dots[k] = qt[heap_off[k]];
        corrs[k] = heap_corr[k];
    }
}

/* repro_stomp_segment that also hands out its rows, for VALMOD's
 * base-pass ingest.
 *
 * Rows [start, stop) are swept row by row exactly as repro_stomp_segment
 * sweeps them (a row after the seed runs the common-case row routine when
 * it applies); each row's dot products are then copied to row
 * (off - start) of `rows`, a (stop - start, count) block the store
 * retains from.  `seed` is the segment's seed row: qt holds row `seed`
 * when start == seed and row start - 1 otherwise, so one segment can be
 * swept in several blocks. */
void repro_stomp_rows_segment(
    const double *values, i64 window, i64 count, const double *means,
    const double *stds, const double *inv_stds, const double *coef,
    const double *first_col, double *qt, i64 start, i64 stop, i64 radius,
    int compensated, int has_const, double *profile, i64 *indices, i64 seed,
    double *rows) {
    i64 off;
    for (off = start; off < stop; off++) {
        stomp_row(values, window, count, means, stds, inv_stds, coef, first_col, qt,
                  off, off > seed, radius, compensated, has_const,
                  profile + (off - start), indices + (off - start));
        memcpy(rows + (off - start) * count, qt, (size_t)count * sizeof(double));
    }
}

/* PartialProfileStore.ingest_centered_profile for a block of consecutive
 * rows: row r of `rows` (num_rows x count) holds the centered dot products
 * of offset first + r, retained by retain_row into row first + r -
 * row_start of the store's (rows, capacity) arrays.  The store passes its
 * own base length, statistics, trivial-match radius and compensation
 * decision; heap_corr / heap_off are `capacity`-sized caller scratch. */
void repro_store_ingest(const double *rows, i64 num_rows, i64 count, i64 first,
                        i64 length, const double *means, const double *stds,
                        i64 radius, int compensated, i64 capacity, i64 row_start,
                        i64 *neighbors, double *dot_products,
                        double *base_correlations, double *ceiling,
                        unsigned char *complete, unsigned char *unbounded,
                        unsigned char *populated, double *heap_corr,
                        i64 *heap_off) {
    i64 r;
    for (r = 0; r < num_rows; r++) {
        i64 off = first + r, row = off - row_start;
        retain_row(rows + r * count, count, off, length, means, stds, radius,
                   compensated, capacity, heap_corr, heap_off,
                   neighbors + row * capacity, dot_products + row * capacity,
                   base_correlations + row * capacity, ceiling + row,
                   complete + row, unbounded + row, populated + row);
    }
}

/* Tail update of PartialProfileStore.advance_to, lengths from -> to.
 *
 * Per step `cur`, the rows whose query still fits (row < n - cur) add
 * values[row + cur] * values[neighbor + cur] to every lane whose neighbour
 * still fits (neighbor >= 0 and cur < n - neighbor) and +0.0 to the other
 * lanes; a step where no lane of those rows fits is skipped outright.
 * That is the numpy update element for element -- including the +0.0,
 * which turns a lane holding -0.0 into +0.0 -- so the loops may run row-major:
 * each lane still sees its steps in order.  cap_scratch holds `rows`
 * i64 of caller scratch. */
void repro_store_advance(const double *values, i64 n, i64 row_start,
                         i64 row_stop, i64 capacity, const i64 *neighbors,
                         double *dot_products, i64 from_length, i64 to_length,
                         i64 *cap_scratch) {
    i64 rows = row_stop - row_start;
    i64 r, k, cur;
    /* cap_scratch[r]: max over rows <= r of the steps some lane accepts. */
    for (r = 0; r < rows; r++) {
        i64 cap = (r > 0) ? cap_scratch[r - 1] : 0;
        for (k = 0; k < capacity; k++) {
            i64 nb = neighbors[r * capacity + k];
            if (nb >= 0 && n - nb > cap)
                cap = n - nb;
        }
        cap_scratch[r] = cap;
    }
    for (r = 0; r < rows; r++) {
        i64 row = row_start + r;
        i64 last = n - row;
        const i64 *nb = neighbors + r * capacity;
        double *dp = dot_products + r * capacity;
        if (last > to_length)
            last = to_length;
        for (cur = from_length; cur < last; cur++) {
            /* rows [0, n - cur - row_start) take part in step cur */
            i64 active_rows = n - cur - row_start;
            double q;
            if (active_rows > rows)
                active_rows = rows;
            if (cur >= cap_scratch[active_rows - 1])
                continue;
            q = values[row + cur];
            for (k = 0; k < capacity; k++) {
                if (nb[k] >= 0 && cur < n - nb[k])
                    dp[k] += q * values[nb[k] + cur];
                else
                    dp[k] += 0.0;
            }
        }
    }
}

/* Per-row minimum of PartialProfileStore.evaluate at `length`: true
 * distances of the retained lanes (the distances_from_dot_products
 * arithmetic with the constant-subsequence conventions; inapplicable
 * lanes are inf) reduced like np.argmin -- first minimum, and a NaN, if
 * any, wins at its first occurrence.  min_indices is -1 where the minimum
 * is not finite. */
void repro_store_minima(const i64 *neighbors, const double *dot_products,
                        i64 num_rows, i64 capacity, i64 length, i64 radius,
                        const double *means, const double *stds, int compensated,
                        double *min_distances, i64 *min_indices) {
    double length_d = (double)length;
    double sqrt_length = sqrt(length_d);
    double two_length = 2.0 * length_d;
    i64 r, k;
    for (r = 0; r < num_rows; r++) {
        const i64 *nb = neighbors + r * capacity;
        const double *qt = dot_products + r * capacity;
        double mu_i = means[r], sigma_i = stds[r];
        double denom_i = length_d * sigma_i;
        double coeff, coeff_err = 0.0, best = 0.0;
        int query_constant = sigma_i <= 0.0;
        i64 best_k = 0;
        if (compensated)
            two_product(length_d, mu_i, &coeff, &coeff_err);
        else
            coeff = length_d * mu_i;
        for (k = 0; k < capacity; k++) {
            i64 j = nb[k];
            double d;
            if (j < 0 || j >= num_rows || (j > r ? j - r : r - j) <= radius) {
                d = INFINITY;
            } else if (query_constant || stds[j] <= 0.0) {
                d = (query_constant && stds[j] <= 0.0) ? 0.0 : sqrt_length;
            } else {
                double centered, corr, squared;
                if (compensated) {
                    double product, product_err, base, sum_err;
                    two_product(coeff, means[j], &product, &product_err);
                    two_sum(qt[k], -product, &base, &sum_err);
                    centered = base + (sum_err - product_err - coeff_err * means[j]);
                } else {
                    centered = qt[k] - coeff * means[j];
                }
                corr = centered / (denom_i * stds[j]);
                if (corr < -1.0)
                    corr = -1.0;
                else if (corr > 1.0)
                    corr = 1.0;
                squared = two_length * (1.0 - corr);
                if (squared < 0.0)
                    squared = 0.0;
                d = sqrt(squared);
            }
            if (k == 0 || d < best) {
                best = d;
                best_k = k;
            }
            if (d != d) {
                best = d;
                best_k = k;
                break;
            }
        }
        min_distances[r] = best;
        min_indices[r] = isfinite(best) ? nb[best_k] : -1;
    }
}
