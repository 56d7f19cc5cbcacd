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
 * VALMOD's partial-profile store: the base pass (the sweep above, plus a
 * retention pass after each row that keeps the row's top p entries in a
 * compact rows x p block the store copies in; see the exactness argument
 * before retain_begin), the per-length advance and the per-row minimum.
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

/* The base-pass retention: PartialProfileStore.ingest_centered_profile
 * for one row, taken straight from the swept qt row.
 *
 * The rule (the store's module docstring): row i keeps the first
 * `capacity` = p of its candidates -- every offset j outside the store's
 * trivial-match zone -- in (correlation descending, offset ascending)
 * order, and records the ceiling, the largest correlation among the rest.
 * A candidate's correlation is the centered_dot_products arithmetic
 * (Dekker-compensated when the store decided so), divided by
 * (L*sigma_i)*sigma_j, clipped to [-1, 1]; a constant neighbour is pinned
 * at 1.0.  Candidates stream through a min-heap of the best p so far
 * (heap_corr / heap_off); `ceiling` tracks the largest correlation turned
 * away or pushed out, which never exceeds the heap root's, so a candidate
 * below it changes nothing.
 *
 * Why a row may skip most candidates and still come out bit for bit:
 *
 *  1. The result depends only on the candidate set.  Correlations are
 *     never NaN (a finite series whose products stay finite), so the rule
 *     orders the candidates totally: the kept entries are the top p, the
 *     ceiling is the largest correlation among the rest, and neither
 *     depends on the visiting order.  Skipping a candidate that can be
 *     neither kept nor the ceiling cannot change a byte either.
 *  2. Let kappa be the row's (p+1)-th largest correlation.  A candidate
 *     below kappa is neither kept (the top p all reach kappa) nor the
 *     ceiling (the (p+1)-th candidate has exactly kappa and is not kept).
 *     Any c such that p+1 *distinct* candidates have correlations >= c
 *     satisfies c <= kappa, so a candidate whose correlation is < c can be
 *     skipped.  One whose correlation == c must still be visited: an
 *     offset tie at the ceiling decides membership.
 *  3. The running ceiling is such a c: whatever set it ranks below the p
 *     heap entries.  To make it high from the start, the row first pushes
 *     its seeds, the previous row's retained neighbours each shifted by 0
 *     and +1 (the diagonal continuation of QT[i-1, j]), dropping
 *     duplicates, zone members and columns past the end.  They go through
 *     this rule's own arithmetic and heap, so afterwards the ceiling is
 *     the floor: the (p+1)-th largest seed correlation, or -inf with fewer
 *     than p+1 seeds.  A seed counted twice would make it the p-th.
 *  4. The prefilter then visits a candidate only when it may reach
 *     thr = the running ceiling.  With den = L*sigma_i (rounded, as the
 *     rule has it), d = fl(thr - 2^-40) and lim = fl(d*den), it skips j
 *     when num < fl(lim*sigma_j), num = fl(qt[j] - fl(coeff*mu_j)).  num
 *     is bit for bit the rule's own numerator (same operands and
 *     operations, uncompensated store), so only the divisor needs a
 *     margin.  Let u = 2^-53 and every product be a normal double.  The
 *     rule's divisor is D = fl(den*sigma_j) = den*sigma_j*(1+e3) and the
 *     bound is R = fl(lim*sigma_j) = d*den*sigma_j*(1+e1)(1+e2), |e| <= u,
 *     so R/D <= d + 4u|d|.  As thr is in (-1, 1], d <= thr - 2^-40 + 2u
 *     and |d| < 2, so num < R and D > 0 give
 *         num/D < thr - 2^-40 + 10u < thr - 2u|thr| - 2^-41,
 *     which lies below pred(thr), the double just under thr (thr -
 *     pred(thr) is at most 2u|thr| for a normal thr and 2^-1074 for any
 *     other).  Rounding is monotone, so fl(num/D) <= pred(thr) < thr, and
 *     clipping keeps it below thr because thr > -1.  A skipped candidate
 *     is below thr, hence below kappa.  A threshold of -1 or less skips
 *     nothing: the clip lifts everything to -1.  Without the margin, a
 *     candidate tied with the ceiling can round below it and be lost
 *     (the "ceiling_ties" case of tests/test_kernels.py).
 *  5. Rows the prefilter cannot serve keep the exact loop over every
 *     candidate, on the swept row itself: stores that are compensated
 *     (the numerator is no longer the plain one) or that hold a constant
 *     window anywhere (a constant neighbour is pinned at 1.0), constant
 *     queries (which retain nothing) and a segment's seed row (no
 *     previous row).
 *
 * The prefilter skips sixteen columns per step where row_path() is "avx2"
 * (the one-column test made the base pass 1.24-1.46x slower there) and
 * tests one at a time elsewhere; which candidates it visits does not
 * matter (point 1), so both give the same bytes.  On a 2048-point ECG at
 * L = 100 with p = 16, a row pushes 23 seeds and 1.2 more candidates on
 * average, where the exact loop pushes all ~1,900 (white noise: 32 and
 * 10). */

/* The store's retention inputs. */
typedef struct {
    const double *means, *stds;
    i64 length, radius, capacity;
    int compensated;
} store_args;

/* The compact block a base pass hands to the store: row r holds one
 * query's retained neighbours, dot products and base correlations
 * (capacity entries each, best first, then -1 / 0.0 / -inf), its ceiling
 * and its complete / unbounded / populated flags. */
typedef struct {
    i64 *neighbors;
    double *dots, *corrs, *ceiling;
    unsigned char *complete, *unbounded, *populated;
} retained_block;

/* One row's retention in progress. */
typedef struct {
    const double *qt;
    double *heap_corr;
    i64 *heap_off;
    i64 lo, hi, candidates, size, root_off, constant_candidates;
    double coeff, coeff_err, denom_i, ceiling, root_corr;
} retention;

/* Clear row r of the block and set up the row's retention; 0 when the row
 * is already settled (a constant query, or no candidate at all). */
static int retain_begin(const store_args *s, retention *t, const double *qt, i64 count,
                        i64 off, const retained_block *b, i64 r, double *heap_corr,
                        i64 *heap_off) {
    double length_d = (double)s->length;
    double sigma_i = s->stds[off];
    i64 k, p = s->capacity;
    for (k = 0; k < p; k++) {
        b->neighbors[r * p + k] = -1;
        b->dots[r * p + k] = 0.0;
        b->corrs[r * p + k] = -INFINITY;
    }
    b->ceiling[r] = -INFINITY;
    b->complete[r] = 0;
    b->unbounded[r] = 0;
    b->populated[r] = 1;
    if (sigma_i <= 0.0) {
        b->unbounded[r] = 1;
        return 0;
    }
    t->lo = off - s->radius;
    if (t->lo < 0)
        t->lo = 0;
    t->hi = off + s->radius + 1;
    if (t->hi > count)
        t->hi = count;
    t->candidates = count - (t->hi - t->lo);
    if (t->candidates == 0) {
        b->complete[r] = 1;
        return 0;
    }
    t->qt = qt;
    t->heap_corr = heap_corr;
    t->heap_off = heap_off;
    t->size = t->constant_candidates = 0;
    t->root_off = -1;
    t->ceiling = t->root_corr = -INFINITY;
    t->denom_i = length_d * sigma_i;
    t->coeff_err = 0.0;
    if (s->compensated)
        two_product(length_d, s->means[off], &t->coeff, &t->coeff_err);
    else
        t->coeff = length_d * s->means[off];
    return 1;
}

/* The base correlation of candidate j. */
static double exact_corr(const store_args *s, const retention *t, i64 j) {
    double centered, corr;
    if (s->stds[j] <= 0.0)
        return 1.0;
    if (s->compensated) {
        double product, product_err, base, sum_err;
        two_product(t->coeff, s->means[j], &product, &product_err);
        two_sum(t->qt[j], -product, &base, &sum_err);
        centered = base + (sum_err - product_err - t->coeff_err * s->means[j]);
    } else {
        centered = t->qt[j] - t->coeff * s->means[j];
    }
    corr = centered / (t->denom_i * s->stds[j]);
    if (corr < -1.0)
        corr = -1.0;
    else if (corr > 1.0)
        corr = 1.0;
    return corr;
}

/* Stream candidate j through the heap. */
static void retain_push(const store_args *s, retention *t, i64 j) {
    double corr = exact_corr(s, t, j);
    if (s->stds[j] <= 0.0)
        t->constant_candidates++;
    if (t->size < s->capacity) {
        t->heap_corr[t->size] = corr;
        t->heap_off[t->size] = j;
        heap_sift_up(t->heap_corr, t->heap_off, t->size);
        t->size++;
    } else if (corr < t->ceiling) {
        return;
    } else if (ranks_below(t->root_corr, t->root_off, corr, j)) {
        if (t->root_corr > t->ceiling)
            t->ceiling = t->root_corr;
        t->heap_corr[0] = corr;
        t->heap_off[0] = j;
        heap_sift_down(t->heap_corr, t->heap_off, s->capacity, 0);
    } else {
        if (corr > t->ceiling)
            t->ceiling = corr;
        return;
    }
    t->root_corr = t->heap_corr[0];
    t->root_off = t->heap_off[0];
}

/* The flags, the ceiling and the kept entries, best first, into row r. */
static void retain_finish(const store_args *s, retention *t, const retained_block *b,
                          i64 r) {
    i64 k, p = s->capacity, constant_kept = 0;
    if (t->candidates <= p) {
        b->complete[r] = 1;
    } else {
        b->ceiling[r] = t->ceiling;
        for (k = 0; k < t->size; k++)
            if (s->stds[t->heap_off[k]] <= 0.0)
                constant_kept++;
        if (constant_kept < t->constant_candidates)
            b->unbounded[r] = 1;
    }
    /* Heap sort: repeatedly park the lowest-ranked root at the end, which
     * leaves the entries best first. */
    for (k = t->size - 1; k > 0; k--) {
        heap_swap(t->heap_corr, t->heap_off, 0, k);
        heap_sift_down(t->heap_corr, t->heap_off, k, 0);
    }
    for (k = 0; k < t->size; k++) {
        b->neighbors[r * p + k] = t->heap_off[k];
        b->dots[r * p + k] = t->qt[t->heap_off[k]];
        b->corrs[r * p + k] = t->heap_corr[k];
    }
}

/* Push the distinct candidates seeds[k] + {0, 1} (point 3), flagging each
 * in marks so the scan does not push it again. */
static void push_seeds(const store_args *s, retention *t, i64 count, const i64 *seeds,
                       unsigned char *marks) {
    i64 k, shift;
    for (k = 0; k < s->capacity; k++) {
        if (seeds[k] < 0)
            continue;
        for (shift = 0; shift < 2; shift++) {
            i64 j = seeds[k] + shift;
            if (j >= count || (j >= t->lo && j < t->hi) || marks[j])
                continue;
            marks[j] = 1;
            retain_push(s, t, j);
        }
    }
}

/* Clear the flags push_seeds set. */
static void clear_seeds(const store_args *s, i64 count, const i64 *seeds,
                        unsigned char *marks) {
    i64 k;
    for (k = 0; k < s->capacity; k++) {
        if (seeds[k] < 0)
            continue;
        marks[seeds[k]] = 0;
        if (seeds[k] + 1 < count)
            marks[seeds[k] + 1] = 0;
    }
}

/* The prefilter's bound for threshold thr (point 4); -inf skips nothing. */
#define PREFILTER_MARGIN 0x1p-40

static double prefilter_limit(const retention *t, double thr) {
    return thr > -1.0 ? (thr - PREFILTER_MARGIN) * t->denom_i : -INFINITY;
}

#ifdef HAVE_VECTOR_ROWS
/* Columns per step of vector_skip: four groups of four lanes. */
#define SKIP_STEP 16

/* All-ones lanes for the columns k .. k+3 the bound skips. */
ROW_TARGET static inline v4i below4(const double *qt, const double *means,
                                    const double *stds, v4d vcoeff, v4d vlimit, i64 k) {
    v4d num = load4(qt + k) - vcoeff * load4(means + k);
    return (v4i)(num < vlimit * load4(stds + k));
}

/* The first j of from, from + SKIP_STEP, ... whose SKIP_STEP columns are
 * not all skipped, or the first j with fewer than SKIP_STEP columns left.
 * It only reads and returns: a call from here into code built without
 * AVX would pay a transition penalty per pushed candidate. */
ROW_TARGET static i64 vector_skip(const double *qt, const double *means,
                                  const double *stds, double coeff, double limit,
                                  i64 from, i64 to) {
    const v4d vcoeff = {coeff, coeff, coeff, coeff};
    const v4d vlimit = {limit, limit, limit, limit};
    i64 j;
    for (j = from; j + SKIP_STEP <= to; j += SKIP_STEP) {
        v4i below = below4(qt, means, stds, vcoeff, vlimit, j) &
                    below4(qt, means, stds, vcoeff, vlimit, j + 4) &
                    below4(qt, means, stds, vcoeff, vlimit, j + 8) &
                    below4(qt, means, stds, vcoeff, vlimit, j + 12);
        if (!(below[0] & below[1] & below[2] & below[3]))
            break;
    }
    return j;
}
#endif

/* Push the candidates of [from, to) not in marks that may reach the
 * running ceiling (point 4), raising the bound with it.  Where row_path()
 * is "avx2", vector_skip passes over SKIP_STEP columns at a time. */
static void prefilter_scan(const store_args *s, retention *t, i64 from, i64 to,
                           const unsigned char *marks) {
    const double *qt = t->qt, *means = s->means, *stds = s->stds;
    double thr = t->ceiling, limit = prefilter_limit(t, thr);
    i64 j = from, stop = to;
    while (j < to) {
#ifdef HAVE_VECTOR_ROWS
        if (row_path() == ROW_AVX2) {
            j = vector_skip(qt, means, stds, t->coeff, limit, j, to);
            stop = j + SKIP_STEP < to ? j + SKIP_STEP : to;
        }
#endif
        for (; j < stop; j++) {
            if (qt[j] - t->coeff * means[j] < limit * stds[j] || marks[j])
                continue;
            retain_push(s, t, j);
            if (t->ceiling > thr) {
                thr = t->ceiling;
                limit = prefilter_limit(t, thr);
            }
        }
    }
}

/* Retain row `off` from the swept qt into row r of the block: the seeds
 * (the previous row's retained neighbours) and then the prefilter, or,
 * with seeds NULL, the exact loop over every candidate.  marks holds
 * count zero bytes, heap_corr / heap_off capacity entries each. */
static void retain_row(const store_args *s, const double *qt, i64 count, i64 off,
                       const i64 *seeds, unsigned char *marks, double *heap_corr,
                       i64 *heap_off, const retained_block *b, i64 r) {
    retention t;
    i64 j;
    if (!retain_begin(s, &t, qt, count, off, b, r, heap_corr, heap_off))
        return;
    if (seeds == NULL) {
        for (j = 0; j < t.lo; j++)
            retain_push(s, &t, j);
        for (j = t.hi; j < count; j++)
            retain_push(s, &t, j);
    } else {
        push_seeds(s, &t, count, seeds, marks);
        prefilter_scan(s, &t, 0, t.lo, marks);
        prefilter_scan(s, &t, t.hi, count, marks);
        clear_seeds(s, count, seeds, marks);
    }
    retain_finish(s, &t, b, r);
}

/* VALMOD's base pass: repro_stomp_segment that also retains every row.
 *
 * Rows [start, stop) are swept exactly as repro_stomp_segment sweeps them
 * (the row routines are untouched); after each row, retain_row keeps its
 * top `capacity` into row off - start of the block, under the store's own
 * base length, statistics, zone and compensation decision.  `seed` is the
 * segment's seed row: qt holds row `seed` when start == seed and row
 * start - 1 otherwise, so one segment can be swept in several chunks.
 * prev (capacity entries) holds the retained neighbours of row start - 1
 * on entry when start > seed, and those of row stop - 1 on return; marks
 * (count bytes, all zero) and heap_corr / heap_off (capacity entries
 * each) are scratch. */
void repro_stomp_retain_segment(
    const double *values, i64 window, i64 count, const double *means,
    const double *stds, const double *inv_stds, const double *coef,
    const double *first_col, double *qt, i64 start, i64 stop, i64 radius,
    int compensated, int has_const, double *profile, i64 *indices, i64 seed,
    i64 length, const double *base_means, const double *base_stds, i64 base_radius,
    int base_compensated, i64 capacity, i64 *neighbors, double *dots, double *corrs,
    double *ceiling, unsigned char *complete, unsigned char *unbounded,
    unsigned char *populated, i64 *prev, unsigned char *marks, double *heap_corr,
    i64 *heap_off) {
    store_args s = {base_means, base_stds, length, base_radius, capacity,
                    base_compensated};
    retained_block b = {neighbors, dots, corrs, ceiling, complete, unbounded, populated};
    int exact = base_compensated;
    i64 off, j;
    for (j = 0; j < count && !exact; j++)
        exact = base_stds[j] <= 0.0;
    for (off = start; off < stop; off++) {
        i64 r = off - start;
        const i64 *seeds = r > 0 ? neighbors + (r - 1) * capacity : prev;
        stomp_row(values, window, count, means, stds, inv_stds, coef, first_col, qt, off,
                  off > seed, radius, compensated, has_const, profile + r, indices + r);
        retain_row(&s, qt, count, off, exact || off == seed ? NULL : seeds, marks,
                   heap_corr, heap_off, &b, r);
    }
    if (stop > start)
        memcpy(prev, neighbors + (stop - start - 1) * capacity,
               (size_t)capacity * sizeof(i64));
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
