/**
 * @file
 * The product kernel and its per-ISA variants.
 *
 * One body, written with GCC vector extensions, is instantiated per
 * vector width: 4 doubles (one AVX2 register) for the `avx2` variant,
 * 2 doubles (one SSE2/NEON register) for the baseline. Every helper is
 * always_inline, so each variant's whole kernel is compiled for that
 * variant's instruction set and no out-of-line helper is shared
 * between them.
 *
 * Per output row, the row's nonzero A(i, p) are first gathered in
 * ascending p (Terms); the row is then swept in tiles of eight vector
 * accumulators, kept in eight named locals (an array of vectors gets
 * spilled to the stack), so each tile has eight independent add
 * chains. The last columns (fewer than eight vectors) form one tile of
 * up to seven vectors plus up to lanes - 1 single doubles.
 */
#include "gemm.h"

#include <algorithm>

namespace nazar::nn::gemm {

namespace {

using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));

template <class V>
constexpr size_t kLanes = sizeof(V) / sizeof(double);

#define NAZAR_GEMM_INLINE [[gnu::always_inline]] inline

/** Nonzero A(i, p) of one row, with the B rows they scale. */
struct Terms
{
    static constexpr size_t kBlock = 256; ///< p values per pass.
    const double *brow[kBlock];
    double x[kBlock];
    size_t count = 0;
};

/** Accumulator I < CV: lanes [I * W, I * W + W) of the tile. */
template <size_t I, size_t CV, class V>
NAZAR_GEMM_INLINE void
vstep(V &acc, double x, const double *bp)
{
    if constexpr (I < CV) {
        V b;
        __builtin_memcpy(&b, bp + I * kLanes<V>, sizeof b);
        acc += x * b;
    }
}

/** Scalar accumulator I < S: column CV * W + I of the tile. */
template <size_t I, size_t S>
NAZAR_GEMM_INLINE void
sstep(double &acc, double x, const double *bp)
{
    if constexpr (I < S)
        acc += x * bp[I];
}

template <size_t I, size_t CV, class V>
NAZAR_GEMM_INLINE void
vmove(V &acc, double *c, bool load)
{
    if constexpr (I < CV) {
        if (load)
            __builtin_memcpy(&acc, c + I * kLanes<V>, sizeof acc);
        else
            __builtin_memcpy(c + I * kLanes<V>, &acc, sizeof acc);
    }
}

template <size_t I, size_t S>
NAZAR_GEMM_INLINE void
smove(double &acc, double *c, bool load)
{
    if constexpr (I < S) {
        if (load)
            acc = c[I];
        else
            c[I] = acc;
    }
}

/**
 * One row of C across CV vectors plus S single columns, starting at
 * column j: accumulates every term of @p t into registers. With
 * @p resume the accumulators start from C (a previous pass over the
 * row's earlier terms), otherwise from +0.0.
 */
template <class V, size_t CV, size_t S>
NAZAR_GEMM_INLINE void
tile(const Terms &t, size_t j, double *c, bool resume)
{
    static_assert(CV <= 8 && S < kLanes<V>, "eight vectors, one tail");
    constexpr size_t kS = CV * kLanes<V>;
    V c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    c += j;
    if (resume) {
        vmove<0, CV>(c0, c, true), vmove<1, CV>(c1, c, true);
        vmove<2, CV>(c2, c, true), vmove<3, CV>(c3, c, true);
        vmove<4, CV>(c4, c, true), vmove<5, CV>(c5, c, true);
        vmove<6, CV>(c6, c, true), vmove<7, CV>(c7, c, true);
        smove<0, S>(s0, c + kS, true), smove<1, S>(s1, c + kS, true);
        smove<2, S>(s2, c + kS, true);
    }
    for (size_t q = 0; q < t.count; ++q) {
        const double x = t.x[q];
        const double *bp = t.brow[q] + j;
        vstep<0, CV>(c0, x, bp), vstep<1, CV>(c1, x, bp);
        vstep<2, CV>(c2, x, bp), vstep<3, CV>(c3, x, bp);
        vstep<4, CV>(c4, x, bp), vstep<5, CV>(c5, x, bp);
        vstep<6, CV>(c6, x, bp), vstep<7, CV>(c7, x, bp);
        sstep<0, S>(s0, x, bp + kS), sstep<1, S>(s1, x, bp + kS);
        sstep<2, S>(s2, x, bp + kS);
    }
    vmove<0, CV>(c0, c, false), vmove<1, CV>(c1, c, false);
    vmove<2, CV>(c2, c, false), vmove<3, CV>(c3, c, false);
    vmove<4, CV>(c4, c, false), vmove<5, CV>(c5, c, false);
    vmove<6, CV>(c6, c, false), vmove<7, CV>(c7, c, false);
    smove<0, S>(s0, c + kS, false), smove<1, S>(s1, c + kS, false);
    smove<2, S>(s2, c + kS, false);
}

/** The last `cols` (< 8 vectors) columns of the row, in one tile. */
template <class V, size_t kCols = 8 * kLanes<V> - 1>
NAZAR_GEMM_INLINE void
tail(size_t cols, const Terms &t, size_t j, double *c, bool resume)
{
    if constexpr (kCols > 0) {
        if (cols == kCols)
            tile<V, kCols / kLanes<V>, kCols % kLanes<V>>(t, j, c, resume);
        else
            tail<V, kCols - 1>(cols, t, j, c, resume);
    }
}

template <class V>
NAZAR_GEMM_INLINE void
multiply(const double *a, const double *b, double *c, size_t m, size_t k,
         size_t n)
{
    constexpr size_t kWide = 8 * kLanes<V>;
    Terms t;
    for (size_t i = 0; i < m; ++i) {
        const double *ar = a + i * k;
        double *cr = c + i * n;
        // One pass per block of p (a single pass when k <= kBlock,
        // and one for k == 0 so C is still written).
        size_t p0 = 0;
        do {
            const size_t p_end = std::min(k, p0 + Terms::kBlock);
            t.count = 0;
            for (size_t p = p0; p < p_end; ++p) {
                const double x = ar[p];
                t.brow[t.count] = b + p * n;
                t.x[t.count] = x;
                t.count += x != 0.0; // the zero-term skip
            }
            const bool resume = p0 > 0;
            size_t j = 0;
            for (; j + kWide <= n; j += kWide)
                tile<V, 8, 0>(t, j, cr, resume);
            tail<V>(n - j, t, j, cr, resume);
            p0 += Terms::kBlock;
        } while (p0 < k);
    }
}

#undef NAZAR_GEMM_INLINE

void
multiplyBaseline(const double *a, const double *b, double *c, size_t m,
                 size_t k, size_t n)
{
    multiply<V2>(a, b, c, m, k, n);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void
multiplyAvx2(const double *a, const double *b, double *c, size_t m,
             size_t k, size_t n)
{
    multiply<V4>(a, b, c, m, k, n);
}
#endif

} // namespace

std::vector<cpu_dispatch::Variant<Kernels>>
Kernels::detect()
{
    std::vector<cpu_dispatch::Variant<Kernels>> v;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        v.push_back({"avx2", {&multiplyAvx2}});
#endif
    v.push_back({"baseline", {&multiplyBaseline}});
    return v;
}

} // namespace nazar::nn::gemm
