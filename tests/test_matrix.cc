/**
 * @file
 * Tests for the dense matrix type.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "matrix_oracle.h"
#include "nn/gemm.h"
#include "nn/matrix.h"
#include "runtime/thread_pool.h"

namespace nazar::nn {
namespace {

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.sum(), 0.0);
    m.fill(1.5);
    EXPECT_NEAR(m.sum(), 9.0, 1e-12);
    m.setZero();
    EXPECT_EQ(m.sum(), 0.0);
}

TEST(Matrix, FromRowsAndAccess)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(1, 1), 4.0);
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {3}}), NazarError);
}

TEST(Matrix, RowVector)
{
    Matrix r = Matrix::rowVector({5, 6, 7});
    EXPECT_EQ(r.rows(), 1u);
    EXPECT_EQ(r.cols(), 3u);
    EXPECT_EQ(r(0, 2), 7.0);
    EXPECT_EQ(r.rowVec(0), (std::vector<double>{5, 6, 7}));
}

TEST(Matrix, SetRow)
{
    Matrix m(2, 2);
    m.setRow(1, {8, 9});
    EXPECT_EQ(m(1, 0), 8.0);
    EXPECT_THROW(m.setRow(2, {1, 2}), NazarError);
    EXPECT_THROW(m.setRow(0, {1}), NazarError);
}

TEST(Matrix, Arithmetic)
{
    Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix b = Matrix::fromRows({{10, 20}, {30, 40}});
    Matrix c = a + b;
    EXPECT_EQ(c(1, 1), 44.0);
    c -= a;
    EXPECT_TRUE(c.approxEquals(b));
    Matrix d = a * 2.0;
    EXPECT_EQ(d(0, 1), 4.0);
    Matrix h = a.cwiseProduct(b);
    EXPECT_EQ(h(1, 0), 90.0);
    EXPECT_THROW(a + Matrix(1, 2), NazarError);
}

TEST(Matrix, Matmul)
{
    Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    Matrix c = a.matmul(b);
    EXPECT_TRUE(c.approxEquals(Matrix::fromRows({{19, 22}, {43, 50}})));
    EXPECT_THROW(a.matmul(Matrix(3, 2)), NazarError);
}

/** Same shape and the same bytes: +0.0 and -0.0 differ, NaNs compare
 *  by payload. */
bool
bitEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** N(0, 1) entries with about a third replaced by 0.0 or -0.0, as
 *  after a ReLU or a masked gradient. */
Matrix
withZeros(size_t rows, size_t cols, Rng &rng)
{
    Matrix m = Matrix::randomNormal(rows, cols, 1.0, rng);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c) {
            const double u = rng.uniform(0.0, 1.0);
            if (u < 0.2)
                m(r, c) = 0.0;
            else if (u < 0.35)
                m(r, c) = -0.0;
        }
    return m;
}

TEST(MatrixExact, DispatchPicksAHostVariant)
{
    const auto &variants = gemm::hostVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.back().isa, "baseline");
    EXPECT_EQ(gemm::active().kernel, variants.front().kernel);
    {
        gemm::ScopedVariant pin(variants.back());
        EXPECT_EQ(gemm::active().kernel, variants.back().kernel);
    }
    EXPECT_EQ(gemm::active().kernel, variants.front().kernel);
}

TEST(MatrixExact, ProductsMatchPlainLoopsBitForBit)
{
    // Every variant the host runs, at 1 and 4 pool threads, over shapes
    // that hit every tile and tail width and a second pass over k
    // (> 256), plus three above the pool cutoff (1M multiply-adds), so
    // the products also run in row chunks on the pool.
    struct Shape
    {
        size_t m, k, n;
    };
    std::vector<Shape> shapes = {{129, 96, 96}, {257, 96, 96}, {40, 300, 96}};
    for (size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33})
        for (size_t k : {1, 31, 32, 96, 300})
            for (size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 96})
                shapes.push_back({m, k, n});
    for (size_t threads : {1, 4}) {
        runtime::setThreads(threads);
        for (const gemm::Variant &variant : gemm::hostVariants()) {
            gemm::ScopedVariant pin(variant);
            Rng rng(97);
            for (const auto [m, k, n] : shapes) {
                SCOPED_TRACE(testing::Message()
                             << variant.isa << " threads " << threads
                             << " m " << m << " k " << k << " n " << n);
                const Matrix a = withZeros(m, k, rng);
                const Matrix b = Matrix::randomNormal(k, n, 1.0, rng);
                ASSERT_TRUE(bitEqual(a.matmul(b), oracle::matmul(a, b)));
                const Matrix at = withZeros(k, m, rng);
                ASSERT_TRUE(bitEqual(at.transposeMatmul(b),
                                     oracle::transposeMatmul(at, b)));
                const Matrix bt = Matrix::randomNormal(n, k, 1.0, rng);
                ASSERT_TRUE(bitEqual(a.matmulTranspose(bt),
                                     oracle::matmulTranspose(a, bt)));
            }
        }
    }
    runtime::setThreads(0);
}

TEST(MatrixExact, ZeroTermsAreSkippedNotMultiplied)
{
    // 0 * inf would be NaN: a skipped term keeps the output finite, in
    // all three products and every variant.
    const double inf = std::numeric_limits<double>::infinity();
    const Matrix a = Matrix::fromRows({{0.0, 2.0}, {-0.0, 1.0}});
    const Matrix b = Matrix::fromRows({{inf, -inf, inf, 1, 2, 3, 4, 5, 6},
                                       {1, 2, 3, 4, 5, 6, 7, 8, 9}});
    const Matrix expected = oracle::matmul(a, b);
    for (const gemm::Variant &variant : gemm::hostVariants()) {
        gemm::ScopedVariant pin(variant);
        EXPECT_TRUE(bitEqual(a.matmul(b), expected)) << variant.isa;
        EXPECT_TRUE(bitEqual(a.transposed().transposeMatmul(b), expected))
            << variant.isa;
        EXPECT_TRUE(bitEqual(a.matmulTranspose(b.transposed()), expected))
            << variant.isa;
        const Matrix out = a.matmul(b);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_TRUE(std::isfinite(out.data()[i])) << variant.isa;
    }
}

TEST(Matrix, TransposedTwiceIsIdentity)
{
    Rng rng(3);
    Matrix a = Matrix::randomNormal(5, 7, 1.0, rng);
    EXPECT_TRUE(a.transposed().transposed().approxEquals(a));
}

TEST(Matrix, RowBroadcasts)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    m.addRowBroadcast(Matrix::rowVector({10, 20}));
    EXPECT_TRUE(m.approxEquals(Matrix::fromRows({{11, 22}, {13, 24}})));
    m.mulRowBroadcast(Matrix::rowVector({2, 0.5}));
    EXPECT_TRUE(m.approxEquals(Matrix::fromRows({{22, 11}, {26, 12}})));
    EXPECT_THROW(m.addRowBroadcast(Matrix(2, 2)), NazarError);
}

TEST(Matrix, ColumnAggregates)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    EXPECT_TRUE(m.colSum().approxEquals(Matrix::rowVector({4, 6})));
    EXPECT_TRUE(m.colMean().approxEquals(Matrix::rowVector({2, 3})));
}

TEST(Matrix, NormAndMaxAbs)
{
    Matrix m = Matrix::fromRows({{3, -4}});
    EXPECT_NEAR(m.norm(), 5.0, 1e-12);
    EXPECT_EQ(m.maxAbs(), 4.0);
    EXPECT_EQ(Matrix().maxAbs(), 0.0);
}

TEST(Matrix, ArgmaxRow)
{
    Matrix m = Matrix::fromRows({{1, 9, 3}, {7, 2, 5}});
    EXPECT_EQ(m.argmaxRow(0), 1u);
    EXPECT_EQ(m.argmaxRow(1), 0u);
    EXPECT_THROW(m.argmaxRow(2), NazarError);
}

TEST(Matrix, SelectRows)
{
    Matrix m = Matrix::fromRows({{1, 1}, {2, 2}, {3, 3}});
    Matrix s = m.selectRows({2, 0});
    EXPECT_TRUE(s.approxEquals(Matrix::fromRows({{3, 3}, {1, 1}})));
    EXPECT_THROW(m.selectRows({5}), NazarError);
}

TEST(Matrix, UnaryOp)
{
    Matrix m = Matrix::fromRows({{-1, 2}});
    Matrix a = m.unaryOp([](double v) { return v * v; });
    EXPECT_TRUE(a.approxEquals(Matrix::fromRows({{1, 4}})));
}

TEST(Matrix, RandomNormalMoments)
{
    Rng rng(7);
    Matrix m = Matrix::randomNormal(100, 100, 2.0, rng);
    double mean = m.sum() / m.size();
    EXPECT_NEAR(mean, 0.0, 0.05);
    double sq = 0.0;
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            sq += m(r, c) * m(r, c);
    EXPECT_NEAR(sq / m.size(), 4.0, 0.2);
}

TEST(Matrix, CholeskyFactorOfKnownMatrix)
{
    // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
    Matrix a = Matrix::fromRows({{4, 2}, {2, 3}});
    Matrix l = a.choleskyFactor();
    EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(l(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
    // L L^T reconstructs A.
    EXPECT_TRUE(l.matmulTranspose(l).approxEquals(a, 1e-12));
}

TEST(Matrix, CholeskyRejectsNonSpd)
{
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {2, 1}}).choleskyFactor(),
                 NazarError); // indefinite
    EXPECT_THROW(Matrix(2, 3).choleskyFactor(), NazarError);
}

TEST(Matrix, CholeskySolveRecoversSolution)
{
    Rng rng(21);
    // Build SPD A = B B^T + I and a known x; solve A y = A x.
    Matrix b = Matrix::randomNormal(5, 5, 1.0, rng);
    Matrix a = b.matmulTranspose(b);
    for (size_t i = 0; i < 5; ++i)
        a(i, i) += 1.0;
    std::vector<double> x = {1.0, -2.0, 0.5, 3.0, -0.25};
    // rhs = A x.
    std::vector<double> rhs(5, 0.0);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = 0; j < 5; ++j)
            rhs[i] += a(i, j) * x[j];
    Matrix l = a.choleskyFactor();
    std::vector<double> solved = l.choleskySolve(rhs);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_NEAR(solved[i], x[i], 1e-9);
    EXPECT_THROW(l.choleskySolve({1.0}), NazarError);
}

TEST(Matrix, ApproxEqualsRespectsEps)
{
    Matrix a = Matrix::fromRows({{1.0}});
    Matrix b = Matrix::fromRows({{1.0 + 1e-6}});
    EXPECT_FALSE(a.approxEquals(b, 1e-9));
    EXPECT_TRUE(a.approxEquals(b, 1e-5));
    EXPECT_FALSE(a.approxEquals(Matrix(1, 2)));
}

} // namespace
} // namespace nazar::nn
