/**
 * @file
 * Implementation of the dense matrix type.
 */
#include "matrix.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>

#include "common/error.h"
#include "nn/gemm.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace nazar::nn {

namespace {

/**
 * Minimum multiply-accumulate count before a product engages the
 * thread pool, and the least work per pool chunk. Measured with
 * bench_runtime_scaling's kernel_shapes (4-core AVX2 host): at 2
 * threads the pool loses or breaks even up to 64 x 96 x 96 (590k
 * MACs, 0.6-1.5x of inline), and wins from 256 x 96 x 96 (2.4M MACs,
 * 1.3-2.0x). So every nn-layer product (batch <= 64, width 96) runs
 * inline. The cutoff only selects between running the same kernel on
 * the rows inline or on the pool, so results are bit-identical either
 * way.
 */
constexpr size_t kParallelFlopCutoff = size_t{1} << 20;

/** Rows per chunk so each chunk carries at least the cutoff's work. */
size_t
rowGrain(size_t flops_per_row)
{
    return std::max<size_t>(1, kParallelFlopCutoff /
                                   std::max<size_t>(1, flops_per_row));
}

/**
 * dst (m.cols() x m.rows()) = m^T, written row by row: a transpose is
 * bound by its stores, and strided loads from a cached source are the
 * cheaper side to scatter.
 */
void
transposeInto(const Matrix &m, double *dst)
{
    for (size_t c = 0; c < m.cols(); ++c)
        for (size_t r = 0; r < m.rows(); ++r)
            *dst++ = m(r, c);
}

/** m^T in an uninitialized buffer: operand staging for the products. */
std::unique_ptr<double[]>
transposedData(const Matrix &m)
{
    auto t = std::make_unique_for_overwrite<double[]>(m.size());
    transposeInto(m, t.get());
    return t;
}

/**
 * out (m x n) = A (m x k) * B (k x n), all dense row-major, through
 * the active gemm kernel, row-partitioned on the pool above the
 * cutoff. The kernel computes each output row on its own with the
 * same k-ascending accumulation, so the result is bit-identical at
 * every thread count and chunking.
 */
void
product(const double *a, size_t k, const double *b, Matrix &out)
{
    const gemm::Kernel kernel = gemm::active().kernel;
    const size_t m = out.rows(), n = out.cols();
    if (m * k * n < kParallelFlopCutoff) {
        kernel(a, b, out.data(), m, k, n);
        return;
    }
    runtime::parallelFor(0, m, rowGrain(k * n),
                         [&](size_t row_begin, size_t row_end) {
                             kernel(a + row_begin * k, b,
                                    out.row(row_begin),
                                    row_end - row_begin, k, n);
                         });
}

} // namespace

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    NAZAR_CHECK(!rows.empty(), "fromRows needs at least one row");
    Matrix m(rows.size(), rows[0].size());
    for (size_t r = 0; r < rows.size(); ++r) {
        NAZAR_CHECK(rows[r].size() == m.cols_, "ragged rows");
        for (size_t c = 0; c < m.cols_; ++c)
            m(r, c) = rows[r][c];
    }
    return m;
}

Matrix
Matrix::rowVector(const std::vector<double> &v)
{
    Matrix m(1, v.size());
    for (size_t c = 0; c < v.size(); ++c)
        m(0, c) = v[c];
    return m;
}

Matrix
Matrix::randomNormal(size_t rows, size_t cols, double stddev, Rng &rng)
{
    Matrix m(rows, cols);
    for (auto &x : m.data_)
        x = rng.normal(0.0, stddev);
    return m;
}

std::vector<double>
Matrix::rowVec(size_t r) const
{
    NAZAR_CHECK(r < rows_, "row index out of range");
    return std::vector<double>(row(r), row(r) + cols_);
}

void
Matrix::setRow(size_t r, const std::vector<double> &v)
{
    NAZAR_CHECK(r < rows_, "row index out of range");
    NAZAR_CHECK(v.size() == cols_, "row length mismatch");
    std::copy(v.begin(), v.end(), row(r));
}

void
Matrix::fill(double v)
{
    std::fill(data_.begin(), data_.end(), v);
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    NAZAR_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
                "shape mismatch in +=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    NAZAR_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
                "shape mismatch in -=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (auto &x : data_)
        x *= s;
    return *this;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    Matrix m = *this;
    m += other;
    return m;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    Matrix m = *this;
    m -= other;
    return m;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix m = *this;
    m *= s;
    return m;
}

Matrix
Matrix::cwiseProduct(const Matrix &other) const
{
    NAZAR_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
                "shape mismatch in cwiseProduct");
    Matrix m = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        m.data_[i] *= other.data_[i];
    return m;
}

Matrix
Matrix::unaryOp(const std::function<double(double)> &f) const
{
    Matrix m = *this;
    for (auto &x : m.data_)
        x = f(x);
    return m;
}

Matrix
Matrix::matmul(const Matrix &other) const
{
    NAZAR_CHECK(cols_ == other.rows_, "inner dimension mismatch in matmul");
    NAZAR_SPAN("nn.matmul");
    static obs::Counter &rows_processed =
        obs::Registry::global().counter("nn.matmul.rows");
    rows_processed.add(rows_);
    Matrix out(rows_, other.cols_);
    product(data(), cols_, other.data(), out);
    return out;
}

Matrix
Matrix::transposeMatmul(const Matrix &other) const
{
    // (this^T * other): this is (n x a), other is (n x b), result (a x b).
    NAZAR_CHECK(rows_ == other.rows_,
                "row-count mismatch in transposeMatmul");
    NAZAR_SPAN("nn.transpose_matmul");
    Matrix out(cols_, other.cols_);
    product(transposedData(*this).get(), rows_, other.data(), out);
    return out;
}

Matrix
Matrix::matmulTranspose(const Matrix &other) const
{
    // (this * other^T): this is (n x k), other is (m x k), result (n x m).
    NAZAR_CHECK(cols_ == other.cols_,
                "column-count mismatch in matmulTranspose");
    NAZAR_SPAN("nn.matmul_transpose");
    Matrix out(rows_, other.rows_);
    product(data(), cols_, transposedData(other).get(), out);
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    transposeInto(*this, out.data());
    return out;
}

void
Matrix::addRowBroadcast(const Matrix &row_vec)
{
    NAZAR_CHECK(row_vec.rows() == 1 && row_vec.cols() == cols_,
                "broadcast row must be 1 x cols");
    for (size_t r = 0; r < rows_; ++r) {
        double *a = row(r);
        const double *b = row_vec.row(0);
        for (size_t c = 0; c < cols_; ++c)
            a[c] += b[c];
    }
}

void
Matrix::mulRowBroadcast(const Matrix &row_vec)
{
    NAZAR_CHECK(row_vec.rows() == 1 && row_vec.cols() == cols_,
                "broadcast row must be 1 x cols");
    for (size_t r = 0; r < rows_; ++r) {
        double *a = row(r);
        const double *b = row_vec.row(0);
        for (size_t c = 0; c < cols_; ++c)
            a[c] *= b[c];
    }
}

Matrix
Matrix::colSum() const
{
    Matrix out(1, cols_);
    for (size_t r = 0; r < rows_; ++r) {
        const double *a = row(r);
        for (size_t c = 0; c < cols_; ++c)
            out(0, c) += a[c];
    }
    return out;
}

Matrix
Matrix::colMean() const
{
    NAZAR_CHECK(rows_ > 0, "colMean of empty matrix");
    Matrix out = colSum();
    out *= 1.0 / static_cast<double>(rows_);
    return out;
}

double
Matrix::sum() const
{
    double s = 0.0;
    for (double x : data_)
        s += x;
    return s;
}

double
Matrix::norm() const
{
    double s = 0.0;
    for (double x : data_)
        s += x * x;
    return std::sqrt(s);
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (double x : data_)
        m = std::max(m, std::fabs(x));
    return m;
}

size_t
Matrix::argmaxRow(size_t r) const
{
    NAZAR_CHECK(r < rows_ && cols_ > 0, "argmaxRow out of range");
    const double *a = row(r);
    size_t best = 0;
    for (size_t c = 1; c < cols_; ++c)
        if (a[c] > a[best])
            best = c;
    return best;
}

Matrix
Matrix::selectRows(const std::vector<size_t> &indices) const
{
    Matrix out(indices.size(), cols_);
    for (size_t i = 0; i < indices.size(); ++i) {
        NAZAR_CHECK(indices[i] < rows_, "selectRows index out of range");
        std::copy(row(indices[i]), row(indices[i]) + cols_, out.row(i));
    }
    return out;
}

bool
Matrix::approxEquals(const Matrix &other, double eps) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (size_t i = 0; i < data_.size(); ++i)
        if (std::fabs(data_[i] - other.data_[i]) > eps)
            return false;
    return true;
}

Matrix
Matrix::choleskyFactor() const
{
    NAZAR_CHECK(rows_ == cols_ && rows_ > 0,
                "Cholesky needs a square matrix");
    const size_t n = rows_;
    Matrix l(n, n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j <= i; ++j) {
            double sum = (*this)(i, j);
            for (size_t k = 0; k < j; ++k)
                sum -= l(i, k) * l(j, k);
            if (i == j) {
                NAZAR_CHECK(sum > 0.0,
                            "matrix is not positive definite");
                l(i, j) = std::sqrt(sum);
            } else {
                l(i, j) = sum / l(j, j);
            }
        }
    }
    return l;
}

std::vector<double>
Matrix::choleskySolve(const std::vector<double> &b) const
{
    NAZAR_CHECK(rows_ == cols_ && b.size() == rows_,
                "choleskySolve shape mismatch");
    const size_t n = rows_;
    // Forward substitution: L y = b.
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (size_t k = 0; k < i; ++k)
            sum -= (*this)(i, k) * y[k];
        y[i] = sum / (*this)(i, i);
    }
    // Back substitution: L^T x = y.
    std::vector<double> x(n);
    for (size_t ii = n; ii-- > 0;) {
        double sum = y[ii];
        for (size_t k = ii + 1; k < n; ++k)
            sum -= (*this)(k, ii) * x[k];
        x[ii] = sum / (*this)(ii, ii);
    }
    return x;
}

std::ostream &
operator<<(std::ostream &os, const Matrix &m)
{
    os << "Matrix(" << m.rows() << "x" << m.cols() << ")[";
    for (size_t r = 0; r < m.rows(); ++r) {
        os << (r ? "; " : "");
        for (size_t c = 0; c < m.cols(); ++c)
            os << (c ? ", " : "") << m(r, c);
    }
    return os << "]";
}

} // namespace nazar::nn
