/**
 * @file
 * Dense row-major matrix — the tensor type of Nazar's NN substrate.
 *
 * All model math (activations, gradients, parameters) flows through
 * Matrix. Rows are samples within a batch; columns are features or
 * classes, in double precision. Sizes are small (a batch of 1 to a few
 * hundred rows, widths up to 96), and the three products are nearly
 * all of the nn layer's time: device inference, TENT adaptation and
 * training. They share one register-tiled kernel (nn/gemm.h),
 * compiled per instruction set and picked for the host CPU, and
 * produce the same bits as the plain multiply-then-add loops at every
 * thread count (tests/test_matrix.cc checks each variant against
 * those loops).
 */
#ifndef NAZAR_NN_MATRIX_H
#define NAZAR_NN_MATRIX_H

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <vector>

#include "common/rng.h"

namespace nazar::nn {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(size_t rows, size_t cols);

    /** rows x cols matrix filled with @p fill. */
    Matrix(size_t rows, size_t cols, double fill);

    /** Build from nested initializer data (rows of equal length). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** A single-row matrix wrapping a vector. */
    static Matrix rowVector(const std::vector<double> &v);

    /** Matrix with i.i.d. N(0, stddev^2) entries. */
    static Matrix randomNormal(size_t rows, size_t cols, double stddev,
                               Rng &rng);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    /** Pointer to the start of row r. */
    double *row(size_t r) { return data_.data() + r * cols_; }
    const double *row(size_t r) const { return data_.data() + r * cols_; }

    /** Copy row r out as a vector. */
    std::vector<double> rowVec(size_t r) const;

    /** Overwrite row r from a vector of length cols(). */
    void setRow(size_t r, const std::vector<double> &v);

    /** Set every entry to a constant. */
    void fill(double v);

    /** Set every entry to zero. */
    void setZero() { fill(0.0); }

    // ---- arithmetic -----------------------------------------------------

    Matrix &operator+=(const Matrix &other);
    Matrix &operator-=(const Matrix &other);
    Matrix &operator*=(double s);

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(double s) const;

    /** Elementwise (Hadamard) product. */
    Matrix cwiseProduct(const Matrix &other) const;

    /** Apply a scalar function elementwise. */
    Matrix unaryOp(const std::function<double(double)> &f) const;

    /** this (rows x k) times other (k x cols). */
    Matrix matmul(const Matrix &other) const;

    /** this^T times other: (n x a)^T (n x b) -> a x b. */
    Matrix transposeMatmul(const Matrix &other) const;

    /** this times other^T. */
    Matrix matmulTranspose(const Matrix &other) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Add a 1 x cols row vector to every row. */
    void addRowBroadcast(const Matrix &row_vec);

    /** Multiply every row elementwise by a 1 x cols row vector. */
    void mulRowBroadcast(const Matrix &row_vec);

    /** Column sums as a 1 x cols matrix. */
    Matrix colSum() const;

    /** Column means as a 1 x cols matrix. */
    Matrix colMean() const;

    /** Sum of all entries. */
    double sum() const;

    /** Frobenius norm. */
    double norm() const;

    /** Max absolute entry (0 for an empty matrix). */
    double maxAbs() const;

    /** Index of the maximum entry within row r. */
    size_t argmaxRow(size_t r) const;

    /** Gather a subset of rows into a new matrix. */
    Matrix selectRows(const std::vector<size_t> &indices) const;

    /** True when shapes match and entries differ by at most eps. */
    bool approxEquals(const Matrix &other, double eps = 1e-9) const;

    /**
     * Cholesky factorization of a symmetric positive-definite matrix:
     * returns lower-triangular L with L L^T == this. Throws NazarError
     * when the matrix is not square or not (numerically) SPD.
     */
    Matrix choleskyFactor() const;

    /**
     * Solve (L L^T) x = b given the lower-triangular factor L from
     * choleskyFactor(), via forward + back substitution.
     * @param b Right-hand side of length rows().
     */
    std::vector<double>
    choleskySolve(const std::vector<double> &b) const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/** Human-readable stream output (for debugging/tests). */
std::ostream &operator<<(std::ostream &os, const Matrix &m);

} // namespace nazar::nn

#endif // NAZAR_NN_MATRIX_H
