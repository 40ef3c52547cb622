/**
 * @file
 * The plain-loop matrix products the gemm kernel replaced, kept as the
 * oracles that test_matrix compares Matrix::matmul, transposeMatmul and
 * matmulTranspose with bit for bit, and as the "oracle" axis of
 * bench_runtime_scaling. Compile them with -ffp-contract=off so each
 * multiply and add rounds on its own, like the nn library.
 */
#ifndef NAZAR_TESTS_MATRIX_ORACLE_H
#define NAZAR_TESTS_MATRIX_ORACLE_H

#include "nn/matrix.h"

namespace nazar::nn::oracle {

/** a b: i-k-j, skipping zero terms of a. */
inline Matrix
matmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        const double *ar = a.row(i);
        double *o = out.row(i);
        for (size_t p = 0; p < a.cols(); ++p) {
            const double x = ar[p];
            if (x == 0.0)
                continue;
            const double *br = b.row(p);
            for (size_t j = 0; j < b.cols(); ++j)
                o[j] += x * br[j];
        }
    }
    return out;
}

/** a^T b: each output row accumulates over a's rows in ascending
 *  order, skipping zero terms of a. */
inline Matrix
transposeMatmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.cols(), b.cols());
    for (size_t i = 0; i < a.cols(); ++i) {
        double *o = out.row(i);
        for (size_t p = 0; p < a.rows(); ++p) {
            const double x = a(p, i);
            if (x == 0.0)
                continue;
            const double *br = b.row(p);
            for (size_t j = 0; j < b.cols(); ++j)
                o[j] += x * br[j];
        }
    }
    return out;
}

/** a b^T: one dot product per output element, no skip. */
inline Matrix
matmulTranspose(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i) {
        const double *ar = a.row(i);
        for (size_t j = 0; j < b.rows(); ++j) {
            const double *br = b.row(j);
            double acc = 0.0;
            for (size_t p = 0; p < a.cols(); ++p)
                acc += ar[p] * br[p];
            out(i, j) = acc;
        }
    }
    return out;
}

} // namespace nazar::nn::oracle

#endif // NAZAR_TESTS_MATRIX_ORACLE_H
