/**
 * @file
 * The one dense product kernel behind every Matrix product.
 *
 * `Kernel` computes C = A * B for dense row-major operands in the axpy
 * form C(i, *) += A(i, p) * B(p, *): each output
 * row is swept in register tiles of eight vectors of columns, so the
 * adds of different output elements form independent chains. It keeps
 * the bit-level contract of the plain triple loop it replaced:
 *
 *  - every output element starts at +0.0 and accumulates its terms in
 *    ascending p, one multiply and one add per term, never fused (the
 *    nn library is built with -ffp-contract=off);
 *  - a term whose A(i, p) compares equal to 0.0 (either sign) is
 *    skipped, so a zero in A never turns an infinite B entry into NaN.
 *
 * The result is therefore bit-identical to the plain loop for every
 * shape, every variant and every row partition. The kernel is compiled
 * once per instruction set (AVX2 and the baseline ISA on x86, the
 * baseline only elsewhere); the CPU picks the variant once, at first
 * use.
 */
#ifndef NAZAR_NN_GEMM_H
#define NAZAR_NN_GEMM_H

#include <cstddef>
#include <vector>

#include "common/cpu_dispatch.h"

namespace nazar::nn::gemm {

/**
 * C (m x n) = A (m x k) * B (k x n), all dense row-major. C is
 * overwritten; A and B must not alias C.
 */
using Kernel = void (*)(const double *a, const double *b, double *c,
                        size_t m, size_t k, size_t n);

/**
 * The gemm family's kernels, dispatched by common/cpu_dispatch.h:
 * `avx2` on x86 hosts that have it, `baseline` everywhere.
 */
struct Kernels
{
    Kernel multiply;
    /** The variants the host CPU runs, preferred first (gemm.cc). */
    static std::vector<cpu_dispatch::Variant<Kernels>> detect();
};

} // namespace nazar::nn::gemm

#endif // NAZAR_NN_GEMM_H
