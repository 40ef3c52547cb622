/**
 * @file
 * Tests for the CPU-dispatch facility (common/cpu_dispatch.h): the
 * pin/restore rules on a family of three fake variants, whose order
 * shows on any host, and the variant lists of the three kernel
 * families (nn::gemm, rca::count_kernel, persist::crc_kernel).
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/cpu_dispatch.h"
#include "nn/gemm.h"
#include "persist/serial.h"
#include "rca/bitmap_index.h"

namespace nazar::cpu_dispatch {
namespace {

int detectCalls = 0;

int kernelA() { return 0; }
int kernelB() { return 1; }
int kernelC() { return 2; }

struct FakeKernels
{
    int (*id)();
    static std::vector<Variant<FakeKernels>> detect()
    {
        ++detectCalls;
        return {{"a", {&kernelA}},
                {"b", {&kernelB}},
                {"baseline", {&kernelC}}};
    }
};

int
activeId()
{
    return active<FakeKernels>().kernels.id();
}

TEST(CpuDispatch, DefaultIsFrontAndPinsRestoreInLifoOrder)
{
    const auto &variants = hostVariants<FakeKernels>();
    ASSERT_EQ(variants.size(), 3u);
    EXPECT_EQ(&active<FakeKernels>(), &variants.front());
    EXPECT_EQ(activeId(), 0);
    {
        ScopedVariant outer(variants[2]);
        EXPECT_EQ(&active<FakeKernels>(), &variants[2]);
        {
            ScopedVariant inner(variants[1]);
            EXPECT_EQ(activeId(), 1);
            {
                ScopedVariant front(variants[0]);
                EXPECT_EQ(activeId(), 0);
            }
            EXPECT_EQ(activeId(), 1);
        }
        EXPECT_EQ(activeId(), 2);
    }
    EXPECT_EQ(&active<FakeKernels>(), &variants.front());
    EXPECT_EQ(&hostVariants<FakeKernels>(), &variants);
    EXPECT_EQ(detectCalls, 1);
}

/**
 * A real family's list: one or two variants, @p preferred first
 * exactly when the host has it, `baseline` last; calls default to the
 * front and a pin of the baseline routes them there until it ends.
 */
template <typename Kernels>
void
checkFamily(const char *preferred, bool host_has_preferred)
{
    const auto &variants = hostVariants<Kernels>();
    ASSERT_EQ(variants.size(), host_has_preferred ? 2u : 1u);
    EXPECT_STREQ(variants.back().isa, "baseline");
    if (host_has_preferred) {
        EXPECT_STREQ(variants.front().isa, preferred);
    }
    EXPECT_EQ(&active<Kernels>(), &variants.front());
    {
        ScopedVariant pin(variants.back());
        EXPECT_EQ(&active<Kernels>(), &variants.back());
    }
    EXPECT_EQ(&active<Kernels>(), &variants.front());
}

#if defined(__x86_64__) || defined(__i386__)
#define HOST_HAS(feature)                                                \
    (__builtin_cpu_init(), __builtin_cpu_supports(feature))
#else
#define HOST_HAS(feature) false
#endif

TEST(CpuDispatch, GemmPrefersAvx2)
{
    checkFamily<nn::gemm::Kernels>("avx2", HOST_HAS("avx2"));
}

TEST(CpuDispatch, CountKernelPrefersPopcnt)
{
    checkFamily<rca::count_kernel::Kernels>("popcnt", HOST_HAS("popcnt"));
}

TEST(CpuDispatch, Crc32PrefersPclmul)
{
    checkFamily<persist::crc_kernel::Kernels>(
        "pclmul", HOST_HAS("pclmul") && HOST_HAS("sse4.1"));
}

} // namespace
} // namespace nazar::cpu_dispatch
