/**
 * @file
 * Run-time choice of instruction set for a kernel family compiled more
 * than once (nn::gemm, rca::count_kernel, persist::crc_kernel).
 *
 * A family is a struct of kernel pointers, `Kernels`, whose source file
 * defines `static std::vector<Variant<Kernels>> Kernels::detect()`:
 * the variants compiled into this build that the host CPU can run,
 * preferred first and the `baseline` ISA last. The list is built
 * once, at first use. Calls go through active<Kernels>(), the front
 * variant unless a ScopedVariant pins another. Every variant of a
 * family computes the same results; the pin lets tests check each one
 * the host runs.
 */
#ifndef NAZAR_COMMON_CPU_DISPATCH_H
#define NAZAR_COMMON_CPU_DISPATCH_H

#include <atomic>
#include <vector>

namespace nazar::cpu_dispatch {

/** One compiled instance of a kernel family. */
template <typename Kernels>
struct Variant
{
    const char *isa; ///< e.g. "avx2"; the last variant is "baseline".
    Kernels kernels;
};

/**
 * The variants compiled into this build that the host CPU can run,
 * preferred first. Never empty: the baseline variant runs anywhere.
 */
template <typename Kernels>
const std::vector<Variant<Kernels>> &
hostVariants()
{
    static const std::vector<Variant<Kernels>> variants = Kernels::detect();
    return variants;
}

namespace detail {

/** The variant a live ScopedVariant pins; null when none is live. */
template <typename Kernels>
inline std::atomic<const Variant<Kernels> *> pinned{nullptr};

} // namespace detail

/** The variant calls use: the pinned one, else hostVariants().front(). */
template <typename Kernels>
inline const Variant<Kernels> &
active()
{
    const Variant<Kernels> *v =
        detail::pinned<Kernels>.load(std::memory_order_acquire);
    return v ? *v : hostVariants<Kernels>().front();
}

/**
 * Route the family's calls through @p variant (an element of
 * hostVariants(), which outlives this object) for this object's
 * lifetime; the destructor restores the previous choice, so nested
 * pins unwind in LIFO order. Not meant to race with the family's
 * calls on other threads.
 */
template <typename Kernels>
class ScopedVariant
{
  public:
    explicit ScopedVariant(const Variant<Kernels> &variant)
        : previous_(detail::pinned<Kernels>.exchange(
              &variant, std::memory_order_acq_rel))
    {
    }
    ~ScopedVariant()
    {
        detail::pinned<Kernels>.store(previous_, std::memory_order_release);
    }
    ScopedVariant(const ScopedVariant &) = delete;
    ScopedVariant &operator=(const ScopedVariant &) = delete;

  private:
    const Variant<Kernels> *previous_;
};

} // namespace nazar::cpu_dispatch

#endif // NAZAR_COMMON_CPU_DISPATCH_H
