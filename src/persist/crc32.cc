/**
 * @file
 * CRC32 (reflected 0xEDB88320) kernels and their dispatch.
 *
 * Two kernels compute the same values:
 *
 *  - baseline: slicing-by-8, eight compile-time tables, portable C++;
 *  - pclmul: the carry-less-multiply folding of Gopal et al., "Fast
 *    CRC Computation for Generic Polynomials Using PCLMULQDQ
 *    Instruction" (Intel, 2009), compiled under
 *    `[[gnu::target("pclmul,sse4.1")]]`. Four 128-bit lanes fold 64
 *    input bytes per step, then one lane folds 16 at a time; the
 *    remaining 128 bits reduce to 32 by two more folds and a Barrett
 *    reduction. Inputs shorter than kFoldMin and the last len % 16
 *    bytes go through slicing-by-8.
 *
 * Every folding constant is x^n mod P, and the Barrett constant is
 * floor(x^64 / P), both derived at compile time from the polynomial
 * below; no table is pasted in. The kernel is picked at run time
 * (common/cpu_dispatch.h); the build sets no -mpclmul.
 */
#include <array>

#include "persist/serial.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define NAZAR_CRC_PCLMUL 1
#endif

namespace nazar::persist {

namespace {

/** The reflected CRC32 polynomial (bit 31 - i holds x^i). */
constexpr uint32_t kPoly = 0xEDB88320u;

/**
 * Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time
 * table of the reflected polynomial; kCrcTables[k][b] is the CRC of
 * byte b followed by k zero bytes, so eight table lookups advance the
 * register by eight input bytes at once.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr auto kCrcTables = makeCrcTables();

/** Little-endian u32 at @p p (byte-wise, so any alignment and host). */
inline uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

uint32_t
updateBaseline(uint32_t crc, const unsigned char *p, size_t len)
{
    const auto &t = kCrcTables;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = loadLe32(p) ^ crc;
        uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc;
}

#ifdef NAZAR_CRC_PCLMUL

/** x^n mod P, reflected (bit 31 - i holds x^i). */
constexpr uint32_t
xPowMod(unsigned n)
{
    uint32_t v = 0x80000000u; // x^0
    for (unsigned i = 0; i < n; ++i)
        v = (v & 1) ? (v >> 1) ^ kPoly : v >> 1;
    return v;
}

/**
 * The 64-bit multiplier that folds a lane n - 32 bits forward:
 * x^n mod P, reflected, shifted into the 33-bit operand position.
 */
constexpr uint64_t
foldConstant(unsigned n)
{
    return static_cast<uint64_t>(xPowMod(n)) << 1;
}

/** Reverse the low @p bits bits of @p v. */
constexpr uint64_t
reflect(uint64_t v, int bits)
{
    uint64_t r = 0;
    for (int i = 0; i < bits; ++i)
        if ((v >> i) & 1)
            r |= uint64_t{1} << (bits - 1 - i);
    return r;
}

/** Barrett constant: floor(x^64 / P), reflected over 33 bits. */
constexpr uint64_t
barrettMu()
{
    const uint64_t p = reflect(kPoly, 32) | uint64_t{1} << 32;
    unsigned __int128 rem = static_cast<unsigned __int128>(1) << 64;
    uint64_t q = 0;
    for (int d = 64; d >= 32; --d) {
        if (static_cast<uint64_t>(rem >> d) & 1) {
            rem ^= static_cast<unsigned __int128>(p) << (d - 32);
            q |= uint64_t{1} << (d - 32);
        }
    }
    return reflect(q, 33);
}

/** Fold across four lanes (512 bits), one lane (128), then 64 and 32. */
constexpr uint64_t kFold512Lo = foldConstant(4 * 128 + 32);
constexpr uint64_t kFold512Hi = foldConstant(4 * 128 - 32);
constexpr uint64_t kFold128Lo = foldConstant(128 + 32);
constexpr uint64_t kFold128Hi = foldConstant(128 - 32);
constexpr uint64_t kFold64 = foldConstant(64);
constexpr uint64_t kMu = barrettMu();
/** P itself, reflected over 33 bits. */
constexpr uint64_t kPolyReflected33 = (uint64_t{kPoly} << 1) | 1;

/** Shortest input the folding kernel takes (its four lanes). */
constexpr size_t kFoldMin = 64;

[[gnu::target("pclmul,sse4.1")]] inline __m128i
fold(__m128i lane, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

[[gnu::target("pclmul,sse4.1")]] inline __m128i
load128(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Fold the multiple-of-16 prefix of [p, p + len), len >= kFoldMin. */
[[gnu::target("pclmul,sse4.1")]] uint32_t
foldPclmul(uint32_t crc, const unsigned char *p, size_t len)
{
    __m128i x0 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    p += 64;
    len -= 64;
    const __m128i k512 = _mm_set_epi64x(static_cast<int64_t>(kFold512Hi),
                                        static_cast<int64_t>(kFold512Lo));
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k512, load128(p));
        x1 = fold(x1, k512, load128(p + 16));
        x2 = fold(x2, k512, load128(p + 32));
        x3 = fold(x3, k512, load128(p + 48));
    }
    const __m128i k128 = _mm_set_epi64x(static_cast<int64_t>(kFold128Hi),
                                        static_cast<int64_t>(kFold128Lo));
    x0 = fold(x0, k128, x1);
    x0 = fold(x0, k128, x2);
    x0 = fold(x0, k128, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k128, load128(p));

    // 128 -> 64 bits: the low half folds onto the high half.
    __m128i t = _mm_clmulepi64_si128(x0, k128, 0x10);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
    // 64 -> 32 bits.
    const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
    t = _mm_and_si128(x0, mask32);
    t = _mm_clmulepi64_si128(
        t, _mm_set_epi64x(0, static_cast<int64_t>(kFold64)), 0x00);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4), t);
    // Barrett reduction to the 32-bit remainder.
    const __m128i barrett =
        _mm_set_epi64x(static_cast<int64_t>(kMu),
                       static_cast<int64_t>(kPolyReflected33));
    t = _mm_and_si128(x0, mask32);
    t = _mm_clmulepi64_si128(t, barrett, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, barrett, 0x00);
    x0 = _mm_xor_si128(x0, t);
    return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}

uint32_t
updatePclmul(uint32_t crc, const unsigned char *p, size_t len)
{
    if (len >= kFoldMin) {
        size_t folded = len & ~size_t{15};
        crc = foldPclmul(crc, p, folded);
        p += folded;
        len -= folded;
    }
    return updateBaseline(crc, p, len);
}

#endif // NAZAR_CRC_PCLMUL

} // namespace

std::vector<cpu_dispatch::Variant<crc_kernel::Kernels>>
crc_kernel::Kernels::detect()
{
    std::vector<cpu_dispatch::Variant<Kernels>> v;
#ifdef NAZAR_CRC_PCLMUL
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1"))
        v.push_back({"pclmul", {&updatePclmul}});
#endif
    v.push_back({"baseline", {&updateBaseline}});
    return v;
}

uint32_t
crc32Update(uint32_t crc, const void *data, size_t len)
{
    const crc_kernel::Update update =
        cpu_dispatch::active<crc_kernel::Kernels>().kernels.update;
    return update(crc ^ 0xFFFFFFFFu,
                  static_cast<const unsigned char *>(data), len) ^
           0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t len)
{
    return crc32Update(0, data, len);
}

} // namespace nazar::persist
