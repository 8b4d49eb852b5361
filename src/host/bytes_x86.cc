/**
 * @file
 * AVX2 byte-scan kernel tier for x86-64.
 *
 * The fleet audits grep every page a device owns after every scenario
 * step, attacks grep whole DMA and cold-boot dumps, and the Table 2
 * remanence methodology counts aligned 8-byte pattern strides over
 * full memory images — these scans are a large share of bench_fleet's
 * host wall once AES is hardware-accelerated. Every power loss also
 * blends each DRAM page against its remanence lanes (decayBlend).
 */

#include "host/kernels_detail.hh"

#if defined(__x86_64__)

#include <immintrin.h>

namespace sentry::host::detail
{

namespace
{

/** Portable stride loop shared with odd pattern sizes and tails. */
std::size_t
scalarCountPattern(const std::uint8_t *buf, std::size_t len,
                   const std::uint8_t *pattern, std::size_t patternLen,
                   std::size_t startOffset)
{
    std::size_t hits = 0;
    for (std::size_t off = startOffset; off + patternLen <= len;
         off += patternLen) {
        if (std::memcmp(buf + off, pattern, patternLen) == 0)
            ++hits;
    }
    return hits;
}

/** Aligned-stride counting: the 8-byte pattern case compares four
 *  strides per 256-bit lane (the strides tile the buffer exactly). */
__attribute__((target("avx2"))) std::size_t
avx2CountPattern(const std::uint8_t *buf, std::size_t len,
                 const std::uint8_t *pattern, std::size_t patternLen)
{
    if (patternLen != 8)
        return scalarCountPattern(buf, len, pattern, patternLen, 0);
    std::uint64_t pat;
    std::memcpy(&pat, pattern, 8);
    const __m256i vpat =
        _mm256_set1_epi64x(static_cast<long long>(pat));
    std::size_t hits = 0;
    std::size_t off = 0;
    for (; off + 32 <= len; off += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(buf + off));
        const __m256i eq = _mm256_cmpeq_epi64(v, vpat);
        hits += static_cast<unsigned>(__builtin_popcount(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq))));
    }
    return hits + scalarCountPattern(buf, len, pattern, 8, off);
}

/** First+last byte SIMD filter, memcmp on the survivors. */
__attribute__((target("avx2"))) bool
avx2ContainsBytes(const std::uint8_t *haystack, std::size_t hayLen,
                  const std::uint8_t *needle, std::size_t needleLen)
{
    if (needleLen == 0 || needleLen > hayLen)
        return false;
    if (needleLen == 1) {
        return std::memchr(haystack, needle[0], hayLen) != nullptr;
    }
    const __m256i first = _mm256_set1_epi8(
        static_cast<char>(needle[0]));
    const __m256i last = _mm256_set1_epi8(
        static_cast<char>(needle[needleLen - 1]));
    const std::size_t span = hayLen - needleLen + 1;
    std::size_t i = 0;
    for (; i + 32 <= span; i += 32) {
        const __m256i head = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(haystack + i));
        const __m256i tail = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(haystack + i +
                                              needleLen - 1));
        std::uint32_t mask = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_and_si256(
                _mm256_cmpeq_epi8(head, first),
                _mm256_cmpeq_epi8(tail, last))));
        while (mask != 0) {
            const unsigned bit =
                static_cast<unsigned>(__builtin_ctz(mask));
            mask &= mask - 1;
            if (std::memcmp(haystack + i + bit + 1, needle + 1,
                            needleLen - 2) == 0)
                return true;
        }
    }
    for (; i < span; ++i) {
        if (haystack[i] == needle[0] &&
            std::memcmp(haystack + i, needle, needleLen) == 0)
            return true;
    }
    return false;
}

__attribute__((target("avx2"))) bool
avx2AllZero(const std::uint8_t *buf, std::size_t len)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 128 <= len; i += 128) {
        auto *p = reinterpret_cast<const __m256i *>(buf + i);
        const __m256i a = _mm256_or_si256(_mm256_loadu_si256(p),
                                          _mm256_loadu_si256(p + 1));
        const __m256i b = _mm256_or_si256(_mm256_loadu_si256(p + 2),
                                          _mm256_loadu_si256(p + 3));
        acc = _mm256_or_si256(acc, _mm256_or_si256(a, b));
    }
    for (; i + 32 <= len; i += 32) {
        acc = _mm256_or_si256(acc,
                              _mm256_loadu_si256(reinterpret_cast<
                                                 const __m256i *>(buf + i)));
    }
    if (!_mm256_testz_si256(acc, acc))
        return false;
    std::uint8_t tail = 0;
    for (; i < len; ++i)
        tail |= buf[i];
    return tail == 0;
}

/** 32 bytes per step: two loads of sixteen 16-bit lanes, an unsigned
 *  lane >= threshold compare, packed to one byte mask (packs
 *  interleaves the 128-bit halves, the permute restores byte order),
 *  then a byte blend of ground over src. */
__attribute__((target("avx2"))) void
avx2DecayBlend(std::uint8_t *dst, const std::uint8_t *src, std::size_t len,
               const std::uint64_t *lanes, std::uint32_t threshold,
               std::uint8_t ground)
{
    std::size_t i = 0;
    if (threshold <= 0xffff) {
        const auto *lane16 = reinterpret_cast<const std::uint8_t *>(lanes);
        const __m256i thr =
            _mm256_set1_epi16(static_cast<short>(threshold));
        const __m256i fill = _mm256_set1_epi8(static_cast<char>(ground));
        for (; i + 32 <= len; i += 32) {
            const __m256i lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(lane16 + 2 * i));
            const __m256i hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(lane16 + 2 * i + 32));
            const __m256i decayLo =
                _mm256_cmpeq_epi16(_mm256_max_epu16(lo, thr), lo);
            const __m256i decayHi =
                _mm256_cmpeq_epi16(_mm256_max_epu16(hi, thr), hi);
            const __m256i mask = _mm256_permute4x64_epi64(
                _mm256_packs_epi16(decayLo, decayHi), 0xd8);
            const __m256i cells = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + i));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                                _mm256_blendv_epi8(cells, fill, mask));
        }
    }
    for (; i < len; ++i) {
        const auto lane = static_cast<std::uint32_t>(
            (lanes[i / 4] >> (16 * (i % 4))) & 0xffff);
        dst[i] = lane >= threshold ? ground : src[i];
    }
}

} // namespace

bool
x86BytesKernel(BytesKernel &out, const CpuFeatures &features)
{
    if (!features.avx2)
        return false;
    out = BytesKernel{"avx2", avx2CountPattern, avx2ContainsBytes,
                      avx2AllZero, avx2DecayBlend};
    return true;
}

} // namespace sentry::host::detail

#else // !__x86_64__

namespace sentry::host::detail
{

bool
x86BytesKernel(BytesKernel &out, const CpuFeatures &features)
{
    (void)out;
    (void)features;
    return false;
}

} // namespace sentry::host::detail

#endif
