/**
 * @file
 * CowBytes / CowImage unit tests: the page-granular copy-on-write
 * array backing Dram and Iram for snapshot/fork.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hh"
#include "host/kernels.hh"
#include "hw/cow_bytes.hh"
#include "hw/dram.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

std::vector<std::uint8_t>
readAll(const CowBytes &bytes)
{
    std::vector<std::uint8_t> out(bytes.size());
    bytes.read(0, out.data(), out.size());
    return out;
}

std::vector<std::uint8_t>
pattern(std::size_t len, std::uint8_t salt)
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(salt + i * 7);
    return out;
}

} // namespace

TEST(CowBytes, StartsZeroWithNoPrivatePages)
{
    CowBytes bytes(4 * PAGE_SIZE);
    EXPECT_EQ(bytes.size(), 4 * PAGE_SIZE);
    EXPECT_EQ(bytes.pageCount(), 4u);
    EXPECT_EQ(bytes.privatePages(), 0u);

    const auto all = readAll(bytes);
    for (std::uint8_t b : all)
        ASSERT_EQ(b, 0u);
}

TEST(CowBytes, WritePrivatizesOnlyTouchedPages)
{
    CowBytes bytes(8 * PAGE_SIZE);
    const auto data = pattern(64, 0x11);
    bytes.write(2 * PAGE_SIZE + 100, data.data(), data.size());

    EXPECT_EQ(bytes.privatePages(), 1u);
    EXPECT_TRUE(bytes.pageIsPrivate(2));
    EXPECT_FALSE(bytes.pageIsPrivate(1));
    EXPECT_FALSE(bytes.pageIsPrivate(3));

    std::vector<std::uint8_t> back(data.size());
    bytes.read(2 * PAGE_SIZE + 100, back.data(), back.size());
    EXPECT_EQ(back, data);

    // Rewriting the same page does not inflate the dirty count.
    bytes.write(2 * PAGE_SIZE, data.data(), data.size());
    EXPECT_EQ(bytes.privatePages(), 1u);
    EXPECT_EQ(bytes.checkConsistency(), "");
}

TEST(CowBytes, CrossPageReadWriteHitSlowPath)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE + 512, 0x23);
    bytes.write(PAGE_SIZE - 256, data.data(), data.size());
    EXPECT_EQ(bytes.privatePages(), 3u); // pages 0, 1, 2

    std::vector<std::uint8_t> back(data.size());
    bytes.read(PAGE_SIZE - 256, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(CowBytes, PartialLastPageRoundTrips)
{
    const std::size_t size = 2 * PAGE_SIZE + 100;
    CowBytes bytes(size);
    EXPECT_EQ(bytes.pageCount(), 3u);

    const auto data = pattern(100, 0x42);
    bytes.write(2 * PAGE_SIZE, data.data(), data.size());
    const auto image = bytes.freeze();
    EXPECT_EQ(image->size(), size);

    CowBytes fork(size);
    fork.adopt(image);
    std::vector<std::uint8_t> back(100);
    fork.read(2 * PAGE_SIZE, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(CowBytes, AdoptSharesImageAndResetsDirtyBitmap)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x55);
    source.write(PAGE_SIZE, data.data(), data.size());
    const auto image = source.freeze();

    CowBytes fork(4 * PAGE_SIZE);
    fork.write(0, data.data(), data.size()); // dirt, dropped by adopt
    fork.adopt(image);
    EXPECT_EQ(fork.privatePages(), 0u);
    EXPECT_EQ(readAll(fork), readAll(source));
}

TEST(CowBytes, SiblingWritesAreIsolated)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto base = pattern(PAGE_SIZE, 0x66);
    source.write(0, base.data(), base.size());
    const auto image = source.freeze();

    CowBytes left(4 * PAGE_SIZE);
    CowBytes right(4 * PAGE_SIZE);
    left.adopt(image);
    right.adopt(image);

    const auto edit = pattern(128, 0x77);
    left.write(64, edit.data(), edit.size());

    // Right sibling and the image still see the original bytes.
    std::vector<std::uint8_t> back(128);
    right.read(64, back.data(), back.size());
    std::vector<std::uint8_t> expect(base.begin() + 64,
                                     base.begin() + 64 + 128);
    EXPECT_EQ(back, expect);
    EXPECT_EQ(0, std::memcmp(image->page(0) + 64, expect.data(), 128));
    EXPECT_EQ(left.privatePages(), 1u);
    EXPECT_EQ(right.privatePages(), 0u);
}

TEST(CowBytes, FreezeDoesNotDisturbSourceOrLaterWrites)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto before = pattern(PAGE_SIZE, 0x88);
    source.write(0, before.data(), before.size());
    const std::size_t dirtyBefore = source.privatePages();
    const auto image = source.freeze();
    EXPECT_EQ(source.privatePages(), dirtyBefore);

    // Snapshot immutability: mutate the source after freezing.
    const auto after = pattern(PAGE_SIZE, 0x99);
    source.write(0, after.data(), after.size());
    EXPECT_EQ(0,
              std::memcmp(image->page(0), before.data(), PAGE_SIZE));
}

TEST(CowBytes, FreezeOfForkChainsImages)
{
    CowBytes gen0(4 * PAGE_SIZE);
    const auto a = pattern(PAGE_SIZE, 0x10);
    gen0.write(0, a.data(), a.size());
    const auto image0 = gen0.freeze();

    CowBytes gen1(4 * PAGE_SIZE);
    gen1.adopt(image0);
    const auto b = pattern(PAGE_SIZE, 0x20);
    gen1.write(PAGE_SIZE, b.data(), b.size());
    const auto image1 = gen1.freeze();

    CowBytes gen2(4 * PAGE_SIZE);
    gen2.adopt(image1);
    std::vector<std::uint8_t> back(PAGE_SIZE);
    gen2.read(0, back.data(), back.size());
    EXPECT_EQ(back, a); // page shared through the image chain
    gen2.read(PAGE_SIZE, back.data(), back.size());
    EXPECT_EQ(back, b);
}

TEST(CowBytes, ZeroAllClearsEveryStateWithoutInvalidatingSpans)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x31);
    bytes.write(0, data.data(), data.size()); // private page

    CowBytes source(4 * PAGE_SIZE);
    source.write(PAGE_SIZE, data.data(), data.size());
    bytes.adopt(source.freeze()); // page 1 shared
    bytes.write(0, data.data(), data.size()); // page 0 private again

    std::span<std::uint8_t> span = bytes.contiguous();
    bytes.zeroAll();
    for (std::uint8_t b : readAll(bytes))
        ASSERT_EQ(b, 0u);
    // The old span stays valid and observes the zeroing for pages that
    // were private (the pre-COW memset semantics).
    EXPECT_EQ(span[0], 0u);
}

TEST(CowBytes, ContiguousMaterializesAndStaysCoherent)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x47);
    source.write(3 * PAGE_SIZE, data.data(), data.size());

    CowBytes fork(4 * PAGE_SIZE);
    fork.adopt(source.freeze());
    std::span<std::uint8_t> span = fork.contiguous();
    EXPECT_EQ(fork.privatePages(), fork.pageCount());
    EXPECT_EQ(0, std::memcmp(span.data() + 3 * PAGE_SIZE, data.data(),
                             PAGE_SIZE));

    // Writes through the API land in the materialized storage...
    const std::uint8_t byte = 0xab;
    fork.write(123, &byte, 1);
    EXPECT_EQ(span[123], 0xab);
    // ...and writes through the span are visible to reads.
    span[456] = 0xcd;
    std::uint8_t back = 0;
    fork.read(456, &back, 1);
    EXPECT_EQ(back, 0xcd);
}

TEST(CowBytes, FreezePublishesZeroPagesAsZero)
{
    CowBytes source(4 * PAGE_SIZE);
    source.contiguous(); // every page Private, all still zero
    const std::vector<std::uint8_t> zeros(PAGE_SIZE, 0);
    source.write(PAGE_SIZE, zeros.data(), zeros.size());
    const auto data = pattern(PAGE_SIZE, 0x61);
    source.write(2 * PAGE_SIZE, data.data(), data.size());
    EXPECT_EQ(source.privatePages(), 4u);

    const auto image = source.freeze();
    EXPECT_EQ(image->page(0), nullptr);
    EXPECT_EQ(image->page(1), nullptr);
    ASSERT_NE(image->page(2), nullptr);
    EXPECT_EQ(0, std::memcmp(image->page(2), data.data(), PAGE_SIZE));
    EXPECT_EQ(image->page(3), nullptr);
    EXPECT_EQ(source.privatePages(), 4u); // freeze leaves states alone

    CowBytes fork(4 * PAGE_SIZE);
    fork.adopt(image);
    EXPECT_EQ(fork.privatePages(), 0u);
    const auto all = readAll(fork);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::uint8_t want =
            i / PAGE_SIZE == 2 ? data[i % PAGE_SIZE] : 0;
        ASSERT_EQ(all[i], want) << "byte " << i;
    }
    EXPECT_EQ(fork.privatePages(), 0u);
}

TEST(CowBytes, FreezeKeepsDataInPartialLastPage)
{
    const std::size_t size = 2 * PAGE_SIZE + 100;
    CowBytes source(size);
    source.contiguous();
    const std::uint8_t byte = 0x5a;
    source.write(size - 1, &byte, 1);
    const auto image = source.freeze();
    EXPECT_EQ(image->page(0), nullptr);
    EXPECT_EQ(image->page(1), nullptr);
    ASSERT_NE(image->page(2), nullptr);

    CowBytes fork(size);
    fork.adopt(image);
    std::uint8_t back = 0;
    fork.read(size - 1, &back, 1);
    EXPECT_EQ(back, byte);
}

namespace
{

/** Where a page of a ContainsMix reads from. */
enum class PageKind
{
    Zero,    //!< the shared zero page
    SharedA, //!< a page copied into the first image
    SharedB, //!< a page copied into the second image
    Private, //!< the fork's own storage
};

/**
 * A fork whose pages are a random mix of every state, with Shared
 * pages from two images (so neighbouring Shared pages need not be
 * adjacent in memory), and a last page @p tail bytes short.
 */
struct ContainsMix
{
    ContainsMix(std::size_t pages, std::size_t tail, std::uint64_t seed)
        : size(pages * PAGE_SIZE - tail), kinds(pages), bytes(size)
    {
        std::mt19937_64 rng(seed);
        // Writes @p len random bytes (a third of them zero) somewhere
        // inside @p page.
        const auto randomFill = [&](CowBytes &into, std::size_t page,
                                    std::size_t len) {
            const std::size_t base = page * PAGE_SIZE;
            const std::size_t pageLen = std::min(PAGE_SIZE, size - base);
            len = std::min(len, pageLen);
            std::vector<std::uint8_t> data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng() % 3 == 0 ? 0 : rng());
            into.write(base + rng() % (pageLen - len + 1), data.data(),
                       data.size());
        };

        for (auto &kind : kinds)
            kind = static_cast<PageKind>(rng() % 4);

        // Image A: SharedA pages, plus some pages that end up Private
        // (privatized from Shared) and one materialized zero page that
        // freeze() must publish as Zero.
        CowBytes genA(size);
        for (std::size_t page = 0; page < pages; ++page) {
            if (kinds[page] == PageKind::SharedA ||
                (kinds[page] == PageKind::Private && rng() % 2 == 0))
                randomFill(genA, page, PAGE_SIZE);
        }
        const std::vector<std::uint8_t> zeros(PAGE_SIZE, 0);
        for (std::size_t page = 0; page < pages; ++page) {
            if (kinds[page] == PageKind::Zero) {
                genA.write(page * PAGE_SIZE, zeros.data(),
                           std::min(PAGE_SIZE, size - page * PAGE_SIZE));
                break;
            }
        }

        // Image B aliases image A's pages and copies the SharedB ones.
        CowBytes genB(size);
        genB.adopt(genA.freeze());
        for (std::size_t page = 0; page < pages; ++page) {
            if (kinds[page] == PageKind::SharedB)
                randomFill(genB, page, PAGE_SIZE);
        }

        bytes.adopt(genB.freeze());
        for (std::size_t page = 0; page < pages; ++page) {
            if (kinds[page] == PageKind::Private)
                randomFill(bytes, page, 1 + rng() % PAGE_SIZE);
        }
        reference = readAll(bytes);
    }

    /** @return the bytes at [offset, offset + len) (clipped). */
    std::vector<std::uint8_t>
    slice(std::size_t offset, std::size_t len) const
    {
        offset = std::min(offset, size - len);
        return {reference.begin() + static_cast<std::ptrdiff_t>(offset),
                reference.begin() +
                    static_cast<std::ptrdiff_t>(offset + len)};
    }

    std::size_t size;
    std::vector<PageKind> kinds;
    CowBytes bytes;
    std::vector<std::uint8_t> reference; //!< contents, read without
                                         //!< materializing
};

/** contains() must agree with a flat scan and leave states alone. */
void
expectContainsMatchesFlatScan(const ContainsMix &mix,
                              const std::vector<std::uint8_t> &needle)
{
    // A slice of zeros takes the materializing fallback, which would
    // flatten the mix for every later check; the fallback block of
    // runContainsEquivalence() covers it.
    if (allZero(needle))
        return;
    const std::size_t privateBefore = mix.bytes.privatePages();
    EXPECT_EQ(mix.bytes.contains(needle),
              containsBytes(mix.reference, needle))
        << "needle of " << needle.size() << " bytes";
    EXPECT_EQ(mix.bytes.privatePages(), privateBefore);
}

/** Every placement the page-run walk has an edge case for. */
void
checkMix(const ContainsMix &mix, std::mt19937_64 &rng)
{
    for (const std::size_t n : {std::size_t{1}, std::size_t{16},
                                std::size_t{32}}) {
        // First byte, last byte, and every page seam at every
        // straddle (the last seam runs into the partial page).
        expectContainsMatchesFlatScan(mix, mix.slice(0, n));
        expectContainsMatchesFlatScan(mix, mix.slice(mix.size - n, n));
        for (std::size_t page = 1; page < mix.kinds.size(); ++page) {
            const std::size_t seam = page * PAGE_SIZE;
            for (const std::size_t before : {std::size_t{1}, n / 2,
                                             n - 1}) {
                if (before == 0)
                    continue;
                auto needle = mix.slice(seam - before, n);
                expectContainsMatchesFlatScan(mix, needle);
                // A near miss: same bytes with the last one changed.
                needle.back() ^= 0x80;
                expectContainsMatchesFlatScan(mix, needle);
            }
        }
        // Random positions and (almost surely) absent random needles.
        for (int i = 0; i < 16; ++i) {
            expectContainsMatchesFlatScan(
                mix, mix.slice(rng() % (mix.size - n + 1), n));
            std::vector<std::uint8_t> absent(n);
            for (auto &b : absent)
                b = static_cast<std::uint8_t>(rng());
            expectContainsMatchesFlatScan(mix, absent);
        }
    }
}

/** Run the randomized equivalence check on the active kernel tier. */
void
runContainsEquivalence()
{
    std::set<std::pair<PageKind, PageKind>> seams;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
        const ContainsMix mix(24, seed % 3 == 0 ? 0 : 1000 + seed, seed);
        for (std::size_t page = 1; page < mix.kinds.size(); ++page)
            seams.emplace(mix.kinds[page - 1], mix.kinds[page]);
        checkMix(mix, rng);
    }
    EXPECT_EQ(seams.size(), 16u) << "every ordered pair of page kinds "
                                    "must meet at some seam";

    // The fallbacks: longer than a page, and all-zero (which matches
    // inside Zero runs). Both materialize, so they run last.
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
        ContainsMix mix(8, 700, seed);
        const auto longNeedle = mix.slice(PAGE_SIZE - 9, PAGE_SIZE + 1);
        EXPECT_EQ(mix.bytes.contains(longNeedle),
                  containsBytes(mix.reference, longNeedle));
        auto absentLong = longNeedle;
        absentLong[PAGE_SIZE / 2] ^= 0x01;
        EXPECT_EQ(mix.bytes.contains(absentLong),
                  containsBytes(mix.reference, absentLong));
        const std::vector<std::uint8_t> zeros(24, 0);
        EXPECT_EQ(mix.bytes.contains(zeros),
                  containsBytes(mix.reference, zeros));
        EXPECT_EQ(mix.bytes.contains(zeros),
                  containsBytes(mix.bytes.contiguous(), zeros));
    }
}

} // namespace

TEST(CowBytesContains, MatchesFlatScanOnActiveTier)
{
    runContainsEquivalence();
}

TEST(CowBytesContains, MatchesFlatScanOnPortableTier)
{
    host::setActiveKernelsForTest(&host::portableKernels());
    runContainsEquivalence();
    host::setActiveKernelsForTest(nullptr);
}

TEST(CowBytesContains, SkipsZeroPagesWithoutMaterializing)
{
    CowBytes bytes(64 * PAGE_SIZE);
    const std::array<std::uint8_t, 4> needle = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_FALSE(bytes.contains(needle));
    bytes.write(40 * PAGE_SIZE - 2, needle.data(), needle.size());
    EXPECT_TRUE(bytes.contains(needle));
    EXPECT_EQ(bytes.privatePages(), 2u);
    EXPECT_FALSE(bytes.contains(std::span<const std::uint8_t>{}));
}

namespace
{

/** Random bytes: unlike pattern() output, which is always a shifted
 * copy of any other pattern(), these match no image page by chance. */
std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng());
    return out;
}

/** A 10.5-page image with data on @p pages and Zero pages elsewhere. */
std::shared_ptr<const CowImage>
imageWithPages(std::initializer_list<std::size_t> pages, std::uint8_t salt)
{
    CowBytes source(10 * PAGE_SIZE + PAGE_SIZE / 2);
    for (const std::size_t page : pages) {
        const auto data = pattern(PAGE_SIZE / 2, salt);
        source.write(page * PAGE_SIZE, data.data(), data.size());
    }
    return source.freeze();
}

/** @p bytes must be indistinguishable from a fresh CowBytes that
 * adopted @p image: bytes, page states and contains() answers. */
void
expectLikeFreshAdopt(const CowBytes &bytes,
                     const std::shared_ptr<const CowImage> &image,
                     const std::vector<std::vector<std::uint8_t>> &needles,
                     const std::string &what)
{
    CowBytes fresh(bytes.size());
    fresh.adopt(image);
    EXPECT_EQ(bytes.checkConsistency(), "") << what;
    EXPECT_TRUE(readAll(bytes) == readAll(fresh)) << what;
    EXPECT_EQ(bytes.privatePages(), 0u) << what;
    for (std::size_t page = 0; page < bytes.pageCount(); ++page)
        EXPECT_EQ(bytes.pageIsPrivate(page), fresh.pageIsPrivate(page))
            << what << ": page " << page;
    for (std::size_t i = 0; i < needles.size(); ++i)
        EXPECT_EQ(bytes.contains(needles[i]), fresh.contains(needles[i]))
            << what << ": needle " << i;
}

} // namespace

TEST(CowBytes, ReadoptOfSameImageMatchesFreshAdopt)
{
    const auto imageA = imageWithPages({1, 2, 5, 10}, 0x21);
    const auto imageB = imageWithPages({0, 5, 9}, 0x42);
    std::mt19937_64 rng(5);
    CowBytes bytes(imageA->size());
    bytes.adopt(imageA);

    // Needles: image content and every dirt pattern written below;
    // none is all-zero or longer than a page, so contains() never
    // materializes the array under test.
    std::vector<std::vector<std::uint8_t>> needles = {
        pattern(32, 0x21), pattern(PAGE_SIZE / 2, 0x42)};
    const auto dirty = [&] {
        for (int i = 0; i < 6; ++i) {
            auto dirt = randomBytes(rng, 8 + rng() % (2 * PAGE_SIZE));
            const std::size_t offset = rng() % (bytes.size() - dirt.size());
            bytes.write(offset, dirt.data(), dirt.size());
            dirt.resize(std::min<std::size_t>(dirt.size(), 40));
            needles.push_back(std::move(dirt));
        }
    };

    for (int round = 0; round < 24; ++round) {
        const std::string what = "round " + std::to_string(round);
        switch (round % 4) {
        case 0: // plain writes: the journaled path
            dirty();
            break;
        case 1: // materialized: privatized behind the journal's back
            dirty();
            bytes.contiguous()[rng() % bytes.size()] ^= 0x5a;
            break;
        case 2: // zeroed: drops the image binding
            dirty();
            bytes.zeroAll();
            break;
        case 3: // nothing written at all
            break;
        }
        EXPECT_EQ(bytes.checkConsistency(), "") << what;
        // Every third round detours through the other image first.
        if (round % 3 == 2) {
            bytes.adopt(imageB);
            expectLikeFreshAdopt(bytes, imageB, needles, what + " (B)");
            dirty();
        }
        bytes.adopt(imageA);
        expectLikeFreshAdopt(bytes, imageA, needles, what + " (A)");
    }
}

TEST(CowBytes, DramReadoptAfterPowerLossMatchesFreshAdopt)
{
    constexpr std::size_t size = 64 * PAGE_SIZE;
    Dram source(size);
    const auto secret = pattern(3 * PAGE_SIZE, 0x6b);
    source.busWrite(7 * PAGE_SIZE, secret.data(), secret.size());
    const auto imageA = source.snapshotImage();
    source.busWrite(40 * PAGE_SIZE, secret.data(), secret.size());
    const auto imageB = source.snapshotImage();
    // Straddles a page seam inside the secret.
    const std::span<const std::uint8_t> seamNeedle =
        std::span(secret).subspan(PAGE_SIZE - 16, 48);

    const auto dump = [](Dram &dram) {
        std::vector<std::uint8_t> out(dram.size());
        dram.busRead(0, out.data(), out.size());
        return out;
    };
    Rng rng(3);
    Dram dram(size);
    for (int round = 0; round < 6; ++round) {
        const std::string what = "round " + std::to_string(round);
        const auto &image = round % 2 == 0 ? imageA : imageB;
        dram.adoptImage(image);
        const std::uint8_t dirt[3] = {0xd1, 0x7e, 0x55};
        dram.busWrite(20 * PAGE_SIZE + 5, dirt, sizeof dirt);
        // Decays (and materializes) every page, then re-adopt.
        dram.powerLoss(30.0, 20.0, rng);
        EXPECT_EQ(dram.cells().checkConsistency(), "") << what;
        dram.adoptImage(image);
        EXPECT_EQ(dram.cells().checkConsistency(), "") << what;

        Dram fresh(size);
        fresh.adoptImage(image);
        EXPECT_TRUE(dump(dram) == dump(fresh)) << what;
        EXPECT_EQ(dram.dirtyPages(), 0u) << what;
        EXPECT_TRUE(dram.contains(seamNeedle)) << what;
        EXPECT_FALSE(dram.contains(dirt)) << what;
    }
}

TEST(CowBytesDeath, AdoptRejectsSizeMismatch)
{
    CowBytes small(2 * PAGE_SIZE);
    const auto image = small.freeze();
    CowBytes big(4 * PAGE_SIZE);
    EXPECT_DEATH(big.adopt(image), "size");
}

TEST(CowBytesDeath, ZeroSizeRejected)
{
    EXPECT_DEATH(CowBytes bytes(0), "");
}
