/**
 * @file
 * Remanence-model validation: survival probabilities against the
 * Table 2 calibration anchors, temperature behaviour (the freezer
 * trick), statistical behaviour of the decay pass, and the page-batched
 * copy-on-write decay against the flat loop it replaced, on every
 * kernel tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "host/kernels.hh"
#include "hw/cow_bytes.hh"
#include "hw/dram.hh"
#include "hw/iram.hh"
#include "hw/remanence.hh"

using namespace sentry;
using namespace sentry::hw;

TEST(Remanence, NoDecayAtZeroSeconds)
{
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_DOUBLE_EQ(model.bitSurvival(0.0, 22.0), 1.0);
    EXPECT_DOUBLE_EQ(model.unitSurvival(0.0, 22.0), 1.0);
}

TEST(Remanence, Table2AnchorReflash)
{
    // ~7 ms reset tap preserves ~97.5% of 8-byte units at room temp.
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_NEAR(model.unitSurvival(0.007, 22.0), 0.975, 0.005);
}

TEST(Remanence, Table2AnchorTwoSeconds)
{
    // A 2 s power loss preserves ~0.1% of units.
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_NEAR(model.unitSurvival(2.0, 22.0), 0.001, 0.001);
}

TEST(Remanence, SurvivalIsMonotonicInTime)
{
    RemanenceModel model(MemoryTech::Dram);
    double prev = 1.0;
    for (double t : {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0}) {
        const double s = model.unitSurvival(t, 22.0);
        EXPECT_LT(s, prev);
        prev = s;
    }
}

TEST(Remanence, FreezerExtendsRetention)
{
    // The Frost attack: cooling the phone in a household freezer makes
    // a 2-second disconnect survivable.
    RemanenceModel model(MemoryTech::Dram);
    const double room = model.unitSurvival(2.0, 22.0);
    const double freezer = model.unitSurvival(2.0, -18.0);
    EXPECT_GT(freezer, 100.0 * room);
    EXPECT_GT(freezer, 0.3);
}

TEST(Remanence, SramDecaysSlowerThanDram)
{
    // Skorobogatov: SRAM retains data longer than DRAM.
    RemanenceModel dram(MemoryTech::Dram);
    RemanenceModel sram(MemoryTech::Sram);
    EXPECT_GT(sram.unitSurvival(2.0, 22.0), dram.unitSurvival(2.0, 22.0));
}

TEST(Remanence, DecayPassMatchesAnalyticSurvival)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(42);

    std::vector<std::uint8_t> memory(4 * MiB);
    const auto pattern = fromHex("a5a5a5a55a5a5a5a");
    fillPattern(memory, pattern);
    const std::size_t before = countPattern(memory, pattern);

    model.decay(memory, 0.007, 22.0, rng);
    const double survived =
        static_cast<double>(countPattern(memory, pattern)) /
        static_cast<double>(before);
    EXPECT_NEAR(survived, model.unitSurvival(0.007, 22.0), 0.01);
}

TEST(Remanence, HeavyDecayDestroysAlmostEverything)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(43);

    std::vector<std::uint8_t> memory(1 * MiB);
    const auto pattern = fromHex("0123456789abcdef");
    fillPattern(memory, pattern);
    const std::size_t before = countPattern(memory, pattern);

    model.decay(memory, 2.0, 22.0, rng);
    const double survived =
        static_cast<double>(countPattern(memory, pattern)) /
        static_cast<double>(before);
    EXPECT_LT(survived, 0.01);
}

TEST(Remanence, DecayedBytesCollapseToGroundPolarity)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(44);

    std::vector<std::uint8_t> memory(64 * KiB, 0x3c);
    model.decay(memory, 10.0, 22.0, rng); // near-total decay
    // After total decay only ground bytes (0x00 / 0xff) and rare
    // survivors (0x3c) remain.
    for (std::uint8_t b : memory)
        EXPECT_TRUE(b == 0x00 || b == 0xff || b == 0x3c) << int(b);
}

TEST(Remanence, DecayIsDeterministicPerSeed)
{
    RemanenceModel model(MemoryTech::Dram);
    std::vector<std::uint8_t> a(64 * KiB, 0x77), b(64 * KiB, 0x77);
    Rng rngA(7), rngB(7);
    model.decay(a, 0.5, 22.0, rngA);
    model.decay(b, 0.5, 22.0, rngB);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Page-batched decay against the flat loop it replaced.
// ---------------------------------------------------------------------

namespace
{

/**
 * The flat byte loop RemanenceModel::decay ran before decay went page
 * by page through host decayBlend, kept verbatim as the reference.
 * @return the ground drawn for each 4 KiB region, in order.
 */
std::vector<std::uint8_t>
referenceDecay(const RemanenceModel &model, std::span<std::uint8_t> memory,
               double off_seconds, double celsius, Rng &rng)
{
    std::vector<std::uint8_t> grounds;
    if (off_seconds <= 0)
        return grounds;

    const double byteSurvival =
        std::pow(model.bitSurvival(off_seconds, celsius), 8.0);
    if (byteSurvival >= 1.0)
        return grounds;

    const auto threshold =
        static_cast<std::uint32_t>(byteSurvival * 65536.0);

    std::size_t index = 0;
    while (index < memory.size()) {
        const std::uint8_t ground = rng.chance(0.5) ? 0x00 : 0xff;
        grounds.push_back(ground);
        const std::size_t regionEnd =
            std::min(memory.size(), (index / PAGE_SIZE + 1) * PAGE_SIZE);

        while (index < regionEnd) {
            std::uint64_t lanes = rng.next64();
            const std::size_t chunk =
                std::min<std::size_t>(4, regionEnd - index);
            for (std::size_t i = 0; i < chunk; ++i) {
                if (static_cast<std::uint32_t>(lanes & 0xffff) >= threshold)
                    memory[index + i] = ground;
                lanes >>= 16;
            }
            index += chunk;
        }
    }
    return grounds;
}

/** Page content kinds a forked array mixes. */
enum class PageKind
{
    Zero,            //!< Zero in the image, untouched
    Shared,          //!< non-zero in the image, untouched
    PrivateCopy,     //!< Shared, then written after the fork
    PrivateFromZero, //!< Zero in the image, then written after the fork
    PrivateZeros,    //!< Zero in the image, then written with zeros
};

/** A frozen image and the page kinds a fork of it ends up with. */
struct PageMix
{
    std::shared_ptr<const CowImage> image;
    std::vector<PageKind> kinds;
};

PageMix
randomPageMix(std::size_t size, std::mt19937_64 &gen)
{
    CowBytes source(size);
    const std::size_t pages = (size + PAGE_SIZE - 1) / PAGE_SIZE;
    PageMix mix;
    mix.kinds.resize(pages);
    std::vector<std::uint8_t> page(PAGE_SIZE);
    for (std::size_t p = 0; p < pages; ++p) {
        mix.kinds[p] = static_cast<PageKind>(gen() % 5);
        const bool inImage = mix.kinds[p] == PageKind::Shared ||
                             mix.kinds[p] == PageKind::PrivateCopy;
        const std::size_t len = std::min(PAGE_SIZE, size - p * PAGE_SIZE);
        if (inImage) {
            for (auto &b : page)
                b = static_cast<std::uint8_t>(gen());
            source.write(p * PAGE_SIZE, page.data(), len);
        } else if (gen() % 2 == 0) {
            // A private all-zero page: freeze() publishes it as Zero.
            std::fill(page.begin(), page.end(), 0);
            source.write(p * PAGE_SIZE, page.data(), len);
        }
    }
    mix.image = source.freeze();
    return mix;
}

/** Apply the post-fork writes of @p mix through @p write(offset, buf,
 * len). */
template <typename Write>
void
writePrivatePages(const PageMix &mix, std::size_t size, std::mt19937_64 &gen,
                  Write &&write)
{
    std::vector<std::uint8_t> buf(64);
    for (std::size_t p = 0; p < mix.kinds.size(); ++p) {
        const std::size_t pageLen = std::min(PAGE_SIZE, size - p * PAGE_SIZE);
        const std::size_t len = std::min(buf.size(), pageLen);
        if (mix.kinds[p] == PageKind::PrivateZeros) {
            std::fill(buf.begin(), buf.end(), 0);
        } else if (mix.kinds[p] == PageKind::PrivateCopy ||
                   mix.kinds[p] == PageKind::PrivateFromZero) {
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(gen() | 1);
        } else {
            continue;
        }
        write(p * PAGE_SIZE + gen() % (pageLen - len + 1), buf.data(), len);
    }
}

struct DecayCase
{
    double offSeconds;
    double celsius;
};

// Off 0 (no draws), the reflash tap, the 2 s reset, 60 s (threshold
// 0: every byte decays), and 10 us (threshold 65535: almost none do),
// at room temperature and in the freezer.
const DecayCase DECAY_CASES[] = {
    {0.0, 22.0},   {0.007, 22.0}, {2.0, 22.0},   {60.0, 22.0},
    {1e-5, 22.0},  {0.0, -18.0},  {0.007, -18.0}, {2.0, -18.0},
    {60.0, -18.0}, {1e-5, -18.0},
};

class PageBatchedDecay : public testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        host::setActiveKernelsForTest(GetParam() ? &host::portableKernels()
                                                 : nullptr);
    }
    void TearDown() override { host::setActiveKernelsForTest(nullptr); }
};

} // namespace

TEST(Remanence, DecayCasesSpanTheThresholdRange)
{
    // The cases above must reach both threshold extremes.
    const RemanenceModel model(MemoryTech::Dram);
    const auto threshold = [&](double off, double celsius) {
        return static_cast<std::uint32_t>(
            std::pow(model.bitSurvival(off, celsius), 8.0) * 65536.0);
    };
    EXPECT_EQ(threshold(60.0, 22.0), 0u);
    EXPECT_EQ(threshold(1e-5, 22.0), 65535u);
    EXPECT_GE(threshold(1e-5, -18.0), 65535u);
}

TEST_P(PageBatchedDecay, CowBytesMatchesFlatLoop)
{
    std::mt19937_64 gen(GetParam() ? 11 : 12);
    for (const MemoryTech tech : {MemoryTech::Dram, MemoryTech::Sram}) {
        const RemanenceModel model(tech);
        // A ragged size exercises a partial last page.
        for (const std::size_t size : {48 * PAGE_SIZE, 13 * PAGE_SIZE + 100}) {
            for (const DecayCase &c : DECAY_CASES) {
                const std::string what =
                    "size " + std::to_string(size) + " off " +
                    std::to_string(c.offSeconds) + " at " +
                    std::to_string(c.celsius);
                const PageMix mix = randomPageMix(size, gen);
                CowBytes memory(size);
                memory.adopt(mix.image);
                writePrivatePages(mix, size, gen,
                                  [&](std::size_t off, const void *buf,
                                      std::size_t len) {
                                      memory.write(off, buf, len);
                                  });
                std::vector<bool> wasPrivate(memory.pageCount());
                for (std::size_t p = 0; p < memory.pageCount(); ++p)
                    wasPrivate[p] = memory.pageIsPrivate(p);

                std::vector<std::uint8_t> want(size);
                memory.read(0, want.data(), size);
                const std::uint64_t seed = gen();
                Rng refRng(seed), rng(seed);
                const auto grounds =
                    referenceDecay(model, want, c.offSeconds, c.celsius,
                                   refRng);
                model.decay(memory, c.offSeconds, c.celsius, rng);
                EXPECT_EQ(memory.checkConsistency(), "") << what;

                std::vector<std::uint8_t> got(size);
                memory.read(0, got.data(), size);
                ASSERT_TRUE(got == want) << what;
                EXPECT_EQ(rng.next64(), refRng.next64()) << what;
                // Every decayed page is privatized, except a Zero page
                // whose ground is 0x00: it reads the same and stays Zero.
                for (std::size_t p = 0; p < memory.pageCount(); ++p) {
                    const bool decayed = !grounds.empty();
                    const bool keptZero = mix.kinds[p] == PageKind::Zero &&
                                          decayed && grounds[p] == 0x00;
                    EXPECT_EQ(memory.pageIsPrivate(p),
                              wasPrivate[p] || (decayed && !keptZero))
                        << what << " page " << p;
                }

                // The decayed pages are journaled: a re-adopt is the
                // fresh image again.
                memory.adopt(mix.image);
                EXPECT_EQ(memory.checkConsistency(), "") << what;
                CowBytes fresh(size);
                fresh.adopt(mix.image);
                EXPECT_EQ(memory.privatePages(), 0u) << what;
                std::vector<std::uint8_t> a(size), b(size);
                memory.read(0, a.data(), size);
                fresh.read(0, b.data(), size);
                EXPECT_TRUE(a == b) << what;
            }
        }
    }
}

TEST_P(PageBatchedDecay, DramAndIramPowerLossMatchFlatLoop)
{
    std::mt19937_64 gen(GetParam() ? 21 : 22);
    const RemanenceModel dramModel(MemoryTech::Dram);
    const RemanenceModel sramModel(MemoryTech::Sram);
    constexpr std::size_t dramSize = 32 * PAGE_SIZE;
    constexpr std::size_t iramSize = 9 * PAGE_SIZE + 512;
    for (const DecayCase &c : DECAY_CASES) {
        const std::string what = "off " + std::to_string(c.offSeconds) +
                                 " at " + std::to_string(c.celsius);
        const PageMix dramMix = randomPageMix(dramSize, gen);
        const PageMix iramMix = randomPageMix(iramSize, gen);
        Dram dram(dramSize);
        Iram iram(iramSize);
        dram.adoptImage(dramMix.image);
        iram.adoptImage(iramMix.image);
        writePrivatePages(dramMix, dramSize, gen,
                          [&](std::size_t off, const void *buf,
                              std::size_t len) {
                              dram.writeCells(
                                  off, static_cast<const std::uint8_t *>(buf),
                                  len);
                          });
        writePrivatePages(iramMix, iramSize, gen,
                          [&](std::size_t off, const void *buf,
                              std::size_t len) {
                              iram.write(
                                  off, static_cast<const std::uint8_t *>(buf),
                                  len);
                          });

        std::vector<std::uint8_t> wantDram(dramSize), wantIram(iramSize);
        dram.busRead(0, wantDram.data(), dramSize);
        iram.read(0, wantIram.data(), iramSize);
        // Soc::powerCycle order: DRAM, then iRAM, from one stream.
        const std::uint64_t seed = gen();
        Rng refRng(seed), rng(seed);
        const auto dramGrounds = referenceDecay(
            dramModel, wantDram, c.offSeconds, c.celsius, refRng);
        referenceDecay(sramModel, wantIram, c.offSeconds, c.celsius, refRng);
        dram.powerLoss(c.offSeconds, c.celsius, rng);
        iram.powerLoss(c.offSeconds, c.celsius, rng);

        std::vector<std::uint8_t> gotDram(dramSize), gotIram(iramSize);
        dram.busRead(0, gotDram.data(), dramSize);
        iram.read(0, gotIram.data(), iramSize);
        ASSERT_TRUE(gotDram == wantDram) << what;
        ASSERT_TRUE(gotIram == wantIram) << what;
        EXPECT_EQ(rng.next64(), refRng.next64()) << what;
        // Only Zero pages whose ground is 0x00 stay unprivatized.
        std::size_t keptZero = 0;
        for (std::size_t p = 0; p < dramMix.kinds.size(); ++p)
            keptZero += dramMix.kinds[p] == PageKind::Zero &&
                        (dramGrounds.empty() || dramGrounds[p] == 0);
        const std::size_t privatized = dramMix.kinds.size() - keptZero;
        if (c.offSeconds > 0) {
            EXPECT_EQ(dram.dirtyPages(), privatized) << what;
        }
        // And the flat accessor agrees with the page-wise reads.
        EXPECT_TRUE(std::equal(wantDram.begin(), wantDram.end(),
                               dram.raw().begin()))
            << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, PageBatchedDecay, testing::Bool(),
                         [](const testing::TestParamInfo<bool> &info) {
                             return info.param ? std::string("Portable")
                                               : std::string("Active");
                         });
