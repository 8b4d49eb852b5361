/**
 * @file
 * kcryptd worker-pool tests: the batched DmCrypt::writeBlocks() path
 * runs host-side AES on real threads, so it must produce byte-identical
 * on-disk ciphertext to the per-block inline path, charge identical
 * simulated time/energy, never let plaintext reach the backing device
 * or DRAM, and leave the engine's charge divisor restored.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.hh"
#include "core/device.hh"
#include "core/security_audit.hh"
#include "os/block_device.hh"
#include "os/dm_crypt.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

struct KcryptdFixture : testing::Test
{
    KcryptdFixture()
        : device(hw::PlatformConfig::tegra3(64 * MiB)),
          diskA(device.soc().clock(), 2 * MiB),
          diskB(device.soc().clock(), 2 * MiB)
    {
        device.sentry().registerCryptoProviders();
    }

    std::unique_ptr<DmCrypt>
    makeDmCrypt(RamBlockDevice &disk, unsigned workers)
    {
        const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
        return std::make_unique<DmCrypt>(
            disk, device.kernel().cryptoApi().allocCipher("aes", key),
            workers);
    }

    /** A recognisable plaintext payload of @p nblocks blocks. */
    static std::vector<std::uint8_t>
    plaintext(std::size_t nblocks)
    {
        std::vector<std::uint8_t> data(nblocks * BLOCK_SIZE);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(0x5A ^ (i * 13));
        return data;
    }

    Device device;
    RamBlockDevice diskA, diskB;
};

} // namespace

TEST_F(KcryptdFixture, BatchCiphertextMatchesPerBlockLoop)
{
    auto batched = makeDmCrypt(diskA, 4);
    auto inline1 = makeDmCrypt(diskB, 4);
    const auto data = plaintext(16);

    batched->writeBlocks(3, data);
    for (std::size_t b = 0; b < 16; ++b)
        inline1->writeBlock(3 + b,
                            std::span(data).subspan(b * BLOCK_SIZE,
                                                    BLOCK_SIZE));

    const auto a = diskA.raw();
    const auto b = diskB.raw();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST_F(KcryptdFixture, WorkerCountDoesNotChangeCiphertext)
{
    auto one = makeDmCrypt(diskA, 1);
    auto four = makeDmCrypt(diskB, 4);
    const auto data = plaintext(8);

    one->writeBlocks(0, data);
    four->writeBlocks(0, data);

    const auto a = diskA.raw();
    const auto b = diskB.raw();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST_F(KcryptdFixture, BatchChargesMatchPerBlockLoop)
{
    auto batched = makeDmCrypt(diskA, 4);
    auto inline1 = makeDmCrypt(diskB, 4);
    const auto data = plaintext(12);
    SimClock &clock = device.soc().clock();
    hw::EnergyModel &energy = device.soc().energy();

    const Cycles c0 = clock.now();
    const double j0 = energy.totalConsumed();
    batched->writeBlocks(0, data);
    const Cycles batchCycles = clock.now() - c0;
    const double batchJoules = energy.totalConsumed() - j0;

    const Cycles c1 = clock.now();
    const double j1 = energy.totalConsumed();
    for (std::size_t b = 0; b < 12; ++b)
        inline1->writeBlock(b, std::span(data).subspan(b * BLOCK_SIZE,
                                                       BLOCK_SIZE));
    const Cycles loopCycles = clock.now() - c1;
    const double loopJoules = energy.totalConsumed() - j1;

    EXPECT_EQ(batchCycles, loopCycles);
    // Same per-op charges; the running total accumulates in a different
    // order, so allow double-rounding noise.
    EXPECT_NEAR(batchJoules, loopJoules, 1e-12);
}

TEST_F(KcryptdFixture, BatchRoundTripsThroughReads)
{
    auto dm = makeDmCrypt(diskA, 4);
    const auto data = plaintext(10);
    dm->writeBlocks(5, data);

    std::vector<std::uint8_t> back(BLOCK_SIZE);
    for (std::size_t b = 0; b < 10; ++b) {
        dm->readBlock(5 + b, back);
        EXPECT_EQ(0, std::memcmp(back.data(),
                                 data.data() + b * BLOCK_SIZE, BLOCK_SIZE))
            << "block " << b;
    }
}

TEST_F(KcryptdFixture, NoPlaintextOnDiskOrInDram)
{
    auto dm = makeDmCrypt(diskA, 4);
    const auto data = plaintext(8);
    const std::vector<std::uint8_t> marker(data.begin(), data.begin() + 64);

    dm->writeBlocks(0, data);

    EXPECT_FALSE(containsBytes(diskA.raw(), marker));
    EXPECT_FALSE(containsBytes(device.soc().dram().raw(), marker));

    // The programmatic audit agrees (markers checked among the rest).
    const std::span<const std::uint8_t> markers[] = {marker};
    SecurityAudit audit(device.kernel(), device.sentry());
    EXPECT_TRUE(audit.run(markers).allPassed());
}

TEST_F(KcryptdFixture, DivisorRestoredAndPoolReusable)
{
    auto dm = makeDmCrypt(diskA, 4);
    const auto data = plaintext(4);

    for (int round = 0; round < 3; ++round) {
        dm->writeBlocks(static_cast<std::uint64_t>(4 * round), data);
        EXPECT_DOUBLE_EQ(dm->cipher().chargeDivisor(), 1.0);
    }
    std::vector<std::uint8_t> back(BLOCK_SIZE);
    dm->readBlock(8, back);
    EXPECT_EQ(0, std::memcmp(back.data(), data.data(), BLOCK_SIZE));
}
