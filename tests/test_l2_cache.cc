/**
 * @file
 * PL310 L2 cache model tests, including the exact behaviours the paper
 * validated on hardware (section 4.2): locked ways never write back,
 * a raw full flush *does* unlock and leak them, and the masked flush
 * (the OS change) preserves them.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/sim_clock.hh"
#include "common/trace_engine.hh"
#include "hw/bus.hh"
#include "hw/dram.hh"
#include "hw/l2_cache.hh"
#include "hw/trustzone.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

struct L2Fixture : testing::Test
{
    L2Fixture()
        : clock(1e9), dram(8 * MiB), tz(/*secure=*/true, 1),
          l2(clock, bus, tz, DRAM_BASE, dram.size(), 1 * MiB, 8)
    {
        bus.attach(&dram, DRAM_BASE, dram.size(), "dram");
    }

    /** Program the lockdown register from the secure world. */
    void
    lockdown(std::uint32_t mask)
    {
        SecureWorldGuard guard(tz);
        ASSERT_TRUE(l2.writeLockdownReg(mask));
    }

    std::uint32_t
    read32(PhysAddr addr)
    {
        std::uint32_t v;
        l2.read(addr, reinterpret_cast<std::uint8_t *>(&v), 4);
        return v;
    }

    void
    write32(PhysAddr addr, std::uint32_t v)
    {
        l2.write(addr, reinterpret_cast<const std::uint8_t *>(&v), 4);
    }

    SimClock clock;
    Bus bus;
    Dram dram;
    TrustZone tz;
    L2Cache l2;
};

} // namespace

TEST_F(L2Fixture, Geometry)
{
    EXPECT_EQ(l2.size(), 1 * MiB);
    EXPECT_EQ(l2.ways(), 8u);
    EXPECT_EQ(l2.waySizeBytes(), 128 * KiB);
    EXPECT_EQ(l2.numSets(), 4096u);
}

TEST_F(L2Fixture, ReadMissFillsThenHits)
{
    dram.raw()[0x100] = 0xab;
    EXPECT_EQ(read32(DRAM_BASE + 0x100) & 0xff, 0xabu);
    EXPECT_EQ(l2.stats().misses, 1u);

    read32(DRAM_BASE + 0x100);
    EXPECT_EQ(l2.stats().hits, 1u);
}

TEST_F(L2Fixture, WriteIsWriteBackNotWriteThrough)
{
    write32(DRAM_BASE + 0x200, 0xdeadbeef);
    // Dirty data sits in the cache; DRAM still holds the old bytes.
    EXPECT_EQ(dram.raw()[0x200], 0x00);
    unsigned way;
    ASSERT_NE(l2.peek(DRAM_BASE + 0x200, &way), nullptr);
    EXPECT_EQ(read32(DRAM_BASE + 0x200), 0xdeadbeefu);
}

TEST_F(L2Fixture, CleanRangePushesDirtyDataToDram)
{
    write32(DRAM_BASE + 0x200, 0xdeadbeef);
    l2.cleanRange(DRAM_BASE + 0x200, 4);
    EXPECT_EQ(dram.raw()[0x200], 0xef); // little-endian
    EXPECT_EQ(dram.raw()[0x203], 0xde);
    // Line stays valid after a clean.
    EXPECT_NE(l2.peek(DRAM_BASE + 0x200), nullptr);
}

TEST_F(L2Fixture, InvalidateRangeDiscardsDirtyData)
{
    write32(DRAM_BASE + 0x300, 0x11223344);
    l2.invalidateRange(DRAM_BASE + 0x300, 4);
    EXPECT_EQ(l2.peek(DRAM_BASE + 0x300), nullptr);
    EXPECT_EQ(dram.raw()[0x300], 0x00); // write never reached DRAM
}

TEST_F(L2Fixture, EvictionWritesBackDirtyVictim)
{
    // Fill one set 9 times (8 ways + 1) to force an eviction.
    const PhysAddr setStride = l2.waySizeBytes(); // same set, new tag
    for (unsigned i = 0; i < 9; ++i)
        write32(DRAM_BASE + i * setStride, 0x1000 + i);
    EXPECT_GE(l2.stats().writebacks, 1u);
    // The first-written line was evicted and its data reached DRAM.
    EXPECT_EQ(dram.raw()[0], 0x00); // little-endian 0x1000 => byte0 0
    EXPECT_EQ(dram.raw()[1], 0x10);
}

TEST_F(L2Fixture, LockdownRequiresSecureWorld)
{
    // Normal world: the co-processor write is ignored.
    EXPECT_FALSE(l2.writeLockdownReg(0x1));
    EXPECT_EQ(l2.lockdownReg(), 0u);

    lockdown(0x3);
    EXPECT_EQ(l2.lockdownReg(), 0x3u);
}

TEST_F(L2Fixture, LockedWayNeverEvictsOrWritesBack)
{
    // Warm way 0 with dirty data: allocate with all other ways locked.
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 1 * MiB;
    write32(target, 0x5ec7e700);

    // Flip the lock: way 0 locked, the rest available.
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    // Hammer the same set with 32 distinct tags: way 0 must survive.
    for (unsigned i = 1; i <= 32; ++i)
        write32(target + i * l2.waySizeBytes(), i);

    unsigned way = 99;
    ASSERT_NE(l2.peek(target, &way), nullptr);
    EXPECT_EQ(way, 0u);
    // And the locked dirty data never appeared in DRAM.
    EXPECT_EQ(dram.raw()[1 * MiB], 0x00);
    EXPECT_EQ(read32(target), 0x5ec7e700u);
}

TEST_F(L2Fixture, MaskedFlushPreservesLockedWay)
{
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 2 * MiB;
    write32(target, 0xfeedface);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.flushAllMasked();

    EXPECT_NE(l2.peek(target), nullptr);     // still cached
    EXPECT_EQ(dram.raw()[2 * MiB], 0x00);    // never written back
}

TEST_F(L2Fixture, RawFlushUnlocksAndLeaksLockedWay)
{
    // The dangerous stock behaviour the paper discovered: a full flush
    // unlocks all locked ways and their contents land in DRAM.
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 2 * MiB;
    write32(target, 0xfeedface);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.rawFlushAll();

    EXPECT_EQ(l2.peek(target), nullptr);
    EXPECT_EQ(l2.lockdownReg(), 0u);
    EXPECT_EQ(dram.raw()[2 * MiB], 0xce); // leaked, little-endian
}

TEST_F(L2Fixture, AllWaysLockedFallsBackToUncachedAccess)
{
    lockdown(0xff);
    write32(DRAM_BASE + 0x700, 0xabcd0123);
    // With no allocatable way the write goes straight to DRAM.
    EXPECT_EQ(l2.stats().uncachedAccesses, 1u);
    EXPECT_EQ(dram.raw()[0x700], 0x23);
    EXPECT_EQ(l2.peek(DRAM_BASE + 0x700), nullptr);
}

TEST_F(L2Fixture, ResetAndZeroClearsEverything)
{
    write32(DRAM_BASE + 0x100, 0x12345678);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.resetAndZero();

    EXPECT_EQ(l2.peek(DRAM_BASE + 0x100), nullptr);
    EXPECT_EQ(l2.lockdownReg(), 0u);
    EXPECT_EQ(l2.flushWayMask(), 0u);
    // Reset discards without writeback.
    EXPECT_EQ(dram.raw()[0x100], 0x00);
}

TEST_F(L2Fixture, CrossLineAccessPanics)
{
    std::uint8_t buf[8];
    EXPECT_DEATH(l2.read(DRAM_BASE + CACHE_LINE_SIZE - 4, buf, 8),
                 "crosses a line");
}

TEST_F(L2Fixture, TimingChargesHitAndMissDifferently)
{
    const Cycles start = clock.now();
    read32(DRAM_BASE); // miss
    const Cycles missCost = clock.now() - start;
    const Cycles mid = clock.now();
    read32(DRAM_BASE); // hit
    const Cycles hitCost = clock.now() - mid;
    EXPECT_GT(missCost, hitCost);
    EXPECT_GT(hitCost, 0u);
}

TEST_F(L2Fixture, WayDirtyTracking)
{
    EXPECT_FALSE(l2.wayHasDirtyLines(0));
    lockdown(0xfe); // allocate into way 0 only
    write32(DRAM_BASE + 0x40, 1);
    EXPECT_TRUE(l2.wayHasDirtyLines(0));
}

namespace
{

/** One CacheEvent (a line writeback) as observed on the trace spine. */
struct Writeback
{
    unsigned way;
    bool wayLocked;
    PhysAddr addr;

    bool operator==(const Writeback &) const = default;
};

struct WritebackLog : probe::Subscriber
{
    void
    onCacheEvent(probe::CacheEvent &event) override
    {
        events.push_back({event.way, event.wayLocked, event.addr});
    }

    std::vector<Writeback> events;
};

/**
 * The writebacks cleanAllMasked() owes: a nested set-then-way walk of
 * every line, keeping the valid-and-dirty lines of unmasked ways.
 */
std::vector<Writeback>
referenceClean(const L2Cache &l2)
{
    const L2Cache::ForkState fs = l2.forkState();
    std::vector<Writeback> out;
    for (std::size_t set = 0; set < l2.numSets(); ++set) {
        for (unsigned way = 0; way < l2.ways(); ++way) {
            if (fs.flushWayMask & (1u << way))
                continue;
            const L2Line &line = fs.lines[set * l2.ways() + way];
            if (!line.valid || !line.dirty)
                continue;
            out.push_back({way, ((fs.lockdownMask >> way) & 1u) != 0,
                           (line.tag * l2.numSets() + set) *
                               CACHE_LINE_SIZE});
        }
    }
    return out;
}

struct L2DirtyMaskFixture : L2Fixture
{
    L2DirtyMaskFixture()
    {
        l2.setTraceEngine(&engine);
        engine.subscribe(&log, probe::maskOf(probe::TraceKind::CacheEvent));
    }

    ~L2DirtyMaskFixture() override { engine.unsubscribe(&log); }

    /**
     * @p ops random accesses over a 4 MiB window (four times the
     * cache): slow-path reads and writes, fast-path line writes, range
     * cleans and invalidates, and an occasional masked flush.
     */
    void
    randomTraffic(std::mt19937_64 &rng, int ops)
    {
        for (int i = 0; i < ops; ++i) {
            const PhysAddr addr =
                DRAM_BASE + (rng() % (4 * MiB)) / 4 * 4;
            const unsigned op = static_cast<unsigned>(rng() % 100);
            if (op < 45) {
                write32(addr, static_cast<std::uint32_t>(rng()));
            } else if (op < 75) {
                read32(addr);
            } else if (op < 90) {
                L2LineId id;
                if (l2.probeLine(addr, id) != nullptr)
                    l2.linePayloadForWrite(id)[addr % CACHE_LINE_SIZE] =
                        static_cast<std::uint8_t>(rng());
            } else if (op < 95) {
                l2.invalidateRange(addr, 8 * CACHE_LINE_SIZE);
            } else if (op < 99) {
                l2.cleanRange(addr, 8 * CACHE_LINE_SIZE);
            } else if (rng() % 8 == 0) {
                l2.flushAllMasked();
            }
        }
    }

    /** Dirty lines in ways 0-1 (locked and flush-masked afterwards)
     * plus random traffic through the other ways. */
    void
    dirtyEveryKindOfWay(std::mt19937_64 &rng)
    {
        lockdown(0xfc);
        randomTraffic(rng, 4000);
        lockdown(0x03);
        l2.setFlushWayMask(0x03);
        randomTraffic(rng, 20000);
    }

    probe::TraceEngine engine;
    WritebackLog log;
};

} // namespace

TEST_F(L2DirtyMaskFixture, CleanWritesBackExactlyDirtyUnmaskedLinesInOrder)
{
    std::mt19937_64 rng(7);
    dirtyEveryKindOfWay(rng);
    for (int round = 0; round < 4; ++round) {
        const std::vector<Writeback> expected = referenceClean(l2);
        ASSERT_FALSE(expected.empty());
        const auto before = l2.forkState();
        log.events.clear();
        l2.cleanAllMasked();
        EXPECT_EQ(log.events, expected) << "round " << round;
        EXPECT_TRUE(referenceClean(l2).empty());
        // The masked ways keep their dirty lines untouched.
        const auto after = l2.forkState();
        for (std::size_t i = 0; i < after.lines.size(); ++i) {
            if (i % l2.ways() < 2) {
                ASSERT_EQ(after.lines[i].dirty, before.lines[i].dirty);
                ASSERT_EQ(after.lines[i].valid, before.lines[i].valid);
            }
        }
        EXPECT_TRUE(l2.wayHasDirtyLines(0) || l2.wayHasDirtyLines(1));
        randomTraffic(rng, 5000);
    }

    // With no flush mask every dirty line goes, locked ones included.
    l2.setFlushWayMask(0);
    const std::vector<Writeback> expected = referenceClean(l2);
    log.events.clear();
    l2.cleanAllMasked();
    EXPECT_EQ(log.events, expected);
    for (unsigned way = 0; way < l2.ways(); ++way)
        EXPECT_FALSE(l2.wayHasDirtyLines(way)) << "way " << way;

    // Reset discards the dirty state without writeback.
    randomTraffic(rng, 2000);
    l2.resetAndZero();
    log.events.clear();
    l2.cleanAllMasked();
    EXPECT_TRUE(log.events.empty());
}

TEST_F(L2DirtyMaskFixture, DirtyMaskRidesForkState)
{
    std::mt19937_64 rng(11);
    dirtyEveryKindOfWay(rng);
    const L2Cache::ForkState fs = l2.forkState();
    const std::vector<Writeback> expected = referenceClean(l2);
    ASSERT_FALSE(expected.empty());

    // Restore over a cache whose dirty state has since moved on.
    randomTraffic(rng, 20000);
    l2.cleanAllMasked();
    randomTraffic(rng, 3000);
    l2.restoreForkState(fs);
    log.events.clear();
    l2.cleanAllMasked();
    EXPECT_EQ(log.events, expected);

    // And into a freshly built cache of the same geometry.
    L2Cache other(clock, bus, tz, DRAM_BASE, dram.size(), 1 * MiB, 8);
    other.setTraceEngine(&engine);
    other.restoreForkState(fs);
    log.events.clear();
    other.cleanAllMasked();
    EXPECT_EQ(log.events, expected);
    EXPECT_TRUE(referenceClean(other).empty());
}

namespace
{

/** Field-by-field equality of two captured states; capture ids are
 * not state and differ by design. */
void
expectSameState(const L2Cache::ForkState &got,
                const L2Cache::ForkState &want, const std::string &what)
{
    ASSERT_EQ(got.lines.size(), want.lines.size()) << what;
    for (std::size_t i = 0; i < got.lines.size(); ++i) {
        ASSERT_TRUE(got.lines[i].tag == want.lines[i].tag &&
                    got.lines[i].valid == want.lines[i].valid &&
                    got.lines[i].dirty == want.lines[i].dirty)
            << what << ": line " << i;
    }
    // Per-set arrays compared as bools: a failure must not print them.
    EXPECT_TRUE(got.data == want.data) << what << ": payload";
    EXPECT_TRUE(got.rr == want.rr) << what << ": rr";
    EXPECT_TRUE(got.mru == want.mru) << what << ": mru";
    EXPECT_TRUE(got.dirtyWays == want.dirtyWays) << what << ": dirtyWays";
    EXPECT_EQ(got.lockdownMask, want.lockdownMask) << what;
    EXPECT_EQ(got.flushWayMask, want.flushWayMask) << what;
    EXPECT_EQ(got.stats.hits, want.stats.hits) << what;
    EXPECT_EQ(got.stats.misses, want.stats.misses) << what;
    EXPECT_EQ(got.stats.fills, want.stats.fills) << what;
    EXPECT_EQ(got.stats.writebacks, want.stats.writebacks) << what;
    EXPECT_EQ(got.stats.uncachedAccesses, want.stats.uncachedAccesses)
        << what;
}

} // namespace

TEST_F(L2DirtyMaskFixture, RepeatedRestoreMatchesFullRestore)
{
    std::mt19937_64 rng(23);
    dirtyEveryKindOfWay(rng); // ways 0-1 locked and flush-masked
    const L2Cache::ForkState fsA = l2.forkState();
    randomTraffic(rng, 3000);
    l2.glitchLockdownBits(0x02);
    const L2Cache::ForkState fsB = l2.forkState();
    ASSERT_NE(fsA.id, 0u);
    ASSERT_NE(fsA.id, fsB.id);

    // The reference: a fresh cache's (necessarily full) restore.
    const auto fullRestore = [&](const L2Cache::ForkState &fs) {
        L2Cache fresh(clock, bus, tz, DRAM_BASE, dram.size(), 1 * MiB, 8);
        fresh.restoreForkState(fs);
        return fresh.forkState();
    };
    const L2Cache::ForkState refA = fullRestore(fsA);
    const L2Cache::ForkState refB = fullRestore(fsB);

    // Addresses of the lines dirty in fsA, for fast-path writes that
    // must not escape the journal although they set no dirty bit.
    std::vector<PhysAddr> dirtyInA;
    for (std::size_t set = 0; set < l2.numSets(); ++set)
        for (unsigned way = 0; way < l2.ways(); ++way) {
            const L2Line &line = fsA.lines[set * l2.ways() + way];
            if (line.valid && line.dirty)
                dirtyInA.push_back((line.tag * l2.numSets() + set) *
                                   CACHE_LINE_SIZE);
        }
    ASSERT_FALSE(dirtyInA.empty());

    // Each episode starts from a restored fsA and is undone by
    // re-restoring fsA, the journaled path. Every third episode then
    // detours through fsB, whose restores must take the full copy.
    const auto fastWritesToDirtyLines = [&] {
        for (int i = 0; i < 4; ++i) {
            const PhysAddr addr =
                dirtyInA[rng() % dirtyInA.size()] + rng() % CACHE_LINE_SIZE;
            L2LineId id;
            ASSERT_NE(l2.probeLine(addr, id), nullptr);
            l2.linePayloadForWrite(id)[addr % CACHE_LINE_SIZE] ^=
                static_cast<std::uint8_t>(1 + rng() % 255);
        }
    };
    const auto check = [&](const L2Cache::ForkState &fs,
                           const std::string &what) {
        l2.restoreForkState(fs);
        expectSameState(l2.forkState(), &fs == &fsA ? refA : refB, what);
    };
    l2.restoreForkState(fsA);
    constexpr int kEpisodes = 10;
    for (int round = 0; round < 3 * kEpisodes; ++round) {
        const std::string what = "round " + std::to_string(round);
        switch (round % kEpisodes) {
        case 0: // nothing but fast-path writes to already-dirty lines
            fastWritesToDirtyLines();
            break;
        case 1: // a short burst touching a handful of sets
            randomTraffic(rng, 1 + static_cast<int>(rng() % 200));
            break;
        case 2:
            l2.cleanRange(dirtyInA[rng() % dirtyInA.size()],
                          16 * CACHE_LINE_SIZE);
            l2.invalidateRange(dirtyInA[rng() % dirtyInA.size()],
                               16 * CACHE_LINE_SIZE);
            break;
        case 3:
            l2.flushAllMasked();
            break;
        case 4:
            l2.cleanAllMasked();
            break;
        case 5:
            l2.rawFlushAll();
            break;
        case 6:
            l2.glitchLockdownBits(0x01);
            l2.setFlushWayMask(0);
            randomTraffic(rng, 50);
            break;
        case 7:
            l2.resetAndZero();
            break;
        case 8: // nothing changed at all
            break;
        case 9:
            randomTraffic(rng, 5000);
            break;
        }
        check(fsA, what + " (same state)");
        if (round % 3 == 2) {
            fastWritesToDirtyLines();
            check(fsB, what + " (other state)");
            randomTraffic(rng, 100);
            check(fsB, what + " (other state, again)");
            randomTraffic(rng, 100);
            check(fsA, what + " (back to the first state)");
        }
    }
}
